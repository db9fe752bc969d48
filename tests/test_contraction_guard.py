"""Source guard: no einsum in the library has three or more operands or
contracts an index, and each matmul contraction matches its einsum formula.

``np.einsum`` without a contraction path evaluates three or more operands
as one nested loop over every index, O(d^6) for the J-twist of a 3-form,
and even a two-operand contraction is slower than a reshape and one batched
``matmul``: the R4 lowering took 51 us against 12 us at 10 points and d = 4
(2-vCPU VM, numpy 2.4, one BLAS thread).  So every contraction goes through the kernels in
``qkt.quaternionic`` (``j_apply_slot``, ``j_apply_form``,
``frame_trace_pair``), ``qkt.tensor_core`` (``raise_last``,
``lower_first``) or through pairwise products; einsum is left for outer
products.  The einsum formulas of those contractions live in
``reference.py``, and the tests below check each kernel against its formula.
"""

import ast
import types
from pathlib import Path

import numpy as np
import pytest

import reference
from qkt.curvature import CurvatureValue, curvature_commutator, curvature_tensor, ricci_tensor
from qkt.qkt_connection import QKTContext, nijenhuis_via_connection
from qkt.quaternionic import nijenhuis_bracket
from qkt.suite import _nijenhuis_eq2
from qkt.tensor_core import christoffel, hodge_star_array, lower_first

SRC = Path(__file__).resolve().parent.parent / "src" / "qkt"


def _is_einsum(func) -> bool:
    if isinstance(func, ast.Attribute):
        return func.attr == "einsum"
    return isinstance(func, ast.Name) and func.id == "einsum"


def multi_operand_einsums(source: str, filename: str) -> list:
    """(file, line) of every einsum call with three or more operands or a starred argument."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.Call) and _is_einsum(node.func)):
            continue
        operands = node.args[1:]
        if len(operands) >= 3 or any(isinstance(arg, ast.Starred) for arg in node.args):
            found.append((filename, node.lineno))
    return found


def contracting_einsums(source: str, filename: str) -> list:
    """(file, line) of every einsum call that may contract an index: an input
    letter missing from the output, or subscripts that are not a literal
    string with an explicit output."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.Call) and _is_einsum(node.func)):
            continue
        spec = node.args[0] if node.args else None
        if not (isinstance(spec, ast.Constant) and isinstance(spec.value, str)
                and "->" in spec.value):
            found.append((filename, node.lineno))
            continue
        inputs, output = spec.value.replace("...", "").split("->")
        if set(inputs.replace(",", "")) - set(output):
            found.append((filename, node.lineno))
    return found


def test_guard_detects_multi_operand_einsum():
    code = ('import numpy as np\n'
            'np.einsum("ij,jk->ik", a, b)\n'
            'np.einsum("ai,bj,ab->ij", J, J, x)\n'
            'np.einsum(*args)\n')
    assert multi_operand_einsums(code, "probe.py") == [("probe.py", 3), ("probe.py", 4)]


def test_no_multi_operand_einsum_in_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += multi_operand_einsums(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_guard_detects_contracting_einsum():
    code = ('import numpy as np\n'
            'np.einsum("...i,lj->...lij", t, eye)\n'
            'np.einsum("ij,jk->ik", a, b)\n'
            'np.einsum("ai,bj,ab->ij", J, J, x)\n'
            'np.einsum("...akaj->...jk", R)\n'
            'np.einsum("ij,ij", a, b)\n'
            'np.einsum(*args)\n'
            'np.einsum(spec, a)\n')
    assert contracting_einsums(code, "probe.py") == [("probe.py", line) for line in range(3, 9)]


def test_no_contracting_einsum_in_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += contracting_einsums(path.read_text(encoding="utf-8"), path.name)
    assert found == []


# ---------------------------------------------------------------------------
# each matmul kernel against its einsum formula, on random tensors
# ---------------------------------------------------------------------------

LEADS = [(), (3,), (2, 5)]


def assert_matches(got, ref):
    assert np.shape(got) == np.shape(ref)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _random(rng, lead, *slots):
    return rng.normal(size=lead + slots)


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("lead", LEADS)
def test_metric_contractions_match_einsum(d, lead):
    # a random (not symmetric) ginv tells the two index orders apart
    rng = np.random.default_rng(d + len(lead))
    ginv, g = _random(rng, lead, d, d), _random(rng, lead, d, d)
    three = _random(rng, lead, d, d, d)
    assert_matches(christoffel(ginv, three), reference.christoffel_einsum(ginv, three))
    ctx = types.SimpleNamespace(T=three, ginv=ginv)
    assert_matches(QKTContext.T12.func(ctx), reference.torsion_12_einsum(three, ginv))
    assert_matches(lower_first(three, g), reference.lowered_connection_einsum(three, g))


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("lead", LEADS)
def test_curvature_contractions_match_einsum(d, lead):
    rng = np.random.default_rng(10 + d + len(lead))
    gamma, d_gamma = _random(rng, lead, d, d, d), _random(rng, lead, d, d, d, d)
    g, J = _random(rng, lead, d, d), _random(rng, lead, 3, d, d)
    curv = curvature_tensor(gamma, d_gamma, g)
    R13, R4 = reference.curvature_einsum(gamma, d_gamma, g)
    assert_matches(curv.R13, R13)
    assert_matches(curv.R4, R4)
    assert_matches(ricci_tensor(CurvatureValue(R13=R13, R4=R4)), reference.ricci_einsum(R13))
    assert_matches(curvature_commutator(R13, J), reference.curvature_commutator_einsum(R13, J))


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hodge_star_matches_einsum(lead, k):
    rng = np.random.default_rng(20 + k + len(lead))
    arr, ginv = _random(rng, lead, *(4,) * k), _random(rng, lead, 4, 4)
    vol = 1.0 + rng.random(size=lead)
    assert_matches(hodge_star_array(arr, ginv, vol),
                   reference.hodge_star_einsum(arr, ginv, vol, k))


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("lead", LEADS)
def test_nijenhuis_contractions_match_einsum(d, lead):
    rng = np.random.default_rng(30 + d + len(lead))
    J, A = _random(rng, lead, 3, d, d), _random(rng, lead, 3, d)
    dJ, T12 = _random(rng, lead, 3, d, d, d), _random(rng, lead, d, d, d)
    assert_matches(nijenhuis_bracket(J, dJ), reference.nijenhuis_bracket_einsum(J, dJ))
    ctx = types.SimpleNamespace(J=J, nabla_J=dJ, T12=T12, lee_differences=A)
    ctx.T02 = QKTContext.T02.func(ctx)
    assert_matches(_nijenhuis_eq2(ctx),
                   reference.nijenhuis_eq2_einsum(J, dJ, T12[..., None, :, :, :]))
    assert_matches(nijenhuis_via_connection(ctx), reference.nijenhuis_via_connection_einsum(J, A))
