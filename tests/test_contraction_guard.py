"""Source guard: no einsum in the library, and each matmul contraction
matches its einsum formula.

``np.einsum`` without a contraction path evaluates three or more operands
as one nested loop over every index, O(d^6) for the J-twist of a 3-form,
and even a two-operand contraction is slower than a reshape and one batched
``matmul``: the R4 lowering took 51 us against 12 us at 10 points and d = 4
(2-vCPU VM, numpy 2.4, one BLAS thread).  Outer products are no exception:
eq11's right side from two einsums (``reference.py``) took 179 us at the
two points and d = 8 of a ``conf8_curv`` context, where one (3, d*d, 2) @
(3, 2, d*d) matmul takes 31 us (80 against 45 us at 20 points and d = 4).  So every
contraction goes through the kernels in ``qkt.quaternionic``
(``j_apply_slot``, ``j_apply_form``, ``frame_trace_pair``),
``qkt.tensor_core`` (``raise_last``, ``lower_first``), ``qkt.curvature``
(``curvature_commutator``, ``ricci_form_commutator``) or through pairwise
products, and an outer product is a matmul or a broadcast product.  The
einsum formulas live in ``reference.py``, and the tests below check each
kernel against its formula.  The finer scans for multi-operand and
contracting einsums stay beside the scan for any einsum: a failure of the
last alone means an outer-product einsum came back, a failure of the others
one of the costlier kinds.
"""

import ast
import types
from pathlib import Path

import numpy as np
import pytest

import reference
from qkt.curvature import (
    CurvatureValue,
    curvature_commutator,
    curvature_tensor,
    ricci_form_commutator,
    ricci_tensor,
)
from qkt.qkt_connection import QKTContext, nijenhuis_via_connection
from qkt.quaternionic import nijenhuis_bracket
from qkt.suite import _nijenhuis_eq2
from qkt.tensor_core import christoffel, hodge_star_array, lower_first
from qkt.zoo import ManifoldSpec, build_structure, sample_points

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


def einsum_calls(source: str, filename: str) -> list:
    """(file, line) of every einsum call."""
    return [(filename, node.lineno) for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Call) and _is_einsum(node.func)]


def test_guard_detects_einsum():
    code = ('import numpy as np\n'
            'from numpy import einsum\n'
            'np.einsum("...i,lj->...lij", t, eye)\n'
            'np.einsum("ai,bj,ab->ij", J, J, x)\n'
            'einsum(*args)\n'
            'np.matmul(a, b)\n')
    assert einsum_calls(code, "probe.py") == [("probe.py", 3), ("probe.py", 4), ("probe.py", 5)]


def test_no_einsum_in_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += einsum_calls(path.read_text(encoding="utf-8"), path.name)
    assert found == []


# ---------------------------------------------------------------------------
# each matmul kernel against its einsum formula, on random tensors
# ---------------------------------------------------------------------------

LEADS = [(), (3,), (2, 5)]


def assert_matches(got, ref, rtol=1e-14):
    assert np.shape(got) == np.shape(ref)
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


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


# eq11's right side and the Weyl connection were outer-product einsums
OUTER = {"hopf": dict(kind="hopf_local", n=1),
         "conformal-2": dict(kind="conformal_flat", n=2, f="exp(x1)")}


@pytest.mark.parametrize("name", sorted(OUTER))
def test_outer_product_kernels_match_einsum(name):
    spec = ManifoldSpec(**OUTER[name], point_count=3)
    ctx = build_structure(spec).at(np.array(sample_points(spec)))
    ref = reference.ricci_form_commutator_einsum(ctx.rho, ctx.J, spec.n)
    assert np.max(np.abs(ref)) > 1e-3
    assert_matches(ricci_form_commutator(ctx.rho, ctx.J, spec.n), ref, 1e-15)
    ref = reference.weyl_connection_einsum(ctx.gamma_g, ctx.t, ctx.g, ctx.ginv)
    assert np.max(np.abs(ref - ctx.gamma_g)) > 1e-3
    assert_matches(ctx.gamma_w, ref, 1e-15)
