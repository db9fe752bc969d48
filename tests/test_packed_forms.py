"""Packed 3-forms: the C(d, 3) components of the first-order layer.

The first-order layer keeps d_a F_a^+ and the alpha-versions of the torsion
as their components over the sorted triples i < j < k.  One kernel,
``tensor_core.shuffle_sum_packed``, packs both the d F_a (from their
gradients) and the wedges of 1-forms with 2-forms (from their outer
products); the type projector and J act by the triple's packed maps
(``quaternionic.packed_maps``), built from Newton's identities on the
derivations of J, J^2 and J^3.  The tests check the tables and the kernel
against the dense ones (``antisymmetrized_gradient``, ``shuffle_sum``), the
maps against ``project_plus_3form`` and ``j_apply_form`` for any J, complex
or not, and that the standard triple is one read-only constant per n.  Two
source guards keep the layout behind ``tensor_core``: no library function
outside ``qkt.quaternionic`` calls the dense kernels, and outside
``tensor_core`` only the theta_{a,b} trace table reads the ``lambda3``
index tables, so no private copy of the signed gather grows beside the kernel.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from qkt.quaternionic import (
    ConstantHypercomplexField,
    build_standard_hypercomplex,
    j_apply_form,
    j_apply_slot,
    packed_maps,
    project_plus_3form,
    rotated_hypercomplex,
)
from qkt.tensor_core import (
    antisymmetrized_gradient,
    derivation_3form,
    lambda3,
    shuffle_sum,
    shuffle_sum_packed,
    unpack_3form,
)
from reference import pack_3form
from test_product_rule import _rotated_triple

SRC = Path(__file__).resolve().parent.parent / "src" / "qkt"
RNG = np.random.default_rng(29)
DIMS = (4, 8, 12)


def random_forms(d: int, count: int = 3) -> np.ndarray:
    """``count`` dense 3-forms in dimension ``d``, exactly antisymmetric."""
    return unpack_3form(RNG.normal(size=(count, lambda3(d).size)), d)


def assert_rel_close(new, ref, rel=1e-13):
    assert np.max(np.abs(new - ref)) <= rel * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", DIMS)
def test_pack_and_unpack_round_trip_with_signs_and_zeros(d):
    size = lambda3(d).size
    assert size == d * (d - 1) * (d - 2) // 6
    packed = RNG.normal(size=(2, size))
    dense = unpack_3form(packed, d)
    assert np.array_equal(pack_3form(dense), packed)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(np.transpose(dense, (0,) + tuple(1 + p for p in perm)),
                              dense if np.linalg.det(np.eye(3)[list(perm)]) > 0 else -dense)
    # one basis triple: +-1 on its six permutations, exact zeros elsewhere,
    # repeated indices included
    t = size // 2
    basis = unpack_3form(np.eye(size)[t], d)
    i, j, k = np.argwhere(basis > 0)[0]
    assert (i, j, k) == tuple(sorted((i, j, k))) and len({i, j, k}) == 3
    assert np.count_nonzero(basis) == 6 and np.sum(basis) == 0.0
    assert all(basis[a, a, b] == basis[a, b, a] == basis[b, a, a] == 0.0
               for a in range(d) for b in range(d))


@pytest.mark.parametrize("d", DIMS)
def test_packed_wedges_are_the_sorted_entries_of_the_dense_ones(d):
    a = RNG.normal(size=(2, 6, d))
    b = RNG.normal(size=(2, 6, d, d))
    b -= np.swapaxes(b, -1, -2)
    outer = a[..., :, None, None] * b[..., None, :, :]
    assert np.array_equal(shuffle_sum_packed(outer), pack_3form(shuffle_sum(outer, 1, 2)))


@pytest.mark.parametrize("d", DIMS)
def test_packed_d_of_two_forms_is_the_sorted_entries_of_the_dense_one(d):
    # the kernel's second job: d F_a from the gradients dF[..., a, x, i, j]
    G = RNG.normal(size=(2, 3, d, d, d))
    G -= np.swapaxes(G, -1, -2)
    assert np.array_equal(shuffle_sum_packed(G), pack_3form(antisymmetrized_gradient(G, degree=2)))


@pytest.mark.parametrize("d", DIMS)
def test_derivation_is_the_sum_over_slots(d):
    A = RNG.normal(size=(2, d, d))
    psi = random_forms(d, 2)
    dense = sum(j_apply_slot(A, psi, slot) for slot in range(3))
    assert_rel_close(pack_3form(psi)[..., None, :] @ derivation_3form(A),
                     pack_3form(dense)[..., None, :])


# ---------------------------------------------------------------------------
# the maps against the dense kernels
# ---------------------------------------------------------------------------

def _triples(d: int) -> dict:
    """Triples J[..., 3, d, d] in dimension d: the standard one of every zoo
    kind at n = d / 4, an unchecked 5 degree tilt of it, the point-dependent
    rotated triple at two points (n = 2 only) and a random matrix that is no
    complex structure (entries up to about 100)."""
    n = d // 4
    triples = {"standard": build_standard_hypercomplex(n).stack,
               "tilted": rotated_hypercomplex(n, 5.0).stack,
               "random": 30.0 * RNG.normal(size=(3, d, d))}
    if n == 2:
        triples["rotated"] = _rotated_triple(2).matrices(
            np.array([[0.1, -0.2, 0.3, 0.05, -0.1, 0.2, 0.0, 0.15],
                      [-0.25, 0.1, -0.05, 0.2, 0.3, -0.3, 0.1, 0.0]]))
    return triples


@pytest.mark.parametrize("d", DIMS)
def test_packed_maps_match_the_dense_kernels_for_any_triple(d):
    for name, J in _triples(d).items():
        plus, twisted = packed_maps(J)
        assert plus.shape == twisted.shape == J.shape[:-2] + (lambda3(d).size,) * 2, name
        psi = random_forms(d)   # one 3-form per J of the stack
        psi = np.broadcast_to(psi, J.shape[:-2] + psi.shape[-3:])
        projected = project_plus_3form(psi, J)
        packed = pack_3form(psi)[..., None, :]
        assert_rel_close((packed @ plus)[..., 0, :], pack_3form(projected))
        assert_rel_close((packed @ twisted)[..., 0, :], pack_3form(j_apply_form(J, projected)))


def test_packed_projector_is_a_projector_commuting_with_J():
    J = build_standard_hypercomplex(2).stack
    plus, twisted = packed_maps(J)
    assert_rel_close(plus @ plus, plus, 1e-14)
    assert_rel_close(plus @ twisted, twisted, 1e-14)
    assert_rel_close(twisted @ plus, plus @ twisted, 1e-14)


def test_standard_triple_is_one_read_only_constant_per_n():
    for n in (1, 2, 3):
        hyper = build_standard_hypercomplex(n)
        assert build_standard_hypercomplex(n) is hyper
        assert isinstance(hyper, ConstantHypercomplexField)
        for array in (hyper.stack, *hyper.maps):
            assert not array.flags.writeable
        for built, fresh in zip(hyper.maps, packed_maps(hyper.stack)):
            assert np.array_equal(built, fresh)
    assert build_standard_hypercomplex(1) is not build_standard_hypercomplex(2)


# ---------------------------------------------------------------------------
# guards: the dense kernels are reference kernels only, and the packed index
# tables stay behind tensor_core
# ---------------------------------------------------------------------------

DENSE_KERNELS = ("project_plus_3form", "j_apply_form")
# the theta_{a,b} trace table gathers W's entries, not a 3-form's, so it is
# the one reader of the tables outside tensor_core
TABLE_READERS = [("qkt_connection.py", "_cross_trace_table")]


def calls_of(names, source: str, filename: str) -> list:
    """(file, enclosing function or None, line) of every call of one of
    ``names``, by name or attribute; a method is named by itself."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.append((filename, function, child.lineno))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(source, filename), None)
    return found


def library_calls(names, outside: str) -> list:
    """:func:`calls_of` over the modules of ``src/qkt`` other than ``outside``."""
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    return [call for path in files if path.name != outside
            for call in calls_of(names, path.read_text(encoding="utf-8"), path.name)]


def test_guard_detects_a_dense_kernel_call():
    code = ("from qkt import quaternionic\n"
            "a = project_plus_3form(psi, J)\n"
            "b = quaternionic.j_apply_form(J, a)\n"
            "c = j_apply_oneform(J, t)\n")
    assert calls_of(DENSE_KERNELS, code, "probe.py") == [("probe.py", None, 2),
                                                         ("probe.py", None, 3)]


def test_no_context_layer_calls_a_dense_kernel():
    # the kernels stay in qkt.quaternionic as the reference the packed maps
    # are tested against; no other module, the evaluation context included,
    # calls them
    assert library_calls(DENSE_KERNELS, "quaternionic.py") == []


def test_guard_detects_a_private_signed_gather():
    code = ("from qkt.tensor_core import lambda3\n"
            "def _cross_trace_table(d):\n"
            "    return lambda3(d).rest\n"
            "def _cyclic(d):\n"
            "    tables = tensor_core.lambda3(d)\n"
            "    return tables.first * d * d + tables.rest\n"
            "size = lambda3(8).size\n")
    found = calls_of(("lambda3",), code, "qkt_connection.py")
    assert [call for call in found if call[:2] not in TABLE_READERS] == [
        ("qkt_connection.py", "_cyclic", 5), ("qkt_connection.py", None, 7)]


def test_only_the_trace_table_reads_the_index_tables_outside_tensor_core():
    assert [call[:2] for call in library_calls(("lambda3",), "tensor_core.py")] == TABLE_READERS
