import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkt.quaternionic import (
    CYCLIC,
    build_standard_hypercomplex,
    dT_type22_residual,
    frame_trace_pair,
    j_apply_form,
    j_apply_oneform,
    j_apply_slot,
    nijenhuis_bracket,
    project_plus_3form,
    quaternionic_residuals,
    rotated_hypercomplex,
    torsion_02_part,
)
from qkt.tensor_core import (
    ConstantForm,
    ConstantMetric,
    CoordinatePatch,
    FDScheme,
    FormField,
    gradient,
    wedge_arrays,
)
from reference import (
    cross_lee_form,
    dc_3form,
    exterior_derivative,
    j_apply_pair,
    j_at,
    project_plus_six_pass,
    kaehler_field,
    kaehler_form,
    lee_form,
    orthonormal_frame,
    torsion_field,
    unchecked,
)

SCHEME = FDScheme()


def metric_and_j(data, p):
    return data.patch.metric_at(p), data.hyper.matrices(p)


def bracket(data, alpha, p):
    """The Nijenhuis tensor of J_alpha from the triple's own stencil."""
    dJ = gradient(data.hyper.matrices, p, SCHEME)
    return nijenhuis_bracket(j_at(data, alpha, p), dJ[:, alpha])


def type22(data, T_field, p):
    """The (2,2)-type defect of d(T) from the torsion field's own stencil."""
    return dT_type22_residual(exterior_derivative(T_field, SCHEME)(p), data.hyper.matrices(p))
RNG = np.random.default_rng(11)


def flat_data(n=1):
    dim = 4 * n
    eye = np.eye(dim)
    patch = CoordinatePatch(n=n, lo=-np.ones(dim), hi=np.ones(dim),
                            metric=ConstantMetric(eye))
    return unchecked(patch, build_standard_hypercomplex(n))


def conformal_data(n=2, growth=1.0):
    dim = 4 * n
    metric = lambda p: np.exp(growth * p[..., 0, None, None]) * np.eye(dim)
    patch = CoordinatePatch(n=n, lo=-np.ones(dim), hi=np.ones(dim), metric=metric)
    return unchecked(patch, build_standard_hypercomplex(n))


# ---------------------------------------------------------------------------
# the hypercomplex triple
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_quaternion_algebra(n):
    data = flat_data(n)
    res = quaternionic_residuals(*metric_and_j(data, np.zeros(4 * n)))
    assert res["square"] <= 1e-15
    assert res["algebra"] <= 1e-15
    J = data.hyper.matrices(np.zeros(4 * n))
    for a, b, _ in CYCLIC:
        assert np.max(np.abs(J[a] @ J[b] + J[b] @ J[a])) <= 1e-15
    assert res["hermitian"] <= 1e-15


def test_constant_triple_shares_one_read_only_stack():
    H = build_standard_hypercomplex(2)
    J = H.matrices(np.zeros(8))
    assert H.matrices(np.ones(8)) is J
    assert np.array_equal(J, np.stack([f(np.zeros(8)) for f in H.funcs]))
    with pytest.raises(ValueError):
        J[0, 0, 0] = 1.0
    # a context differentiates a constant triple to exact zeros, without a stencil,
    # also on a metric that varies
    ctx = unchecked(conformal_data().patch, H).at(np.zeros(8))
    assert np.array_equal(ctx.dJ, np.zeros((8, 3, 8, 8)))
    assert "_stencil_h" not in vars(ctx)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_standard_triple_has_the_bits_of_kron(n):
    # the same products as np.kron(eye(n), block), so -0.0 off the blocks too
    stack = build_standard_hypercomplex(n).stack
    block = build_standard_hypercomplex(1).stack
    kron = np.stack([np.kron(np.eye(n), J) for J in block])
    assert np.array_equal(stack, kron) and np.array_equal(np.signbit(stack), np.signbit(kron))
    assert np.signbit(stack).any()


def test_j3_action_on_first_vector():
    H = build_standard_hypercomplex(1)
    J1, J2, J3 = H.matrices(np.zeros(4))
    e = np.eye(4)
    assert np.allclose(J1 @ J2 @ e[:, 0], J3 @ e[:, 0])
    assert np.allclose(J2 @ J1 @ e[:, 0], -J3 @ e[:, 0])
    # J3 e1 = J1 J2 e1 = J1 e3 = e4
    assert np.allclose(J2 @ e[:, 0], e[:, 2])
    assert np.allclose(J1 @ e[:, 2], e[:, 3])
    assert np.allclose(J3 @ e[:, 0], e[:, 3])


def test_rotated_structure_breaks_algebra():
    tilted = rotated_hypercomplex(2, 5.0)
    data = unchecked(flat_data(2).patch, tilted)
    res = quaternionic_residuals(*metric_and_j(data, np.zeros(8)))
    assert res["algebra"] > 1e-2
    assert res["square"] <= 1e-14  # the tilt keeps J2 an almost complex structure


# ---------------------------------------------------------------------------
# Kaehler forms
# ---------------------------------------------------------------------------

def test_kaehler_form_flat_value():
    data = flat_data(1)
    F1 = kaehler_form(data, 0, np.zeros(4))
    assert F1[0, 1] == pytest.approx(-1.0)
    assert F1[2, 3] == pytest.approx(-1.0)


def test_kaehler_antisymmetry_and_invariance():
    data = conformal_data()
    p = np.full(8, 0.2)
    g = data.patch.metric_at(p)
    for a in range(3):
        F = kaehler_form(data, a, p)
        assert np.max(np.abs(F + F.T)) <= 1e-12
        J = j_at(data, a, p)
        assert np.max(np.abs(J.T @ F @ J - F)) <= 1e-10
        # F(X, Y) = g(X, J Y)
        assert np.max(np.abs(F - g @ J)) == 0.0


# ---------------------------------------------------------------------------
# Lee forms
# ---------------------------------------------------------------------------

def test_lee_form_flat_vanishes():
    data = flat_data(2)
    for a in range(3):
        assert np.max(np.abs(lee_form(data, a, np.zeros(8), SCHEME))) <= 1e-12


def test_lee_form_conformal_value():
    # metric exp(x1) * delta on R^8: theta = (2n-1) d ln f = 3 dx1
    data = conformal_data(2)
    p = np.array([0.05, -0.1, 0.2, 0.0, 0.11, -0.02, 0.3, -0.2])
    expected = np.zeros(8)
    expected[0] = 3.0
    for a in range(3):
        theta = lee_form(data, a, p, SCHEME)
        assert np.max(np.abs(theta - expected)) <= 1e-8


def test_cross_lee_flat_vanishes():
    data = flat_data(2)
    for a in range(3):
        for b in range(3):
            assert np.max(np.abs(cross_lee_form(data, a, b, np.zeros(8), SCHEME))) <= 1e-12


def test_cross_lee_self_is_lee():
    data = conformal_data(2)
    p = np.full(8, 0.1)
    for a in range(3):
        self_trace = cross_lee_form(data, a, a, p, SCHEME)
        assert np.max(np.abs(self_trace - lee_form(data, a, p, SCHEME))) <= 1e-5


def test_cross_lee_antisymmetry_identity():
    # J_b theta_{a,c} = -J_c theta_{a,b}
    data = conformal_data(2)
    p = np.full(8, 0.15)
    J = data.hyper.matrices(p)
    for a, b, c in CYCLIC:
        left = j_apply_oneform(J[b], cross_lee_form(data, a, c, p, SCHEME))
        right = -j_apply_oneform(J[c], cross_lee_form(data, a, b, p, SCHEME))
        assert np.max(np.abs(left - right)) <= 1e-5


def test_cross_lee_analytic_values():
    # for f = exp(x1): theta_{1,3} = -J_2 dx1 and theta_{1,2} = J_3 dx1
    data = conformal_data(2)
    p = np.full(8, 0.07)
    J = data.hyper.matrices(p)
    dx1 = np.zeros(8)
    dx1[0] = 1.0
    got_13 = cross_lee_form(data, 0, 2, p, SCHEME)
    assert np.max(np.abs(got_13 + j_apply_oneform(J[1], dx1))) <= 1e-8
    got_12 = cross_lee_form(data, 0, 1, p, SCHEME)
    assert np.max(np.abs(got_12 - j_apply_oneform(J[2], dx1))) <= 1e-8


# ---------------------------------------------------------------------------
# type projectors
# ---------------------------------------------------------------------------

def random_three_form(rng):
    arr = rng.normal(size=(4, 4, 4))
    out = np.zeros_like(arr)
    import itertools
    from qkt.tensor_core import _perm_sign
    for perm in itertools.permutations(range(3)):
        out += _perm_sign(list(perm)) * np.transpose(arr, perm)
    return out / 6.0


def membership_residual(psi, J):
    """Defect of psi(X,Y,Z) = psi(JX,JY,Z) + psi(JX,Y,JZ) + psi(X,JY,JZ)."""
    s = (np.einsum("ai,bj,abk->ijk", J, J, psi)
         + np.einsum("ai,ck,ajc->ijk", J, J, psi)
         + np.einsum("bj,ck,ibc->ijk", J, J, psi))
    return np.max(np.abs(psi - s))


def test_projector_fixes_pure_forms():
    H = build_standard_hypercomplex(1)
    J1 = H.matrices(np.zeros(4))[0]
    dx1 = np.zeros(4)
    dx1[0] = 1.0
    F1 = np.eye(4) @ J1
    psi = wedge_arrays(dx1, F1)  # a (1,2)+(2,1) form
    assert membership_residual(psi, J1) <= 1e-12
    assert np.max(np.abs(project_plus_3form(psi, J1) - psi)) <= 1e-12


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_projector_idempotent_and_complementary(seed):
    rng = np.random.default_rng(seed)
    psi = random_three_form(rng)
    J1 = build_standard_hypercomplex(1).matrices(np.zeros(4))[0]
    plus = project_plus_3form(psi, J1)
    assert np.max(np.abs(project_plus_3form(plus, J1) - plus)) <= 1e-12
    assert membership_residual(plus, J1) <= 1e-12
    minus = psi - plus
    assert np.max(np.abs(project_plus_3form(minus, J1))) <= 1e-12
    # kernel forms flip sign when two arguments are twisted
    twisted = np.einsum("ai,bj,abk->ijk", J1, J1, minus)
    assert np.max(np.abs(twisted + minus)) <= 1e-12


def test_torsion_02_part_zero_and_oracle():
    J1 = build_standard_hypercomplex(1).matrices(np.zeros(4))[0]
    assert np.max(np.abs(torsion_02_part(np.zeros((4, 4, 4)), J1))) == 0.0
    # brute-force oracle on basis vectors for a random skew (1,2) tensor
    rng = np.random.default_rng(3)
    T = rng.normal(size=(4, 4, 4))
    T = T - T.transpose(0, 2, 1)
    got = torsion_02_part(T, J1)
    eye = np.eye(4)
    for i in range(4):
        for j in range(4):
            # (T(X,Y) - T(JX,JY) + J T(JX,Y) + J T(X,JY)) / 4 on basis vectors
            expected = 0.25 * (
                T[:, i, j]
                - np.einsum("kab,a,b->k", T, J1[:, i], J1[:, j])
                + J1 @ np.einsum("kab,a,b->k", T, J1[:, i], eye[:, j])
                + J1 @ np.einsum("kab,a,b->k", T, eye[:, i], J1[:, j])
            )
            assert np.max(np.abs(got[:, i, j] - expected)) <= 1e-12


def test_02_part_annihilates_its_own_projection():
    # removing the (0,2) part leaves a tensor with vanishing (0,2) part
    rng = np.random.default_rng(5)
    J1 = build_standard_hypercomplex(1).matrices(np.zeros(4))[0]
    T = rng.normal(size=(4, 4, 4))
    T = T - T.transpose(0, 2, 1)
    part = torsion_02_part(T, J1)
    again = torsion_02_part(T - part, J1)
    assert np.max(np.abs(again)) <= 1e-12


# ---------------------------------------------------------------------------
# Nijenhuis tensor and twisted derivative
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_nijenhuis_constant_structures(n):
    data = flat_data(n)
    for a in range(3):
        assert np.max(np.abs(bracket(data, a, np.zeros(4 * n)))) == 0.0


def test_nijenhuis_conformal_still_zero():
    data = conformal_data(2)
    for a in range(3):
        assert np.max(np.abs(bracket(data, a, np.full(8, 0.1)))) == 0.0


def test_dc_3form_flat():
    data = flat_data(2)
    for a in range(3):
        value = dc_3form(data, a, kaehler_field(data, a), np.zeros(8), SCHEME)
        assert np.max(np.abs(value)) <= 1e-12


def test_dc_3form_conformal_matches_wedge_structure():
    # (d_a F_a)^+ = J_a df ^ F_a + f * 0 on the conformally flat model
    data = conformal_data(2)
    p = np.full(8, 0.12)
    J = data.hyper.matrices(p)
    fval = float(np.exp(p[0]))
    df = np.zeros(8)
    df[0] = fval
    base_F = np.eye(8) @ J[0]
    expected = wedge_arrays(j_apply_oneform(J[0], df), base_F)
    twisted = dc_3form(data, 0, kaehler_field(data, 0), p, SCHEME)
    plus = project_plus_3form(twisted, J[0])
    assert np.max(np.abs(plus - expected)) <= 1e-5


def test_dc_3form_linearity():
    data = flat_data(1)
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(4, 4))
    arr = arr - arr.T
    from qkt.tensor_core import FormField
    base = FormField(2, lambda p: np.sin(p[..., 1, None, None]) * arr)
    doubled = FormField(2, lambda p: 2.0 * np.sin(p[..., 1, None, None]) * arr)
    p = np.array([0.1, 0.3, -0.2, 0.0])
    one = dc_3form(data, 1, base, p, SCHEME)
    two = dc_3form(data, 1, doubled, p, SCHEME)
    assert np.max(np.abs(two - 2.0 * one)) <= 1e-12


def test_j_apply_form_matches_oneform_action():
    J1 = build_standard_hypercomplex(1).matrices(np.zeros(4))[0]
    psi = RNG.normal(size=4)
    assert np.allclose(j_apply_form(J1, psi), j_apply_oneform(J1, psi))


def test_trace_is_frame_independent():
    # the e_i / J e_i trace equals an explicit sum over any rotated
    # g-orthonormal frame
    from qkt.quaternionic import frame_trace_pair
    rng = np.random.default_rng(9)
    data = conformal_data(2)
    p = np.full(8, 0.1)
    g = data.patch.metric_at(p)
    J = j_at(data, 0, p)
    arr = rng.normal(size=(8, 8, 8))
    contracted = frame_trace_pair(arr, np.linalg.inv(g), J)
    # rotate the Gram-Schmidt frame by a random g-orthogonal map
    frame = orthonormal_frame(g)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rotated = frame @ q
    explicit = np.zeros(8)
    for i in range(8):
        e = rotated[:, i]
        explicit += np.einsum("xab,a,b->x", arr, e, J @ e)
    assert np.max(np.abs(contracted - explicit)) <= 1e-8


def test_boundary_error_propagates():
    from qkt.errors import BoundaryError
    data = conformal_data(2)
    edge = np.copy(data.patch.hi) - 1e-6
    with pytest.raises(BoundaryError):
        lee_form(data, 0, edge, SCHEME)


def test_dT_type22_residual_zero_cases():
    data = flat_data(1)
    zero = ConstantForm(3, np.zeros((4, 4, 4)))
    assert type22(data, zero, np.zeros(4)) == 0.0
    # closed torsion: T = c dx2^dx3^dx4 has dT = 0
    dx = np.eye(4)
    T = wedge_arrays(wedge_arrays(dx[1], dx[2]), dx[3])
    assert type22(data, ConstantForm(3, 0.7 * T), np.zeros(4)) == 0.0


# ---------------------------------------------------------------------------
# J-twist kernels against the einsum specs they replace
# ---------------------------------------------------------------------------

def assert_rel_close(got, ref, rel=1e-12):
    assert np.shape(got) == np.shape(ref)
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def random_j(d, seed):
    # a generic invertible matrix: the kernels must not rely on J^2 = -1
    return np.random.default_rng(seed).normal(size=(d, d))


@pytest.mark.parametrize("d", [4, 8])
def test_j_apply_form_matches_einsum(d):
    rng = np.random.default_rng(d)
    J = random_j(d, d + 1)
    two = rng.normal(size=(d, d))
    three = rng.normal(size=(d, d, d))
    assert_rel_close(j_apply_form(J, two), np.einsum("ai,bj,ab->ij", J, J, two))
    assert_rel_close(j_apply_form(J, three),
                     -np.einsum("ai,bj,ck,abc->ijk", J, J, J, three))


@pytest.mark.parametrize("d", [4, 8])
def test_j_apply_pair_matches_einsum(d):
    rng = np.random.default_rng(d)
    J = random_j(d, d + 2)
    three = rng.normal(size=(d, d, d))
    four = rng.normal(size=(d, d, d, d))
    cases = [
        (three, (0, 1), False, "ai,bj,abk->ijk"),
        (three, (0, 2), False, "ai,ck,ajc->ijk"),
        (three, (1, 2), False, "bj,ck,ibc->ijk"),
        (three, (0, 1), True, "km,ai,maj->kij"),
        (three, (0, 2), True, "km,bj,mib->kij"),
        (four, (0, 1), False, "ai,bj,abkl->ijkl"),
        (four, (0, 2), False, "ai,ck,ajcl->ijkl"),
        (four, (1, 2), False, "bj,ck,ibcl->ijkl"),
    ]
    for arr, slots, upper, spec in cases:
        assert_rel_close(j_apply_pair(J, arr, slots, upper=upper),
                         np.einsum(spec, J, J, arr))


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_j_apply_slot_matches_einsum(d, lead):
    # J on one slot of a stacked 1-, 2-, 3- or 4-slot array, no sign
    rng = np.random.default_rng(d + len(lead))
    J = np.stack([random_j(d, seed) for seed in range(int(np.prod(lead)))]).reshape(lead + (d, d))
    letters = "abcd"
    for r in range(1, 5):
        arr = rng.normal(size=lead + (d,) * r)
        for slot in range(r):
            inner = letters[:slot] + "m" + letters[slot + 1:r]
            spec = f"...mz,...{inner}->...{letters[:slot]}z{letters[slot + 1:r]}"
            assert_rel_close(j_apply_slot(J, arr, slot), np.einsum(spec, J, arr))


@pytest.mark.parametrize("d", [4, 8])
def test_projectors_match_einsum(d):
    rng = np.random.default_rng(d)
    J = random_j(d, d + 3)
    psi = rng.normal(size=(d, d, d))
    plus = 0.25 * (
        3.0 * psi
        + np.einsum("ai,bj,abk->ijk", J, J, psi)
        + np.einsum("ai,ck,ajc->ijk", J, J, psi)
        + np.einsum("bj,ck,ibc->ijk", J, J, psi)
    )
    assert_rel_close(project_plus_3form(psi, J), plus)
    T = rng.normal(size=(d, d, d))
    part = 0.25 * (
        T
        - np.einsum("kab,ai,bj->kij", T, J, J)
        + np.einsum("km,maj,ai->kij", J, T, J)
        + np.einsum("km,mib,bj->kij", J, T, J)
    )
    assert_rel_close(torsion_02_part(T, J), part)


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_twist_commutes_with_the_projector(d, lead):
    # J on all three slots commutes with J on any two, for any matrix J: the
    # twisted derivatives take one projection of dF, then the twist
    rng = np.random.default_rng(40 + d + len(lead))
    J = rng.normal(size=lead + (d, d))
    psi = rng.normal(size=lead + (d, d, d))
    assert_rel_close(j_apply_form(J, project_plus_3form(psi, J)),
                     project_plus_3form(j_apply_form(J, psi), J), rel=1e-14)


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_four_pass_projector_matches_six_pass_formula(d, lead):
    rng = np.random.default_rng(50 + d + len(lead))
    J = rng.normal(size=lead + (d, d))
    psi = rng.normal(size=lead + (d, d, d))
    assert_rel_close(project_plus_3form(psi, J), project_plus_six_pass(psi, J), rel=1e-14)


@pytest.mark.parametrize("n", [1, 2])
def test_twisted_derivatives_match_einsum(n):
    d = 4 * n
    data = conformal_data(n)
    p = np.full(d, 0.1)
    rng = np.random.default_rng(n)
    base = rng.normal(size=(d, d, d))
    A = sum(s * np.transpose(base, perm) for perm, s in [
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)])
    v = rng.normal(size=d)
    T_field = FormField(3, lambda q: np.exp(q @ v)[..., None, None, None] * A)
    dT = exterior_derivative(T_field, SCHEME)(p)
    worst = 0.0
    for a in range(3):
        J = j_at(data, a, p)
        defect = (dT
                  - np.einsum("ai,bj,abkl->ijkl", J, J, dT)
                  - np.einsum("ai,ck,ajcl->ijkl", J, J, dT)
                  - np.einsum("bj,ck,ibcl->ijkl", J, J, dT))
        worst = max(worst, float(np.max(np.abs(defect))))
    got = type22(data, T_field, p)
    assert worst > 0.0
    assert abs(got - worst) <= 1e-12 * worst
    F = kaehler_field(data, 1)
    dF = exterior_derivative(F, SCHEME)(p)
    J = j_at(data, 2, p)
    assert_rel_close(dc_3form(data, 2, F, p, SCHEME),
                     -np.einsum("ai,bj,ck,abc->ijk", J, J, J, dF))


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
def test_frame_trace_pair_matches_einsum(d, lead):
    rng = np.random.default_rng(d + len(lead))
    arr = rng.normal(size=lead + (d, d))
    root = rng.normal(size=(d, d))
    ginv = np.linalg.inv(root @ root.T + d * np.eye(d))
    J = random_j(d, 7)
    assert_rel_close(frame_trace_pair(arr, ginv, J),
                     np.einsum("...ab,am,bm->...", arr, ginv, J))


# ---------------------------------------------------------------------------
# stacked J kernels: a (3, d, d) J against the per-structure loop
# ---------------------------------------------------------------------------

def assert_stack_matches(stacked, looped, exact):
    looped = np.stack(looped)
    assert stacked.shape == looped.shape
    if exact:
        assert np.array_equal(stacked, looped)
    else:
        assert np.max(np.abs(stacked - looped)) <= 1e-12 * np.max(np.abs(looped))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("tilt", [0.0, 5.0])
def test_stacked_kernels_match_per_structure_loop(n, tilt):
    d = 4 * n
    J = rotated_hypercomplex(n, tilt).matrices(np.zeros(d))
    exact = tilt == 0.0        # signed permutations: every product is exact
    rng = np.random.default_rng(n)
    root = rng.normal(size=(d, d))
    ginv = np.linalg.inv(root @ root.T + d * np.eye(d))
    one, two = rng.normal(size=(3, d)), rng.normal(size=(3, d, d))
    three, four = rng.normal(size=(3, d, d, d)), rng.normal(size=(3, d, d, d, d))
    single = rng.normal(size=(d, d, d))

    assert_stack_matches(j_apply_oneform(J, one),
                         [j_apply_oneform(J[a], one[a]) for a in range(3)], exact)
    for arr in (one, two, three):
        assert_stack_matches(j_apply_form(J, arr),
                             [j_apply_form(J[a], arr[a]) for a in range(3)], exact)
    for arr, slot in [(two, 0), (two, 1), (three, 0), (three, 1), (three, 2), (four, 1),
                      (four, 3)]:
        assert_stack_matches(j_apply_slot(J, arr, slot),
                             [j_apply_slot(J[a], arr[a], slot) for a in range(3)], exact)
    assert_stack_matches(project_plus_3form(three, J),
                         [project_plus_3form(three[a], J[a]) for a in range(3)], exact)
    assert_stack_matches(torsion_02_part(three, J),
                         [torsion_02_part(three[a], J[a]) for a in range(3)], exact)
    assert_stack_matches(frame_trace_pair(three, ginv, J),
                         [frame_trace_pair(three[a], ginv, J[a]) for a in range(3)], exact)
    # one tensor against all three structures, and all nine (a, b) pairs
    assert_stack_matches(frame_trace_pair(single[None], ginv, J),
                         [frame_trace_pair(single, ginv, J[a]) for a in range(3)], exact)
    assert_stack_matches(frame_trace_pair(three[:, None], ginv, J[None]),
                         [[frame_trace_pair(three[a], ginv, J[b]) for b in range(3)]
                          for a in range(3)], exact)
    assert_stack_matches(wedge_arrays(one, two, stack=1),
                         [wedge_arrays(one[a], two[a]) for a in range(3)], True)


def test_dT_type22_residual_takes_precomputed_dT():
    # the context's dT, read off its stencil sub-context, is the standalone d(T)
    from qkt.qkt_connection import build_qkt

    data = conformal_data(1)
    t_form = FormField(1, lambda q: (np.exp(q[..., 0]) * np.sin(q[..., 3]))[..., None]
                       * np.eye(4)[1])
    struct = build_qkt(data.patch, data.hyper, SCHEME, t_form)
    p = np.array([0.1, -0.2, 0.3, 0.05])
    ctx = struct.at(p)
    dT = exterior_derivative(torsion_field(struct), SCHEME)(p)
    assert np.array_equal(ctx.dT, dT)
    assert dT_type22_residual(ctx.dT, ctx.J) == dT_type22_residual(dT, data.hyper.matrices(p))
