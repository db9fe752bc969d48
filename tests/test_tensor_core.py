import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkt.errors import (
    BoundaryError,
    DegenerateMetricError,
    DegreeError,
    DimensionError,
)
from qkt.tensor_core import (
    ConstantForm,
    ConstantMetric,
    CoordinatePatch,
    FDScheme,
    FormField,
    antisymmetrized_gradient,
    covariant_derivative_array,
    fold,
    gradient,
    hodge_star_array,
    levi_civita,
    partial_derivative,
    validate_metric,
    wedge_arrays,
    worst,
)
from reference import (
    TensorField,
    TensorFieldValue,
    codifferential,
    covariant_derivative,
    exterior_derivative,
    hodge_star,
    hodge_star_4d,
    levi_civita_field,
    nabla_array,
    orthonormal_frame,
    wedge,
)

SCHEME = FDScheme()
RNG = np.random.default_rng(7)


def flat_patch(dim=4):
    # a plain field, so the calculus below differentiates it like any other
    eye = np.eye(dim)
    return CoordinatePatch(n=dim // 4, lo=-np.ones(dim), hi=np.ones(dim),
                           metric=lambda p: np.broadcast_to(eye, np.shape(p)[:-1] + eye.shape))


def dx(i, dim=4):
    out = np.zeros(dim)
    out[i] = 1.0
    return out


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_partial_derivative_quadratic_exact():
    f = lambda p: p[..., 0] ** 2
    value = partial_derivative(f, 0, np.array([1.0, 0, 0, 0]), SCHEME)
    assert abs(value - 2.0) <= 1e-8


def test_partial_derivative_constant():
    f = lambda p: np.full(np.shape(p)[:-1], 3.5)
    assert partial_derivative(f, 2, np.zeros(4), SCHEME) == 0.0


def test_partial_derivative_matches_analytic_exponential():
    f = lambda p: np.exp(p[..., 0])
    value = partial_derivative(f, 0, np.zeros(4), SCHEME)
    assert abs(value - 1.0) <= 1e-8


def test_partial_derivative_is_the_gradient_slice_from_two_points():
    # one field call on the points p +- h e_direction, not on the 2d stencil points
    p = RNG.uniform(-0.5, 0.5, size=(3, 4))
    shapes = []

    def field(q):
        shapes.append(q.shape)
        return np.stack([np.sin(q[..., 0] * q[..., 1]), np.exp(q[..., 2]) * q[..., 3]], axis=-1)

    grad = gradient(field, p, SCHEME)
    for direction in range(4):
        shapes.clear()
        value = partial_derivative(field, direction, p, SCHEME)
        assert shapes == [(3, 2, 4)]
        assert np.max(np.abs(value - grad[:, direction])) <= 1e-15 * np.max(np.abs(grad))


def test_halved_scheme_halves_both_steps_and_stays_checked():
    assert FDScheme(h=1e-4, h2=3e-3).halved() == FDScheme(h=5e-5, h2=1.5e-3)
    # the smallest subnormal step halves to 0, which the positivity check rejects
    with pytest.raises(ValueError):
        FDScheme(h=5e-324, h2=1e-3).halved()
    with pytest.raises(ValueError):
        FDScheme(h=1e-4, h2=5e-324).halved()


def _fold_by_worst(out: dict, values: dict) -> dict:
    """The fold before one-reduction-per-key: every key through ``worst``."""
    for key, value in values.items():
        if value is not None:
            out[key] = worst(out.get(key, 0.0), value)
    return out


RESIDUALS = st.floats(allow_nan=True, allow_infinity=True, width=64)
VALUES = st.one_of(st.none(), RESIDUALS,
                   st.lists(RESIDUALS, min_size=1, max_size=5).map(np.array))


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.dictionaries(st.sampled_from("abc"), VALUES), max_size=6))
@example(steps=[{"a": np.array([1.0, np.nan])}, {"a": 2.0}])
@example(steps=[{"a": -1.0, "b": np.array([-3.0, -2.0])}, {"b": None}])
def test_fold_matches_the_worst_based_fold(steps):
    folded, reference_fold = {}, {}
    for values in steps:
        fold(folded, values)
        _fold_by_worst(reference_fold, values)
    assert folded.keys() == reference_fold.keys()
    for key, value in folded.items():
        assert isinstance(value, float)
        assert value == reference_fold[key] or (np.isnan(value) and np.isnan(reference_fold[key]))


def test_scheme_validation():
    with pytest.raises(ValueError):
        FDScheme(h=-1e-4)


def test_boundary_guard():
    patch = flat_patch()
    with pytest.raises(BoundaryError):
        patch.require_interior(np.array([0.9999, 0, 0, 0]), margin=1e-2)


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def test_d_of_constant_one_form_vanishes():
    d = exterior_derivative(ConstantForm(1, dx(0)), SCHEME)
    assert np.max(np.abs(d(np.zeros(4)))) == 0.0


def test_d_of_x1_dx2():
    omega = FormField(1, lambda p: p[..., 0, None] * np.eye(4)[1])
    d_omega = exterior_derivative(omega, SCHEME)(np.zeros(4))
    expected = wedge_arrays(dx(0), dx(1))
    assert np.max(np.abs(d_omega - expected)) <= 1e-10
    assert d_omega[0, 1] == pytest.approx(1.0, abs=1e-10)


def test_d_squared_is_zero():
    # nested central differences commute exactly, so d(d omega) vanishes
    # to rounding rather than to truncation
    omega = FormField(1, lambda p: np.sin(p[..., 1, None]) * np.eye(4)[0])
    dd = exterior_derivative(exterior_derivative(omega, SCHEME), SCHEME)
    assert np.max(np.abs(dd(np.array([0.1, 0.2, -0.3, 0.05])))) <= 1e-6


def test_exterior_derivative_is_order_two():
    # against the analytic derivative the defect scales like h^2
    omega = FormField(1, lambda p: np.sin(p[..., 1, None]) * np.eye(4)[0])
    p = np.array([0.1, 0.2, -0.3, 0.05])
    analytic = np.zeros((4, 4))
    analytic[1, 0] = np.cos(p[1])
    analytic[0, 1] = -np.cos(p[1])

    def defect(scheme):
        return np.max(np.abs(exterior_derivative(omega, scheme)(p) - analytic))

    coarse = defect(FDScheme(h=1e-3, h2=1e-2))
    fine = defect(FDScheme(h=5e-4, h2=5e-3))
    assert 3.0 <= coarse / fine <= 5.0


def test_degree_overflow():
    top = ConstantForm(4, np.zeros((4, 4, 4, 4)))
    with pytest.raises(DegreeError):
        exterior_derivative(top, SCHEME)(np.zeros(4))


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_convention_anchor():
    assert wedge_arrays(dx(0), dx(1))[0, 1] == 1.0


def test_wedge_one_two_expansion():
    # (a ^ b)(X, Y, Z) = a(X) b(Y,Z) + a(Y) b(Z,X) + a(Z) b(X,Y)
    a = RNG.normal(size=4)
    b = RNG.normal(size=(4, 4))
    b = b - b.T
    w = wedge_arrays(a, b)
    for x, y, z in ((0, 1, 2), (1, 2, 3), (0, 2, 3)):
        expected = a[x] * b[y, z] + a[y] * b[z, x] + a[z] * b[x, y]
        assert w[x, y, z] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
def test_wedge_matches_shuffle_sum(p, q):
    # the cached shuffle table reproduces the moveaxis shuffle sum bit for bit
    import itertools
    from qkt.tensor_core import _perm_sign
    rng = np.random.default_rng(10 * p + q)
    a = rng.normal(size=(4,) * p)
    b = rng.normal(size=(4,) * q)
    outer = np.multiply.outer(a, b)
    total = p + q
    expected = np.zeros(outer.shape)
    for positions in itertools.combinations(range(total), p):
        dest = list(positions) + [ax for ax in range(total) if ax not in positions]
        expected += _perm_sign(dest) * np.moveaxis(outer, range(total), dest)
    assert np.array_equal(wedge_arrays(a, b), expected)


def test_wedge_dx1_with_kaehler_like_form():
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0] = -1.0, 1.0
    F[2, 3], F[3, 2] = -1.0, 1.0
    w = wedge_arrays(dx(0), F)
    assert w[0, 2, 3] == pytest.approx(F[2, 3], abs=1e-14)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(1, 2), st.integers(1, 2))
def test_wedge_graded_symmetry(seed, p, q):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4,) * p)
    b = rng.normal(size=(4,) * q)
    if p == 2:
        a = a - a.transpose(1, 0)
    if q == 2:
        b = b - b.transpose(1, 0)
    left = wedge_arrays(a, b)
    right = ((-1.0) ** (p * q)) * wedge_arrays(b, a)
    assert np.max(np.abs(left - right)) <= 1e-12


def test_wedge_fields_compose():
    a = ConstantForm(1, dx(0))
    b = ConstantForm(2, wedge_arrays(dx(1), dx(2)))
    w = wedge(a, b)
    assert w.degree == 3
    value = w(np.zeros(4))
    assert value[0, 1, 2] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------

def test_star_of_dx1_flat():
    star = hodge_star_array(dx(0), np.eye(4), 1.0)
    expected = wedge_arrays(wedge_arrays(dx(1), dx(2)), dx(3))
    assert np.max(np.abs(star - expected)) <= 1e-14


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_star_square_signs(degree):
    # ** = (-1)^{k(4-k)}: +1 on even degrees, -1 on odd ones
    g = np.eye(4)
    if degree == 0:
        form = np.array(RNG.normal())
    else:
        form = RNG.normal(size=4)
        for _ in range(degree - 1):
            form = wedge_arrays(RNG.normal(size=4), form)
    twice = hodge_star(hodge_star(form, g), g)
    sign = (-1.0) ** (degree * (4 - degree))
    assert np.max(np.abs(twice - sign * form)) <= 1e-12


def test_star_square_identity_on_two_forms():
    g = np.eye(4)
    two = RNG.normal(size=(4, 4))
    two = two - two.T
    twice = hodge_star(hodge_star(two, g), g)
    assert np.max(np.abs(twice - two)) <= 1e-12


def test_star_dimension_guard():
    with pytest.raises(DimensionError):
        hodge_star_array(np.zeros(8), np.eye(8), 1.0)
    patch8 = flat_patch(8)
    with pytest.raises(DimensionError):
        hodge_star_4d(ConstantForm(1, np.zeros(8)), patch8.metric)(np.zeros(8))


def test_star_field_respects_metric_scaling():
    # for g = f * delta in dim 4, the star of a 1-form picks up a factor f
    f = lambda p: np.exp(p[0])
    metric = lambda p: f(p) * np.eye(4)
    omega = ConstantForm(1, dx(0))
    p = np.array([0.3, 0.1, -0.2, 0.0])
    starred = hodge_star_4d(omega, metric)(p)
    flat = hodge_star_array(dx(0), np.eye(4), 1.0)
    assert np.max(np.abs(starred - f(p) * flat)) <= 1e-12


# ---------------------------------------------------------------------------
# codifferential
# ---------------------------------------------------------------------------

def test_codifferential_constant_coefficients():
    patch = flat_patch()
    value = codifferential(ConstantForm(1, dx(0)), patch.metric, np.zeros(4), SCHEME)
    assert abs(float(value)) <= 1e-12


def test_codifferential_linear_coefficient():
    patch = flat_patch()
    omega = FormField(1, lambda p: p[..., 0, None] * np.eye(4)[0])
    value = codifferential(omega, patch.metric, np.full(4, 0.2), SCHEME)
    assert float(value) == pytest.approx(-1.0, abs=1e-9)


def test_codifferential_degree_zero_rejected():
    patch = flat_patch()
    with pytest.raises(DegreeError):
        codifferential(ConstantForm(0, np.array(1.0)), patch.metric, np.zeros(4), SCHEME)


def test_codifferential_equals_minus_star_d_star():
    patch = flat_patch()
    psi = FormField(1, lambda p: np.stack([
        np.sin(p[..., 1]), np.cos(p[..., 2]), p[..., 3] ** 2, p[..., 0] * p[..., 1],
    ], axis=-1))
    p = np.array([0.2, -0.1, 0.3, 0.15])
    delta = codifferential(psi, patch.metric, p, SCHEME)
    starred = hodge_star_4d(psi, patch.metric)
    d_star = exterior_derivative(starred, SCHEME)
    star_d_star = hodge_star_4d(d_star, patch.metric)(p)
    assert abs(float(delta) + float(star_d_star)) <= 1e-6


# ---------------------------------------------------------------------------
# Levi-Civita connection and covariant derivative
# ---------------------------------------------------------------------------

def test_levi_civita_flat_vanishes():
    patch = flat_patch()
    gamma = levi_civita(patch.metric, np.zeros(4), SCHEME)
    assert np.max(np.abs(gamma)) == 0.0


def test_levi_civita_conformal_components():
    # g = exp(2 x1) * identity: Gamma^1_11 = 1, Gamma^1_22 = -1, Gamma^2_12 = 1
    metric = lambda p: np.exp(2 * p[..., 0, None, None]) * np.eye(4)
    gamma = levi_civita(metric, np.array([0.1, 0.0, 0.2, 0.0]), SCHEME)
    assert gamma[0, 0, 0] == pytest.approx(1.0, abs=1e-8)
    assert gamma[0, 1, 1] == pytest.approx(-1.0, abs=1e-8)
    assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-8)


def test_levi_civita_symmetry_random_conformal():
    metric = lambda p: (1.0 + p[..., 0] ** 2 + 0.5 * np.sin(p[..., 2]))[..., None, None] * np.eye(4)
    gamma = levi_civita(metric, np.array([0.3, -0.2, 0.1, 0.4]), SCHEME)
    assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-8


def test_levi_civita_rejects_degenerate_metric():
    metric = lambda p: np.broadcast_to(np.diag([1.0, 1.0, 1.0, 1e-12]), p.shape[:-1] + (4, 4))
    with pytest.raises(DegenerateMetricError):
        levi_civita(metric, np.zeros(4), SCHEME)


def test_metric_compatibility_conformally_flat_r8():
    dim = 8
    metric = lambda p: np.exp(p[..., 0, None, None]) * np.eye(dim)
    patch = CoordinatePatch(n=2, lo=-np.ones(dim), hi=np.ones(dim), metric=metric)
    conn = levi_civita_field(patch, SCHEME)
    p = np.full(dim, 0.1)
    nabla_g = covariant_derivative(conn, TensorField("dd", metric), p, SCHEME)
    assert nabla_g.signature == "ddd"
    assert np.max(np.abs(nabla_g.components)) <= 1e-6


def test_covariant_derivative_constant_vector_flat():
    patch = flat_patch()
    conn = levi_civita_field(patch, SCHEME)
    field = TensorField("u", lambda p: np.broadcast_to([1.0, 2.0, 3.0, 4.0], p.shape))
    value = covariant_derivative(conn, field, np.zeros(4), SCHEME)
    assert np.max(np.abs(value.components)) == 0.0


def test_covariant_derivative_parallel_one_form_flat():
    patch = flat_patch()
    conn = levi_civita_field(patch, SCHEME)
    field = TensorField("d", lambda p: np.broadcast_to(dx(0), p.shape))
    value = covariant_derivative(conn, field, np.zeros(4), SCHEME)
    assert np.max(np.abs(value.components)) == 0.0


def test_covariant_derivative_mixed_tensor_conformal():
    # nabla of the identity endomorphism vanishes for any connection
    metric = lambda p: np.exp(p[..., 0, None, None]) * np.eye(4)
    gamma = levi_civita(metric, np.full(4, 0.2), SCHEME)
    field = TensorField("ud", lambda p: np.broadcast_to(np.eye(4), p.shape[:-1] + (4, 4)))
    value = nabla_array(gamma, field, np.full(4, 0.2), SCHEME)
    assert np.max(np.abs(value)) <= 1e-12


# ---------------------------------------------------------------------------
# orthonormal frame
# ---------------------------------------------------------------------------

def test_frame_flat_is_coordinate_basis():
    frame = orthonormal_frame(np.eye(4))
    assert np.max(np.abs(frame - np.eye(4))) == 0.0


def test_frame_conformal_scaling():
    f = 4.0
    frame = orthonormal_frame(f * np.eye(4))
    assert np.max(np.abs(frame - np.eye(4) / 2.0)) <= 1e-12


def test_frame_random_spd():
    a = RNG.normal(size=(8, 8))
    g = a @ a.T + 0.5 * np.eye(8)
    frame = orthonormal_frame(g)
    gram = frame.T @ g @ frame
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-10


def test_tensor_field_value_rejects_nonfinite():
    with pytest.raises(ValueError):
        TensorFieldValue("d", np.array([1.0, np.nan, 0.0, 0.0]), np.zeros(4))
    with pytest.raises(DimensionError):
        TensorFieldValue("dd", np.zeros(4), np.zeros(4))


def test_patch_validation():
    with pytest.raises(DimensionError):
        CoordinatePatch(n=0, lo=np.zeros(0), hi=np.ones(0), metric=lambda p: None)
    patch = CoordinatePatch(
        n=1, lo=-np.ones(4), hi=np.ones(4),
        metric=lambda p: np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(DegenerateMetricError):
        validate_metric(patch.metric_at(np.zeros(4)), np.zeros(4))


# ---------------------------------------------------------------------------
# the metric inside an evaluation context, and shared stencils
# ---------------------------------------------------------------------------

def _conformal_metric(calls):
    def metric(p):
        p = np.asarray(p, dtype=float)
        calls.append(p.shape)
        calls.extend(row.tobytes() for row in p.reshape(-1, p.shape[-1]))
        return np.exp(p[..., 0] + 0.5 * p[..., 2])[..., None, None] * np.eye(p.shape[-1])

    return metric


def _conformal_struct(calls):
    from qkt.qkt_connection import build_qkt
    from qkt.quaternionic import build_standard_hypercomplex

    patch = CoordinatePatch(n=2, lo=-np.ones(8), hi=np.ones(8), metric=_conformal_metric(calls))
    struct = build_qkt(patch, build_standard_hypercomplex(2), SCHEME)
    calls.clear()
    return struct


P8 = np.array([0.1, -0.2, 0.3, 0.05, 0.2, 0.0, -0.1, 0.15])


def test_memoized_metric_evaluates_each_point_once():
    # a context evaluates the metric once per point set: x, its h-stencil,
    # the h2-stencil of its one stencil slice (a point array with the slice's
    # point axis) and that stencil's h-stencil, and no point twice
    calls = []
    ctx = _conformal_struct(calls).at(P8)
    assert ctx.g is ctx.g
    for layer in ("theta", "theta_cross", "dcF_plus", "K", "existence",
                  "curv", "curv_g", "rho", "nabla_T", "dt", "sp1"):
        getattr(ctx, layer)
    shapes = [call for call in calls if isinstance(call, tuple)]
    rows = [call for call in calls if isinstance(call, bytes)]
    assert sorted(shapes) == [(1, 16, 8), (1, 16, 16, 8), (8,), (16, 8)]
    assert len(rows) == len(set(rows)) == 1 + 16 + 16 + 16 * 16


def test_memoized_metric_matches_plain_field_exactly():
    plain = _conformal_metric([])
    ctx = _conformal_struct([]).at(P8)
    assert np.array_equal(ctx.g, plain(P8))
    assert np.array_equal(ctx.gamma_g, levi_civita(plain, P8, SCHEME))
    assert np.array_equal(ctx.dg, gradient(plain, P8, SCHEME))


def test_memoized_values_are_read_only():
    ctx = _conformal_struct([]).at(P8)
    with pytest.raises(ValueError):
        ctx.g[0, 0] = 2.0
    gamma = ctx.gamma_g
    with pytest.raises(ValueError):
        gamma += 1.0
    with pytest.raises(AttributeError):
        ctx.gamma_g = np.zeros((8, 8, 8))
    assert np.array_equal(gamma, levi_civita(_conformal_metric([]), P8, SCHEME))


def test_shared_gradient_gives_identical_derivatives():
    omega = FormField(2, lambda q: q[..., :, None] * q[..., None, ::-1] - q[..., ::-1, None] * q[..., None, :])
    p = np.array([0.1, -0.2, 0.3, 0.05])
    grad = gradient(omega.func, p, SCHEME)
    assert np.array_equal(antisymmetrized_gradient(grad),
                          exterior_derivative(omega, SCHEME)(p))
    gamma = levi_civita(_conformal_metric([]), p, SCHEME)
    field = TensorField("dd", omega.func)
    before = grad.copy()
    assert np.array_equal(
        covariant_derivative_array(gamma, "dd", omega(p), grad),
        nabla_array(gamma, field, p, SCHEME))
    assert np.array_equal(grad, before)


def test_gradient_of_a_tuple_field_is_the_tuple_of_gradients():
    # one field call on the stencil, each array differenced as alone
    calls = []
    scalar = lambda q: np.sin(q[..., 0]) * q[..., 2]
    form = lambda q: q[..., :, None] * q[..., None, ::-1]

    def both(q):
        calls.append(q.shape)
        return scalar(q), form(q)

    p = np.array([[0.1, -0.2, 0.3, 0.05], [0.2, 0.0, -0.1, 0.3]])
    for nested in (False, True):
        calls.clear()
        grads = gradient(both, p, SCHEME, nested)
        assert calls == [(2, 8, 4)]
        assert isinstance(grads, tuple) and len(grads) == 2
        for grad, alone in zip(grads, (scalar, form)):
            assert np.array_equal(grad, gradient(alone, p, SCHEME, nested))


# ---------------------------------------------------------------------------
# point arrays
# ---------------------------------------------------------------------------

def test_gradient_batch_matches_single_points():
    # one field call on the (..., 2d, d) stencil; the derivative axis follows the point axes
    calls = []
    omega = lambda q: calls.append(q.shape) or np.stack([np.sin(q[..., 1]) * q[..., 0],
                                                         np.exp(q[..., 2])], axis=-1)
    points = RNG.uniform(-0.5, 0.5, size=(2, 3, 4))
    batch = gradient(omega, points, SCHEME)
    assert calls == [(2, 3, 8, 4)] and batch.shape == (2, 3, 4, 2)
    for index in np.ndindex(2, 3):
        assert np.array_equal(batch[index], gradient(omega, points[index], SCHEME))


def test_constant_metric_has_no_stencil():
    metric = ConstantMetric(2.0 * np.eye(4))
    points = np.zeros((5, 4))
    assert metric(points).shape == (5, 4, 4)
    assert np.array_equal(levi_civita(metric, points, SCHEME), np.zeros((5, 4, 4, 4)))
    with pytest.raises(DegenerateMetricError):
        ConstantMetric(np.diag([1.0, 1.0, 1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_metric_is_degenerate(bad):
    # the first offending point of the batch is named, and eigvalsh never sees it
    def metric(p):
        g = np.broadcast_to(np.eye(4), p.shape[:-1] + (4, 4)).copy()
        g[p[..., 0] > 0.25] = bad
        return g

    patch = CoordinatePatch(n=1, lo=-np.ones(4), hi=np.ones(4), metric=metric)
    points = np.array([[0.1, 0, 0, 0], [0.3, 0, 0, 0], [0.5, 0, 0, 0]])
    with pytest.raises(DegenerateMetricError, match=r"not finite at \[0\.3 0\.  0\.  0\. \]"):
        validate_metric(patch.metric_at(points), points)
    with pytest.raises(DegenerateMetricError, match="not finite"):
        levi_civita(metric, np.array([0.3, 0.0, 0.0, 0.0]), SCHEME)
    nan_patch = CoordinatePatch(n=1, lo=-np.ones(4), hi=np.ones(4),
                                metric=lambda p: np.full((4, 4), np.nan))
    with pytest.raises(DegenerateMetricError):
        validate_metric(nan_patch.metric_at(np.zeros(4)), np.zeros(4))
    with pytest.raises(DegenerateMetricError):
        levi_civita(nan_patch.metric, np.zeros(4), SCHEME)
