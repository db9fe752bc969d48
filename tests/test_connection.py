import dataclasses
import functools
import sys

import numpy as np
import pytest

import qkt.tensor_core as tensor_core
from qkt.errors import DegenerateMetricError, DimensionError, NotQKTError
from qkt.conformal import ConformalFactor, conformal_rescale
from qkt.expressions import parse_expression
from qkt.qkt_connection import (
    QKTContext,
    QKTStructure,
    build_qkt,
    c7_residual,
    classify,
    existence_residual,
    nijenhuis_via_connection,
    structure_invariant_residuals,
    torsion_one_form_spread,
    torsion_one_forms,
)
from qkt.quaternionic import (
    CYCLIC,
    HypercomplexField,
    build_standard_hypercomplex,
    j_apply_form,
    j_apply_oneform,
    nijenhuis_bracket,
    project_plus_3form,
    rotated_hypercomplex,
)
from qkt.tensor_core import (
    ConformalMetric,
    ConstantForm,
    ConstantMetric,
    CoordinatePatch,
    FDScheme,
    FormField,
    christoffel,
    levi_civita,
    require_nondegenerate,
    stencil,
    unpack_3form,
    wedge_arrays,
)
from qkt.zoo import ManifoldSpec, build_manifold
from reference import (
    TensorField,
    codifferential,
    compute_K,
    cross_lee_form,
    existence_defect,
    exterior_derivative,
    hodge_star,
    j_at,
    kaehler_field,
    lee_form,
    nabla_array,
    torsion_field,
    unchecked,
    varying_base,
)
from test_product_rule import EXP_X1, _rotated_triple

SCHEME = FDScheme()


def flat_patch(n):
    dim = 4 * n
    eye = np.eye(dim)
    return CoordinatePatch(n=n, lo=-0.6 * np.ones(dim), hi=0.6 * np.ones(dim),
                           metric=ConstantMetric(eye))


FIRST_ORDER = ("theta", "theta_cross", "dcF_plus", "K", "existence")


def t_field(struct):
    """The torsion 1-form of a built structure as a field."""
    return FormField(1, lambda q: struct.at(q).t, nested=True)


def conformal_data(n=2):
    dim = 4 * n
    metric = lambda p: np.exp(p[..., 0, None, None]) * np.eye(dim)
    patch = CoordinatePatch(n=n, lo=-0.6 * np.ones(dim), hi=0.6 * np.ones(dim),
                            metric=metric)
    return unchecked(patch, build_standard_hypercomplex(n))


@pytest.fixture(scope="module")
def conformal_struct():
    data = conformal_data()
    return build_qkt(data.patch, data.hyper, SCHEME)


@pytest.fixture(scope="module")
def flat_struct_n2():
    return build_qkt(flat_patch(2), build_standard_hypercomplex(2), SCHEME)


@pytest.fixture(scope="module")
def sine_dim4():
    t_form = FormField(1, lambda q: np.sin(q[..., 1, None]) * np.eye(4)[0])
    return build_qkt(flat_patch(1), build_standard_hypercomplex(1), SCHEME, t_form)


POINT8 = np.array([0.05, -0.1, 0.2, 0.0, 0.11, -0.02, 0.3, -0.2])
POINT4 = np.array([0.03, -0.12, 0.2, 0.07])
DX1_8 = np.eye(8)[0]


# ---------------------------------------------------------------------------
# K and the existence condition
# ---------------------------------------------------------------------------

def test_compute_K_flat_vanishes(flat_struct_n2):
    for a in range(3):
        assert np.max(np.abs(compute_K(flat_struct_n2, a, np.zeros(8), SCHEME))) <= 1e-12


def test_compute_K_conformal_value():
    data = conformal_data()
    J = data.hyper.matrices(POINT8)
    for a, b, c in CYCLIC:
        got = compute_K(data, a, POINT8, SCHEME)
        expected = -2.0 * j_apply_oneform(J[b], DX1_8)
        assert np.max(np.abs(got - expected)) <= 1e-8


def test_compute_K_scales_with_lee_data():
    # doubling the exponent of the conformal factor doubles d ln f and K
    dim = 8
    one = conformal_data()
    two = unchecked(
        CoordinatePatch(n=2, lo=-0.6 * np.ones(dim), hi=0.6 * np.ones(dim),
                        metric=lambda p: np.exp(2.0 * p[..., 0, None, None]) * np.eye(dim)),
        build_standard_hypercomplex(2))
    k_one = compute_K(one, 0, POINT8, SCHEME)
    k_two = compute_K(two, 0, POINT8, SCHEME)
    assert np.max(np.abs(k_two - 2.0 * k_one)) <= 1e-7


def test_compute_K_rejects_dim4():
    data = unchecked(flat_patch(1), build_standard_hypercomplex(1))
    with pytest.raises(DimensionError):
        compute_K(data, 0, np.zeros(4), SCHEME)


def test_existence_residual_flat_and_conformal():
    assert existence_residual(flat_patch(2), build_standard_hypercomplex(2), np.zeros(8),
                              SCHEME) <= 1e-10
    conformal = conformal_data()
    assert existence_residual(conformal.patch, conformal.hyper, POINT8, SCHEME) <= 1e-5


def test_existence_residual_detects_incompatible_j2():
    patch = conformal_data().patch
    assert existence_residual(patch, rotated_hypercomplex(2, 5.0), POINT8, SCHEME) > 1e-2


@pytest.mark.parametrize("batched", [False, True])
def test_bundle_matches_standalone_formulas_exactly(batched):
    # one stencil of g and F_a feeds Gamma^g and dF_a: the shared gradient must
    # reproduce the separate exterior-derivative path bit for bit, also when the
    # point sits in a batch, and the Lee form, traced from dF and Gamma^g
    # without expanding nabla^g F_a, the codifferential path within rounding
    data = conformal_data()
    ctx = data.at(np.stack([-POINT8, POINT8]) if batched else POINT8)
    J, theta, cross, dcF_plus = (value[1] if batched else value for value in
                                 (ctx.J, ctx.theta, ctx.theta_cross, ctx.dcF_plus))
    # packed by the triple's maps, unpacked: bit-equal to the full-array kernels
    dcF_plus = unpack_3form(dcF_plus, 8)
    for a in range(3):
        dF = exterior_derivative(kaehler_field(data, a), SCHEME)(POINT8)
        assert np.array_equal(dcF_plus[a], j_apply_form(J[a], project_plus_3form(dF, J[a])))
        lee = lee_form(data, a, POINT8, SCHEME)
        assert np.max(np.abs(theta[a] - lee)) <= 1e-12 * np.max(np.abs(lee))
        for b in range(3):
            assert np.array_equal(cross[a, b], cross_lee_form(data, a, b, POINT8, SCHEME))


def test_first_order_layers_exist_for_their_n(conformal_struct, sine_dim4):
    # theta, theta_cross and dcF_plus (packed: C(d, 3) components) for every n;
    # K and the eq4/eq5 defect for n >= 2 only
    shapes = {"theta": (3, 8), "theta_cross": (3, 3, 8), "dcF_plus": (3, 56),
              "K": (3, 8), "existence": ()}
    ctx = conformal_struct.at(POINT8)
    assert {name: np.shape(getattr(ctx, name)) for name in FIRST_ORDER} == shapes
    ctx = sine_dim4.at(POINT4)
    assert [np.shape(getattr(ctx, name)) for name in FIRST_ORDER[:3]] == [
        (3, 4), (3, 3, 4), (3, 4)]
    assert [getattr(ctx, name) for name in FIRST_ORDER[3:]] == [None, None]


@pytest.mark.parametrize("hyper", [build_standard_hypercomplex(2), rotated_hypercomplex(2, 5)],
                         ids=["standard", "tilted"])
def test_existence_is_the_eq4_defect(hyper):
    # the alpha-version disagreement that the existence layer holds is, term
    # by term, the eq4 defect; a diagonal metric that is not conformally flat
    # (nor hermitian) makes the defect large for either triple
    def metric(p):
        diagonal = np.ones(np.shape(p))
        diagonal[..., 0] = np.exp(0.5 * p[..., 0])
        diagonal[..., 5] = 1.0 + 0.3 * np.sin(p[..., 6])
        return diagonal[..., None] * np.eye(8)

    patch = CoordinatePatch(n=2, lo=-0.6 * np.ones(8), hi=0.6 * np.ones(8), metric=metric)
    ctx = unchecked(patch, hyper).at(POINT8)
    reference = existence_defect(ctx)
    assert reference > 0.1
    assert abs(ctx.existence - reference) <= 1e-14 * reference


TORSION_CASES = {
    "flat-2": lambda: build_manifold(ManifoldSpec(kind="flat", n=2)),
    "conformal-2": lambda: build_manifold(ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)")),
    "conformal-3": lambda: build_manifold(
        ManifoldSpec(kind="conformal_flat", n=3, f="exp(x1+0.5*x3)")),
    "tilted": lambda: unchecked(conformal_data().patch, rotated_hypercomplex(2, 5.0)),
    "varying-base": lambda: unchecked(
        CoordinatePatch(n=2, lo=-0.6 * np.ones(8), hi=0.6 * np.ones(8),
                        metric=ConformalMetric(ConformalFactor(lambda p: np.exp(p[..., 0])),
                                               varying_base)),
        build_standard_hypercomplex(2)),
}


@pytest.mark.parametrize("case", sorted(TORSION_CASES))
def test_torsion_is_the_mean_of_the_alpha_versions(case):
    # the alpha-versions are the one torsion formula: T is exactly their
    # unpacked mean, on a triple that misses the existence condition too
    struct = TORSION_CASES[case]()
    dim = struct.patch.dim
    x = np.stack([POINT8, -POINT8, 0.5 * POINT8])[:, np.arange(dim) % 8]
    ctx = struct.at(x)
    mean = unpack_3form(ctx._alpha_versions.sum(axis=-2) / 3.0, dim)
    assert np.array_equal(ctx.T, mean)
    assert (np.max(np.abs(mean)) == 0.0) == (case == "flat-2")


def test_build_checks_all_check_points_in_one_context(monkeypatch):
    # one batched existence defect over the (k, d) check points; the structure
    # keeps none, and has no cache attribute at all
    built = []
    original = QKTContext.existence.func

    def counting(ctx):
        built.append(ctx.x.shape)
        return original(ctx)

    layer = functools.cached_property(counting)
    layer.__set_name__(QKTContext, "existence")
    monkeypatch.setattr(QKTContext, "existence", layer)
    points = [POINT8, -POINT8]
    data = conformal_data()
    struct = build_qkt(data.patch, data.hyper, SCHEME, check_points=points)
    assert built == [(2, 8)]
    assert not hasattr(struct, "caches")
    for p in points:
        assert struct.at(p).existence <= 1e-4
    assert built == [(2, 8), (8,), (8,)]


def test_stencil_contexts_skip_the_eq4_and_eq5_defects(monkeypatch):
    # the torsion of a stencil context never reads the eq4/eq5 defect that only
    # sample-point contexts read.  Over a constant g_0 and triple its
    # alpha-versions are one matmul of df by the structure's first-order maps,
    # so a slice builds no K and no dF; a varying triple's slice reads theta,
    # theta_cross (one layer with dcF_plus, from one dF) and K
    made, built = [], []
    on_stencil, dF = QKTContext._on_stencil, QKTContext._dF
    monkeypatch.setattr(QKTContext, "_on_stencil",
                        lambda ctx, q: made.append(on_stencil(ctx, q)) or made[-1])
    monkeypatch.setattr(QKTContext, "_dF", lambda ctx: built.append(ctx.x.shape) or dF(ctx))
    patch = dataclasses.replace(flat_patch(2),
                                metric=ConformalMetric(EXP_X1, ConstantMetric(np.eye(8))))
    for struct in (build_manifold(ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)",
                                               point_count=1)),
                   unchecked(patch, _rotated_triple(2))):
        made.clear()
        built.clear()
        ctx = struct.at(POINT8)
        ctx.curv
        (sub,) = [sub for sub in made if sub.x.shape == (1, 16, 8)]   # the one step-h2 slice
        assert "T" in vars(sub) and "existence" not in vars(sub)
        if struct.first_order_maps is not None:
            assert "K" not in vars(sub) and built == []
            assert ctx.existence <= 1e-5
        else:
            assert {"_dF_parts", "K"} <= set(vars(sub)) and (1, 16, 8) in built


def count_calls(monkeypatch, original):
    """Wrap ``original`` in every qkt namespace that holds it; returns the call log."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "qkt" or name.startswith("qkt."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_bundle_takes_one_stencil_of_the_three_kaehler_forms(monkeypatch):
    # a fresh point costs one stencil, of the metric: Gamma^g and the three dF_a
    # follow from dg by the product rule, and the constant triple takes none
    calls = count_calls(monkeypatch, tensor_core.gradient)
    ctx = conformal_data().at(POINT8)
    for name in FIRST_ORDER:
        getattr(ctx, name)
    assert len(calls) == 1


def test_sp1_one_solve_and_no_stencil(monkeypatch):
    data = conformal_data()
    varying = HypercomplexField(data.hyper.funcs)
    points = [POINT8, -POINT8]
    structs = [build_qkt(data.patch, hyper, SCHEME, check_points=points)
               for hyper in (data.hyper, varying)]
    contexts = [[struct.at(p) for p in points] for struct in structs]
    for ctx in contexts[0] + contexts[1]:
        ctx.Gamma
    data.hyper.sp1   # the constant triple's maps, built once per triple
    grads = count_calls(monkeypatch, tensor_core.gradient)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: solves.append(a) or solve(*a, **k))
    monkeypatch.setattr(np.linalg, "lstsq", None)
    constant, sampled = ([(ctx.omega, ctx.eq1) for ctx in row] for row in contexts)
    # the standard triple is constant: its derivative is exactly zero, no stencil;
    # the varying triple's dJ was read when Gamma built dF, so the solve takes none
    assert all("dJ" in vars(ctx) for ctx in contexts[1])
    assert len(grads) == 0
    # the constant triple's contexts solve nothing; omega and eq1 of a varying
    # triple's context share one batched solve of the stacked 2x2 normal
    # equations, all three triples
    assert len(solves) == len(points)
    assert all(normal.shape == (3, 2, 2) for normal, _ in solves)
    for (omegas_c, residual_c), (omegas_s, residual_s) in zip(constant, sampled):
        assert np.array_equal(omegas_c, omegas_s)
        assert residual_c == residual_s


def test_gamma_g_checks_f_g0_by_the_least_eigenvalue_of_g0(monkeypatch):
    # over the constant g_0 = 1e-4 I the least eigenvalue of f g_0 is 1e-4 f =
    # 1e-9 + 1e-4 x1^2, below MIN_METRIC_EIGENVALUE = 1e-8 where |x1| < 0.0095
    factor = ConformalFactor(parse_expression("1e-5 + x1^2"))
    metric = ConformalMetric(factor, ConstantMetric(1e-4 * np.eye(4)))
    struct = unchecked(CoordinatePatch(n=1, lo=-0.6 * np.ones(4), hi=0.6 * np.ones(4),
                                       metric=metric), build_standard_hypercomplex(1))
    assert metric.base.lowest == 1e-4

    def contexts(x):
        ctx = struct.at(x)
        return (ctx, *(ctx._on_stencil(stencil(ctx.x, h)) for h in (SCHEME.h, SCHEME.h2)))

    # the sample points, then their stencils at h and h2, fail where the
    # eigensolver finds the first failing point, with its message
    for ctx in contexts(np.array([[0.3, 0.1, 0.0, 0.0], [0.0094, 0.2, 0.0, 0.0],
                                  [0.0, -0.1, 0.0, 0.0]])):
        with pytest.raises(DegenerateMetricError) as want:
            require_nondegenerate(ctx.g, ctx.x)
        with pytest.raises(DegenerateMetricError) as got:
            ctx.gamma_g
        assert str(got.value) == str(want.value)
        assert ctx.x.ndim > 2 or str(got.value).endswith("at [0.0094 0.2    0.     0.    ]")
    # and where f lambda_min >= 1e-8 they pass without an eigensolver
    eigensolves = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: eigensolves.append(a))
    for ctx in contexts(np.array([[0.3, 0.1, 0.0, 0.0], [0.0115, 0.2, 0.0, 0.0],
                                  [-0.2, 0.0, 0.0, 0.0]])):
        assert np.array_equal(ctx.gamma_g, christoffel(ctx.ginv, ctx.dg))
    assert eigensolves == []


def test_point_and_one_point_batch_do_not_share_layers(conformal_struct, sine_dim4):
    # a point (d,) and the batch (1, d) of the same coordinates are two point
    # arrays: every layer of the batch is the point's layer with a leading axis
    T = conformal_struct.at(POINT8).T
    assert T.shape == (8, 8, 8)
    assert conformal_struct.at(POINT8[None]).T.shape == (1, 8, 8, 8)
    names = [name for name, attr in vars(QKTContext).items()
             if isinstance(attr, (functools.cached_property, property))
             and name not in ("base", "nested_layers")]   # a sub-context, the pass's names
    assert {"g", *FIRST_ORDER, "T", "Gamma", "omega", "eq1", "t", "curv", "curv_g", "rho", "dt"} \
        <= set(names)

    def assert_leading_axis(single, batch, name):
        if single is None:
            assert batch is None, name
        elif isinstance(single, tuple):
            for a, b in zip(single, batch):
                assert_leading_axis(a, b, name)
        elif hasattr(single, "R4"):
            assert_leading_axis(single.R4, batch.R4, name)
            assert_leading_axis(single.R13, batch.R13, name)
        else:
            batch = np.asarray(batch)
            assert batch.shape == (1,) + np.shape(single), name
            assert np.array_equal(batch[0], single), name

    for struct, p in ((conformal_struct, POINT8), (sine_dim4, POINT4)):
        single, batch = struct.at(p), struct.at(p[None])
        for name in names:
            assert_leading_axis(getattr(single, name), getattr(batch, name), name)


def test_constant_structure_takes_no_stencil(monkeypatch, flat_struct_n2):
    # constant metric and triple, and the bundle torsion or the dual of a
    # constant 1-form: every derivative is exactly zero without a stencil,
    # equal to what the stencils of the same geometry give
    t_form = ConstantForm(1, np.array([0.5, 0.0, 0.0, 0.0]))
    const_dim4 = build_qkt(flat_patch(1), build_standard_hypercomplex(1), SCHEME, t_form)
    cases = (
        (flat_struct_n2, build_qkt(flat_struct_n2.patch,
                                   HypercomplexField(flat_struct_n2.hyper.funcs), SCHEME),
         POINT8),
        (const_dim4, build_qkt(flat_patch(1), build_standard_hypercomplex(1),
                               SCHEME, FormField(1, t_form.func)), POINT4),
    )
    layers = (*FIRST_ORDER, "curv", "curv_g", "dT", "nabla_T", "dt", "nabla_g_t", "gamma_w")
    for constant, stenciled, p in cases:
        assert constant.constant and not stenciled.constant
        reference = stenciled.at(p)
        for layer in layers:
            getattr(reference, layer)
        with monkeypatch.context() as patch:
            calls = count_calls(patch, tensor_core.gradient)
            ctx = constant.at(p)
            for layer in layers:
                getattr(ctx, layer)
            assert calls == []
        for name in ("theta", "theta_cross", "dcF_plus"):
            assert np.array_equal(getattr(ctx, name), getattr(reference, name))
        for name in ("T", "dT", "nabla_T", "dt", "nabla_g_t", "gamma_w"):
            assert np.array_equal(getattr(ctx, name), getattr(reference, name)), name
        assert np.array_equal(ctx.curv.R4, reference.curv.R4)
        assert np.array_equal(ctx.derivative("omega"), reference.derivative("omega"))


def test_existence_residual_rejects_dim4():
    with pytest.raises(DimensionError):
        existence_residual(flat_patch(1), build_standard_hypercomplex(1), np.zeros(4), SCHEME)


# ---------------------------------------------------------------------------
# the generic build
# ---------------------------------------------------------------------------

def test_flat_build_is_levi_civita(flat_struct_n2):
    struct = flat_struct_n2
    p = np.full(8, 0.1)
    assert np.max(np.abs(struct.at(p).T)) == 0.0
    assert np.max(np.abs(struct.at(p).Gamma)) == 0.0
    ctx = struct.at(p)
    omegas, residual = ctx.omega, ctx.eq1
    assert np.max(np.abs(omegas)) <= 1e-12
    assert residual <= 1e-12


def test_build_rejects_tilted_structure():
    with pytest.raises(NotQKTError) as err:
        build_qkt(conformal_data().patch, rotated_hypercomplex(2, 5.0), SCHEME,
                  check_points=[POINT8])
    assert err.value.residual > 1e-2
    assert err.value.details["eq4"] > 1e-2


def test_unchecked_structure_takes_no_torsion_form_for_n_two():
    # the torsion of n >= 2 follows from (g, Q), so a 1-form has no place there
    with pytest.raises(DimensionError, match="for n = 1 without a base only, not n = 2"):
        QKTStructure(flat_patch(2), build_standard_hypercomplex(2), SCHEME,
                     ConstantForm(1, np.zeros(8)))


def test_no_record_takes_a_torsion_form_beside_its_torsion():
    # a 1-form at n >= 2 or beside a conformal base, by any construction path,
    # would sit beside the torsion that the record already fixes
    flat1 = QKTStructure(flat_patch(1), build_standard_hypercomplex(1), SCHEME)
    flat2 = QKTStructure(flat_patch(2), build_standard_hypercomplex(2), SCHEME)
    with pytest.raises(DimensionError, match="not a structure with a conformal base"):
        QKTStructure(flat1.patch, flat1.hyper, SCHEME, flat1.t_form, base=flat1)
    with pytest.raises(DimensionError, match="not n = 2"):
        dataclasses.replace(flat2, t_form=ConstantForm(1, np.zeros(8)))
    with pytest.raises(DimensionError, match="conformal base"):
        dataclasses.replace(conformal_rescale(flat1, ConformalFactor(lambda p: 2.0)),
                            t_form=flat1.t_form)


def test_n_one_without_a_form_has_the_zero_form():
    hyper = build_standard_hypercomplex(1)
    bare = QKTStructure(flat_patch(1), hyper, SCHEME)
    zero = QKTStructure(flat_patch(1), hyper, SCHEME, ConstantForm(1, np.zeros(4)))
    assert isinstance(bare.t_form, ConstantForm) and bare.constant
    x = np.stack([POINT4, -0.5 * POINT4])
    assert np.array_equal(bare.at(x).T, zero.at(x).T)
    assert not np.any(bare.at(x).T)


def test_a_structure_on_a_varying_base_is_not_constant():
    # at n = 1 the torsion is read off the base, so a varying base makes it vary
    # even on a constant metric
    flat1 = QKTStructure(flat_patch(1), build_standard_hypercomplex(1), SCHEME)
    varying = conformal_rescale(flat1, ConformalFactor(lambda p: np.exp(p[..., 0])))
    on_flat = dataclasses.replace(varying, patch=flat1.patch, base=varying)
    assert flat1.constant and not varying.constant and not on_flat.constant
    assert np.array_equal(on_flat.at(POINT4).T, varying.at(POINT4).T)


def test_build_at_n_one_is_the_checked_dual_torsion_structure():
    # one builder for every n: at n = 1 build_qkt checks the structure whose
    # torsion is the dual of t_form, and changes nothing in it
    data = conformal_data(1)
    t_form = FormField(1, lambda q: np.sin(q[..., 1, None]) * np.eye(4)[0])
    built = build_qkt(data.patch, data.hyper, SCHEME, t_form)
    bare = QKTStructure(data.patch, data.hyper, SCHEME, t_form)
    x = np.stack([POINT4, -0.5 * POINT4])
    for layer in ("T", "Gamma"):
        assert np.array_equal(getattr(built.at(x), layer), getattr(bare.at(x), layer)), layer


def test_conformal_torsion_matches_transport_formula(conformal_struct):
    struct = conformal_struct
    ctx = struct.at(POINT8)
    J = ctx.J
    fval = float(np.exp(POINT8[0]))
    df = fval * DX1_8
    expected = np.zeros((8, 8, 8))
    for a in range(3):
        expected += wedge_arrays(j_apply_oneform(J[a], df), np.eye(8) @ J[a])
    assert np.max(np.abs(ctx.T - expected)) <= 1e-5
    assert ctx.existence <= 1e-5


def test_structure_invariants(conformal_struct):
    inv = structure_invariant_residuals(conformal_struct.at(POINT8))
    assert inv["torsion_skew"] <= 1e-10
    assert inv["metricity"] <= 1e-5
    assert inv["torsion_purity"] <= 1e-5
    assert inv["eq1"] <= 1e-5
    assert inv["quaternionic"] <= 1e-10


def test_torsion_12_raised_consistently(conformal_struct):
    struct = conformal_struct
    T3 = struct.at(POINT8).T
    T12 = struct.at(POINT8).T12
    g = struct.patch.metric_at(POINT8)
    assert np.max(np.abs(np.einsum("kij,km->ijm", T12, g) - T3)) <= 1e-12


def test_torsion_recovered_from_connection_difference(conformal_struct):
    # g(2 (nabla_X - nabla^g_X) Y, Z) reproduces the stored 3-form
    struct = conformal_struct
    gamma = struct.at(POINT8).Gamma
    gamma_g = levi_civita(struct.patch.metric, POINT8, SCHEME)
    g = struct.patch.metric_at(POINT8)
    recovered = 2.0 * np.einsum("lij,lm->ijm", gamma - gamma_g, g)
    assert np.max(np.abs(recovered - struct.at(POINT8).T)) <= 1e-10


def test_dim4_lee_identities_with_nonzero_theta():
    # theta_a = J_b theta_{a,c} = -J_c theta_{a,b} on a dimension-4 model
    # whose Lee forms do not vanish (conformally flat metric)
    dim = 4
    metric = lambda p: np.exp(p[..., 0, None, None]) * np.eye(dim)
    patch = CoordinatePatch(n=1, lo=-0.6 * np.ones(dim), hi=0.6 * np.ones(dim),
                            metric=metric)
    data = unchecked(patch, build_standard_hypercomplex(1))
    p = POINT4
    J = data.hyper.matrices(p)
    for a, b, c in CYCLIC:
        theta = lee_form(data, a, p, SCHEME)
        assert np.max(np.abs(theta)) > 0.5  # genuinely nonzero
        via_c = j_apply_oneform(J[b], cross_lee_form(data, a, c, p, SCHEME))
        via_b = -j_apply_oneform(J[c], cross_lee_form(data, a, b, p, SCHEME))
        assert np.max(np.abs(theta - via_c)) <= 1e-5
        assert np.max(np.abs(theta - via_b)) <= 1e-5


# ---------------------------------------------------------------------------
# dimension 4
# ---------------------------------------------------------------------------

def test_dim4_zero_torsion_is_levi_civita():
    struct = build_qkt(flat_patch(1), build_standard_hypercomplex(1),
                       SCHEME, ConstantForm(1, np.zeros(4)))
    assert np.max(np.abs(struct.at(POINT4).T)) == 0.0
    assert np.max(np.abs(struct.at(POINT4).Gamma)) == 0.0


def test_dim4_constant_torsion_star():
    struct = build_qkt(flat_patch(1), build_standard_hypercomplex(1),
                       SCHEME, ConstantForm(1, np.array([0.5, 0, 0, 0])))
    dx = np.eye(4)
    expected = 0.5 * wedge_arrays(wedge_arrays(dx[1], dx[2]), dx[3])
    assert np.max(np.abs(struct.at(POINT4).T - expected)) <= 1e-14
    # closed torsion
    dT = exterior_derivative(torsion_field(struct), SCHEME)(POINT4)
    assert np.max(np.abs(dT)) <= 1e-12


def test_dim4_recovers_input_one_form(sine_dim4):
    t1, t2, t3, t = torsion_one_forms(sine_dim4, POINT4)
    expected = np.array([np.sin(POINT4[1]), 0.0, 0.0, 0.0])
    assert np.max(np.abs(t - expected)) <= 1e-10
    # each t_a ^ F_a reproduces the torsion
    g = sine_dim4.patch.metric_at(POINT4)
    for a, t_a in enumerate((t1, t2, t3)):
        F = g @ j_at(sine_dim4, a, POINT4)
        assert np.max(np.abs(sine_dim4.at(POINT4).T - wedge_arrays(t_a, F))) <= 1e-10


@pytest.mark.parametrize("nested", [False, True])
def test_dim4_torsion_step_follows_the_one_form(nested):
    # the dual of an analytic 1-form is differenced at h, the dual of a
    # 1-form that is itself finite-differenced (nested=True) at h2
    def t_at(q):
        zero = np.zeros(np.shape(q)[:-1])
        return np.stack([np.sin(q[..., 1]), zero, q[..., 0] * q[..., 2], zero], axis=-1)

    struct = build_qkt(flat_patch(1), build_standard_hypercomplex(1),
                       SCHEME, FormField(1, t_at, nested=nested))
    assert struct.nested_torsion is nested
    at_h, at_h2 = (tensor_core.gradient(lambda q: struct.at(q).T, POINT4, SCHEME, step)
                   for step in (False, True))
    assert not np.array_equal(at_h, at_h2)
    assert np.array_equal(struct.at(POINT4).derivative("T"), at_h2 if nested else at_h)


def test_dim4_requires_n_one():
    with pytest.raises(DimensionError):
        build_qkt(flat_patch(2), build_standard_hypercomplex(2),
                  SCHEME, ConstantForm(1, np.zeros(8)))


def test_dim4_star_dT_equals_minus_delta_t(sine_dim4):
    struct = sine_dim4
    # t = sin(x1) dx1 makes both sides nonzero; rebuild with that form
    t_form = FormField(1, lambda q: np.sin(q[..., 0, None]) * np.eye(4)[0])
    nontrivial = build_qkt(flat_patch(1), build_standard_hypercomplex(1),
                           SCHEME, t_form)
    for built, form in ((struct, t_field(struct)), (nontrivial, t_form)):
        p = POINT4
        dT = exterior_derivative(torsion_field(built), SCHEME)(p)
        star_dT = hodge_star(dT, built.patch.metric_at(p))
        delta_t = codifferential(form, built.patch.metric, p, SCHEME)
        assert abs(float(star_dT) + float(delta_t)) <= 1e-5
    delta = codifferential(t_form, nontrivial.patch.metric, POINT4, SCHEME)
    assert abs(float(delta) + np.cos(POINT4[0])) <= 1e-8  # genuinely nonzero case


# ---------------------------------------------------------------------------
# derived one-forms
# ---------------------------------------------------------------------------

def test_torsion_one_forms_flat(flat_struct_n2):
    t1, t2, t3, t = torsion_one_forms(flat_struct_n2, np.zeros(8))
    for value in (t1, t2, t3, t):
        assert np.max(np.abs(value)) == 0.0


def test_torsion_one_form_conformal_value(conformal_struct):
    *_, t = torsion_one_forms(conformal_struct, POINT8)
    assert np.max(np.abs(t + 5.0 * DX1_8)) <= 1e-5


def test_common_one_form_spread(conformal_struct, sine_dim4):
    assert torsion_one_form_spread(conformal_struct.at(POINT8)) <= 1e-8
    assert torsion_one_form_spread(sine_dim4.at(POINT4)) <= 1e-8


def test_torsion_one_forms_memoized_read_only(conformal_struct):
    # a context computes each layer once and hands it out read-only
    ctx = conformal_struct.at(POINT8)
    first = (ctx.t_alpha, ctx.t_images, ctx.t, ctx.theta)
    again = (ctx.t_alpha, ctx.t_images, ctx.t, ctx.theta)
    assert all(x is y for x, y in zip(first, again))
    for value in first:
        with pytest.raises(ValueError):
            value[0] = 1.0
    with pytest.raises(AttributeError):
        ctx.theta = first[3]
    with pytest.raises(AttributeError):
        ctx.t = first[2]
    values = torsion_one_forms(conformal_struct, POINT8)
    assert all(np.array_equal(x, y) for x, y in zip(values, (*ctx.t_alpha, ctx.t)))


def test_sp1_forms_flat(flat_struct_n2):
    ctx = flat_struct_n2.at(np.zeros(8))
    assert np.max(np.abs(ctx.omega)) <= 1e-12
    assert ctx.eq1 <= 1e-12
    assert c7_residual(ctx) <= 1e-12


def test_sp1_forms_conformal(conformal_struct):
    ctx = conformal_struct.at(POINT8)
    J = conformal_struct.hyper.matrices(POINT8)
    for a in range(3):
        expected = -j_apply_oneform(J[a], DX1_8)
        assert np.max(np.abs(ctx.omega[a] - expected)) <= 1e-5
    assert ctx.eq1 <= 1e-5
    assert c7_residual(ctx) <= 1e-5


def test_c7_residual_absent_in_dim4(sine_dim4):
    assert c7_residual(sine_dim4.at(POINT4)) is None


def test_auxiliary_forms_relations(conformal_struct):
    # A_a = J_b(theta_c - theta_b) and (n-1) J_b C_a = theta_a - J_b theta_{a,c}
    struct = conformal_struct
    A, C = struct.at(POINT8).auxiliary
    ctx = struct.at(POINT8)
    theta, cross, J = ctx.theta, ctx.theta_cross, ctx.J
    for a, b, c in CYCLIC:
        assert np.max(np.abs(
            A[a] - j_apply_oneform(J[b], theta[c] - theta[b]))) <= 1e-5
        lhs = (struct.n - 1.0) * j_apply_oneform(J[b], C[a])
        rhs = theta[a] - j_apply_oneform(J[b], cross[a, c])
        assert np.max(np.abs(lhs - rhs)) <= 1e-5
    assert ctx.K is not None


# ---------------------------------------------------------------------------
# Nijenhuis reconstruction and classification
# ---------------------------------------------------------------------------

def test_nijenhuis_via_connection_flat(flat_struct_n2):
    rebuilt = nijenhuis_via_connection(flat_struct_n2.at(np.zeros(8)))
    assert rebuilt.shape == (3, 8, 8, 8)
    assert np.max(np.abs(rebuilt)) <= 1e-12


def test_nijenhuis_reconstruction_matches_bracket(conformal_struct, sine_dim4):
    for struct, p in ((conformal_struct, POINT8), (sine_dim4, POINT4)):
        rebuilt = nijenhuis_via_connection(struct.at(p))
        ctx = struct.at(np.stack([p, 0.5 * p]))
        batch = nijenhuis_via_connection(ctx)
        for a in range(3):
            bracket = nijenhuis_bracket(ctx.J[0, a], ctx.dJ[0, :, a])
            assert np.max(np.abs(rebuilt[a] - bracket)) <= 1e-5
            assert np.max(np.abs(batch[:, a] - nijenhuis_bracket(
                ctx.J[:, a], ctx.dJ[:, :, a]))) <= 1e-5


def test_classify_flat(flat_struct_n2):
    points = [np.zeros(8), np.full(8, 0.2)]
    record = classify(flat_struct_n2, points)
    assert record.is_hkt and record.is_integrable
    assert record.is_parallel_torsion and record.is_strong
    assert record.dT_type22_residual <= 1e-10


def test_classify_conformal(conformal_struct):
    record = classify(conformal_struct, [POINT8])
    assert record.is_integrable
    assert record.is_hkt is False
    assert record.hkt_residual > 1e-3


def test_classify_dim4_constant_torsion():
    struct = build_qkt(flat_patch(1), build_standard_hypercomplex(1),
                       SCHEME, ConstantForm(1, np.array([0.5, 0, 0, 0])))
    record = classify(struct, [POINT4])
    assert record.is_parallel_torsion and record.is_strong
    assert record.is_hkt is None
    # parallel torsion <=> the 1-form is Levi-Civita parallel (here: constant)
    gamma_g = levi_civita(struct.patch.metric, POINT4, SCHEME)
    nabla_t = nabla_array(gamma_g, TensorField("d", t_field(struct).func, nested=True),
                          POINT4, SCHEME)
    assert np.max(np.abs(nabla_t)) <= 1e-8
