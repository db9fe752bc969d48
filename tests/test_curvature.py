import numpy as np
import pytest

from qkt.conformal import ConformalFactor, conformal_rescale
from qkt.curvature import (
    bianchi_and_symmetry_residuals,
    curvature_tensor,
    dT_trace_equalities,
    dim4_einstein_suite,
    ricci_forms,
    sp1_curvature_residuals,
    trace_identity_residuals,
    weyl_correspondence,
)
from qkt.errors import DimensionError
from qkt.expressions import parse_expression
from qkt.qkt_connection import build_qkt, build_qkt_dim4, classify
from qkt.quaternionic import QuaternionicHermitianData, build_standard_hypercomplex
from qkt.tensor_core import (
    ConstantForm,
    ConstantMetric,
    CoordinatePatch,
    FDScheme,
    FormField,
    gradient,
)
from reference import (
    TensorField,
    connection_field,
    einstein_weyl_deviation,
    levi_civita_field,
    ricci_data,
)

SCHEME = FDScheme()
POINT8 = np.array([0.05, -0.1, 0.2, 0.0, 0.11, -0.02, 0.3, -0.2])
POINT4 = np.array([0.03, -0.12, 0.2, 0.07])


def flat_patch(n):
    dim = 4 * n
    eye = np.eye(dim)
    return CoordinatePatch(n=n, lo=-0.6 * np.ones(dim), hi=0.6 * np.ones(dim),
                           metric=ConstantMetric(eye))


@pytest.fixture(scope="module")
def conformal_struct():
    dim = 8
    metric = lambda p: np.exp(p[..., 0, None, None]) * np.eye(dim)
    patch = CoordinatePatch(n=2, lo=-0.6 * np.ones(dim), hi=0.6 * np.ones(dim),
                            metric=metric)
    return build_qkt(
        QuaternionicHermitianData(patch, build_standard_hypercomplex(2)), SCHEME)


@pytest.fixture(scope="module")
def const_dim4():
    return build_qkt_dim4(flat_patch(1), build_standard_hypercomplex(1),
                          ConstantForm(1, np.array([0.5, 0.0, 0.0, 0.0])), SCHEME)


@pytest.fixture(scope="module")
def sine_dim4():
    t_form = FormField(1, lambda q: np.sin(q[..., 1, None]) * np.eye(4)[0])
    return build_qkt_dim4(flat_patch(1), build_standard_hypercomplex(1),
                          t_form, SCHEME)


# ---------------------------------------------------------------------------
# curvature tensor basics
# ---------------------------------------------------------------------------

def field_curvature(conn, metric, p):
    """The curvature of a connection field from its own stencil."""
    return curvature_tensor(conn(p), gradient(conn.func, p, SCHEME, nested=conn.nested),
                            np.asarray(metric(p), dtype=float))


def test_flat_curvature_vanishes():
    patch = flat_patch(2)
    conn = levi_civita_field(patch, SCHEME)
    curv = field_curvature(conn, patch.metric, np.zeros(8))
    assert np.max(np.abs(curv.R4)) == 0.0


def test_conformal_curvature_against_analytic_connection():
    # for g = exp(x1) * delta the Christoffel symbols are constant, so an
    # exact analytic connection field provides an independent curvature path
    dim = 4
    metric = lambda p: np.exp(p[..., 0, None, None]) * np.eye(dim)
    sigma = np.zeros(dim)
    sigma[0] = 0.5  # gradient of (1/2) x1
    gamma_exact = np.zeros((dim, dim, dim))
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                gamma_exact[k, i, j] = (
                    (k == i) * sigma[j] + (k == j) * sigma[i]
                    - (i == j) * sigma[k]
                )
    exact_conn = TensorField(
        "udd", lambda p: np.broadcast_to(gamma_exact, p.shape[:-1] + gamma_exact.shape))
    p = np.array([0.2, -0.1, 0.3, 0.05])
    analytic = field_curvature(exact_conn, metric, p)
    patch = flat_patch(1)
    patch = CoordinatePatch(n=1, lo=patch.lo, hi=patch.hi, metric=metric)
    fd = field_curvature(levi_civita_field(patch, SCHEME), metric, p)
    assert np.max(np.abs(fd.R4 - analytic.R4)) <= 1e-3
    assert np.max(np.abs(analytic.R4)) > 1e-2  # genuinely curved


def test_pair_antisymmetry(conformal_struct):
    ctx = conformal_struct.at(POINT8)
    first, last = ctx.curv.pair_antisymmetry()
    assert first <= 1e-6
    assert last <= 1e-4


def test_gTT_matches_einsum(conformal_struct):
    ctx = conformal_struct.at(POINT8)
    expected = np.einsum("xym,mk,zuk->xyzu", ctx.T, ctx.ginv, ctx.T)
    assert np.max(np.abs(ctx.gTT - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_structures_freed_without_gc():
    # contexts must not form reference cycles with their structure or their
    # stencil sub-contexts: a cycle keeps every layer alive until a full
    # garbage-collection pass
    import gc
    import weakref
    gc.disable()
    try:
        base = build_qkt_dim4(flat_patch(1), build_standard_hypercomplex(1),
                              ConstantForm(1, np.array([0.5, 0.0, 0.0, 0.0])), SCHEME)
        struct = conformal_rescale(base, ConformalFactor(lambda p: np.exp(p[..., 0])))
        ctx = struct.at(POINT4)
        assert np.isfinite(ctx.omega).all() and np.isfinite(ctx.dt).all()
        assert np.isfinite(ctx.curv.R4).all()
        refs = [weakref.ref(obj) for obj in
                (base, struct, ctx, ctx._stencil_h, ctx._stencil_h2, ctx._stencil_h2._stencil_h)]
        del base, struct, ctx
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_ricci_forms_flat():
    patch = flat_patch(2)
    conn = levi_civita_field(patch, SCHEME)
    curv = field_curvature(conn, patch.metric, np.zeros(8))
    rho = ricci_forms(curv, np.eye(8), build_standard_hypercomplex(2).matrices(np.zeros(8)))
    assert np.max(np.abs(rho)) == 0.0


def test_hkt_flat_has_vanishing_ricci_forms():
    # classification and the sp(1) curvature agree on the flat model
    data = QuaternionicHermitianData(flat_patch(2), build_standard_hypercomplex(2))
    struct = build_qkt(data, SCHEME)
    record = classify(struct, [np.zeros(8)])
    assert record.is_hkt
    ctx = struct.at(np.zeros(8))
    curv = field_curvature(connection_field(struct), struct.data.patch.metric, np.zeros(8))
    rho = ricci_forms(curv, ctx.ginv, ctx.J)
    assert np.array_equal(rho, ctx.rho)
    assert np.max(np.abs(rho)) <= 1e-3


# ---------------------------------------------------------------------------
# identity records
# ---------------------------------------------------------------------------

def test_sp1_curvature_residuals(conformal_struct, const_dim4):
    for struct, p in ((conformal_struct, POINT8), (const_dim4, POINT4)):
        out = sp1_curvature_residuals(struct.at(p))
        assert out["eq11"] <= 1e-3
        assert out["eq12"] <= 1e-3


def test_bianchi_and_symmetry(conformal_struct, const_dim4, sine_dim4):
    for struct, p in ((conformal_struct, POINT8), (const_dim4, POINT4),
                      (sine_dim4, POINT4)):
        out = bianchi_and_symmetry_residuals(struct.at(p))
        for key, value in out.items():
            assert value <= 1e-3, (key, value)


def test_skew_ricci_detects_coclosure(sine_dim4):
    # t = sin(x2) dx1 has delta T != 0, so Ric must fail to be symmetric
    ctx = sine_dim4.at(POINT4)
    skew = 0.5 * np.max(np.abs(ctx.Ric - ctx.Ric.T))
    assert skew > 1e-2
    assert bianchi_and_symmetry_residuals(sine_dim4.at(POINT4))["remark3"] <= 1e-3


def test_trace_identities(conformal_struct, const_dim4):
    out = trace_identity_residuals(conformal_struct.at(POINT8))
    assert out["ti20"] <= 1e-3
    assert out["eq22"] <= 1e-3
    out4 = trace_identity_residuals(const_dim4.at(POINT4))
    assert out4["ti20"] <= 1e-3
    assert "eq22" not in out4


def test_eq27_flat_lambda_zero():
    data = QuaternionicHermitianData(flat_patch(2), build_standard_hypercomplex(2))
    struct = build_qkt(data, SCHEME)
    out = trace_identity_residuals(struct.at(np.zeros(8)))
    assert abs(out["eq27_lambda"]) <= 1e-10
    assert out["eq27_fit"] <= 1e-10


def test_dT_trace_equalities_closed_torsion(const_dim4):
    out = dT_trace_equalities(const_dim4.at(POINT4))
    assert out["eq24"] <= 1e-10
    assert out["eq24_prime"] <= 1e-10


# ---------------------------------------------------------------------------
# dimension-4 Einstein-like identities
# ---------------------------------------------------------------------------

def test_dim4_suite_flat():
    struct = build_qkt_dim4(flat_patch(1), build_standard_hypercomplex(1),
                            ConstantForm(1, np.zeros(4)), SCHEME)
    out = dim4_einstein_suite(struct.at(POINT4))
    for key in ("eq5.67", "eq5.68", "eq5.69",
                "einstein_deviation", "sp1_einstein_deviation"):
        assert out[key] <= 1e-12, key


def test_dim4_suite_torsion_instances(const_dim4, sine_dim4):
    for struct in (const_dim4, sine_dim4):
        out = dim4_einstein_suite(struct.at(POINT4))
        assert out["eq5.67"] <= 1e-3
        assert out["eq5.68"] <= 1e-3
        assert out["eq5.69"] <= 1e-3


def test_dim4_suite_needs_dim4(conformal_struct):
    with pytest.raises(DimensionError):
        dim4_einstein_suite(conformal_struct.at(POINT8))
    with pytest.raises(DimensionError):
        weyl_correspondence(conformal_struct.at(POINT8))


def test_ricci_data_shapes(sine_dim4):
    data = ricci_data(sine_dim4.at(POINT4))
    assert data.rho.shape == (3, 4, 4)
    assert data.K is not None
    assert data.Scal == pytest.approx(
        float(np.trace(np.linalg.inv(sine_dim4.data.metric_at(POINT4)) @ data.Ric)),
        abs=1e-10)


# ---------------------------------------------------------------------------
# Weyl correspondence
# ---------------------------------------------------------------------------

def test_weyl_trivial_for_zero_torsion():
    struct = build_qkt_dim4(flat_patch(1), build_standard_hypercomplex(1),
                            ConstantForm(1, np.zeros(4)), SCHEME)
    ctx = struct.at(POINT4)
    assert np.max(np.abs(ctx.gamma_w - ctx.Gamma)) <= 1e-12
    out = weyl_correspondence(ctx)
    for key in ("qw", "qkw_sym", "wzl1"):
        assert out[key] <= 1e-12, key
    assert einstein_weyl_deviation(ctx) <= 1e-12


def test_weyl_correspondence_torsion_instances(const_dim4, sine_dim4):
    for struct in (const_dim4, sine_dim4):
        out = weyl_correspondence(struct.at(POINT4))
        assert out["qw"] <= 1e-8
        assert out["qkw_sym"] <= 1e-3
        assert out["wzl1"] <= 1e-3


def test_hkt_dim4_is_sp1_einstein():
    # conformally flat R^4 with t = -(common Lee form): the K tensor vanishes
    # and the associated Weyl structure is Einstein-Weyl
    dim = 4
    factor = ConformalFactor(parse_expression("exp(x1)"))
    base = build_qkt_dim4(flat_patch(1), build_standard_hypercomplex(1),
                          ConstantForm(1, np.zeros(4)), SCHEME)
    rescaled = conformal_rescale(base, factor)
    # common Lee form of the rescaled metric is d ln f = dx1
    theta = np.zeros(dim)
    theta[0] = 1.0
    hkt = build_qkt_dim4(rescaled.patch, build_standard_hypercomplex(1),
                         ConstantForm(1, -theta), SCHEME)
    ctx = hkt.at(POINT4)
    K = ctx.P.sum(axis=0)
    assert np.max(np.abs(K)) <= 1e-3
    out = weyl_correspondence(hkt.at(POINT4))
    assert einstein_weyl_deviation(hkt.at(POINT4)) <= 1e-3
    assert out["qkw_sym"] <= 1e-3
