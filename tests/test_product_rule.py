"""First derivatives of g and of the Kaehler forms by the product rule.

A context differences only the pointwise layers f, g0 and J, and builds
dg = df (x) g0 + f dg0 and dF_a = (dg) J_a + g dJ_a from them.  On the zoo
(g0 = I and the standard triple, entries 0 and +-1) every product is
exact, so the product rule equals the difference of the products bit for
bit; for a varying triple or base metric the two differ at O(h^2).  A
nested stencil therefore evaluates the conformal factor alone.  For a
constant triple d omega follows from d Gamma; a varying triple differences
omega at step h2.
"""

import numpy as np
import pytest

import reference
from qkt.conformal import ConformalFactor
from qkt.qkt_connection import QKTContext
from qkt.quaternionic import HypercomplexField, build_standard_hypercomplex
from qkt.suite import run_suite
from qkt.tensor_core import ConformalMetric, ConstantMetric, CoordinatePatch
from qkt.zoo import ManifoldSpec, build_manifold, sample_points

ZOO = {
    "flat-1": dict(kind="flat", n=1),
    "flat-2": dict(kind="flat", n=2),
    "conformal-1": dict(kind="conformal_flat", n=1, f="exp(x1+0.5*x3)"),
    "conformal-2": dict(kind="conformal_flat", n=2, f="exp(x1)"),
    "dim4": dict(kind="dim4_torsion", n=1, t_components=("sin(x2)", "0", "0.3*x1", "0")),
    "hopf": dict(kind="hopf_local", n=1),
}
CONFORMAL = ("conformal-1", "conformal-2", "hopf")


def _contexts(struct, x):
    """A context on the points ``x`` and a stencil context on their step-h2
    stencil, as a slice of its step-h2 pass opens it: the points whose own
    stencils are the nested ones."""
    ctx = struct.at(x)
    return ctx, ctx._on_stencil(ctx.x, struct.scheme.h2)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_product_rule_equals_the_difference_of_the_products_on_the_zoo(name):
    spec = ManifoldSpec(**ZOO[name], point_count=3)
    struct = build_manifold(spec)
    for ctx in _contexts(struct, np.array(sample_points(spec))):
        dg, dF = reference.g_and_F_difference(struct, ctx.x)
        assert np.array_equal(ctx.dg, dg)
        assert np.array_equal(ctx._dF(), dF)


def _rotated_triple(n: int) -> HypercomplexField:
    """The standard triple conjugated by a rotation of the (e1, e2) plane whose
    angle varies with the point: a hypercomplex triple that is not constant."""
    stack = build_standard_hypercomplex(n).stack
    dim = 4 * n

    def rotation(p):
        angle = 0.3 * np.sin(p[..., 1]) + 0.2 * p[..., 2] ** 2
        R = np.array(np.broadcast_to(np.eye(dim), np.shape(p)[:-1] + (dim, dim)))
        R[..., 0, 0] = R[..., 1, 1] = np.cos(angle)
        R[..., 0, 1], R[..., 1, 0] = -np.sin(angle), np.sin(angle)
        return R

    return HypercomplexField(tuple(
        lambda p, _m=m: rotation(p) @ _m @ np.swapaxes(rotation(p), -1, -2) for m in stack))


EXP_X1 = ConformalFactor(lambda p: np.exp(p[..., 0]))
VARYING = {
    "varying-triple": (ConstantMetric(np.eye(8)), _rotated_triple(2)),
    "varying-base": (reference.varying_base, build_standard_hypercomplex(2)),
}


@pytest.mark.parametrize("name", sorted(VARYING))
def test_product_rule_matches_the_difference_of_the_products_to_second_order(name):
    base, hyper = VARYING[name]
    patch = CoordinatePatch(n=2, lo=-0.4 * np.ones(8), hi=0.4 * np.ones(8),
                            metric=ConformalMetric(EXP_X1, base))
    struct = reference.unchecked(patch, hyper)
    assert not struct.constant_layer("f")
    assert struct.constant_layer("g0") == (name == "varying-triple")
    assert struct.constant_layer("J") == (name == "varying-base")
    x = np.array([[0.1, -0.2, 0.3, 0.05, -0.1, 0.2, 0.0, 0.15],
                  [-0.25, 0.1, -0.05, 0.2, 0.3, -0.3, 0.1, 0.0]])
    for ctx in _contexts(struct, x):
        dg, dF = reference.g_and_F_difference(struct, ctx.x)
        for new, old in ((ctx.dg, dg), (ctx._dF(), dF)):
            assert np.max(np.abs(new - old)) <= 1e-7 * np.max(np.abs(old))


@pytest.mark.parametrize("name", CONFORMAL)
def test_step_h_stencils_of_the_conformal_kinds_evaluate_f_alone(monkeypatch, name):
    # every step-h stencil context, the nested ones of the step-h2 slices
    # included, holds f and nothing else: no g and no F_a, and no dF either,
    # which would need dg and J there; no stencil context differences a layer
    # at h2
    made = []
    original = QKTContext._on_stencil

    def recording(ctx, points, h):
        sub = original(ctx, points, h)
        made.append((ctx, h, sub))
        return sub

    monkeypatch.setattr(QKTContext, "_on_stencil", recording)
    spec = ManifoldSpec(**ZOO[name], point_count=2)
    run_suite(spec, "all")
    at_h2 = [sub for _, h, sub in made if h == spec.h2]
    at_h = [sub for _, h, sub in made if h == spec.h]
    nested = [sub for ctx, h, sub in made if h == spec.h and any(ctx is s for s in at_h2)]
    assert at_h2 and nested
    for sub in at_h:
        assert set(vars(sub)) - {"struct", "x", "base"} == {"f"}
    assert all("_nested_gradients" not in vars(sub) for _, _, sub in made)


# ---------------------------------------------------------------------------
# d omega: from d Gamma for a constant triple, at step h2 for a varying one
# ---------------------------------------------------------------------------

OMEGA = {
    "conformal-2": dict(kind="conformal_flat", n=2, f="exp(0.5*x1*x2+0.3*x3)"),
    "hopf": dict(kind="hopf_local", n=1),
}


@pytest.mark.parametrize("name", sorted(OMEGA))
def test_d_omega_of_a_constant_triple_is_the_difference_of_omega(name):
    # nabla J_a = [Gamma, J_a] and the solve for the omega_a are linear in
    # Gamma when J is constant: d omega is the solve of [d Gamma, J_a], and no
    # stencil slice solves for omega.  It equals the step-h2 difference of
    # omega up to rounding
    spec = ManifoldSpec(**OMEGA[name], point_count=3)
    struct = build_manifold(spec)
    assert struct.constant_layer("J") and "omega" not in struct.nested_layers
    x = np.array(sample_points(spec))
    ref = reference.nested_difference(struct, x, "omega")
    d_omega = struct.at(x).derivative("omega")
    assert d_omega.shape == ref.shape == (3, spec.dim, 3, spec.dim)
    assert np.max(np.abs(ref)) > 0.05
    assert np.max(np.abs(d_omega - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_a_varying_triple_differences_omega_at_step_h2():
    # a point-dependent triple has dJ != 0 in nabla J_a, so omega stays a
    # step-h2 layer of the pass
    patch = CoordinatePatch(n=2, lo=-0.4 * np.ones(8), hi=0.4 * np.ones(8),
                            metric=ConformalMetric(EXP_X1, ConstantMetric(np.eye(8))))
    struct = reference.unchecked(patch, _rotated_triple(2))
    assert "omega" in struct.nested_layers
    assert "omega" not in reference.unchecked(patch, build_standard_hypercomplex(2)).nested_layers
    x = np.array([[0.1, -0.2, 0.3, 0.05, -0.1, 0.2, 0.0, 0.15],
                  [-0.25, 0.1, -0.05, 0.2, 0.3, -0.3, 0.1, 0.0]])
    ctx = struct.at(x)
    d_omega = ctx.derivative("omega")
    assert "_nested_gradients" in vars(ctx)
    ref = reference.nested_difference(struct, x, "omega")
    assert np.max(np.abs(ref)) > 0.05
    assert np.max(np.abs(d_omega - ref)) <= 1e-9 * np.max(np.abs(ref))
