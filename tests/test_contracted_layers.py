"""The Lee forms and the sp(1) forms, contracted before they are expanded.

A context traces theta_a from dF_a and Gamma^g without building nabla^g F_a,
and solves for the omega_a from normal equations contracted with Gamma,
without building nabla J_a; only eq1 and eq2 expand nabla J_a.  The tests
compare every layer that those cuts touch with the expanded formulas that
``reference.py`` keeps, and guard that no context expands what it only
traces.
"""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest

import qkt.qkt_connection as qkt_connection
import qkt.tensor_core as tensor_core
import reference
from qkt.qkt_connection import QKTContext, point_chunks
from qkt.quaternionic import rotated_hypercomplex
from qkt.suite import run_suite
from qkt.tensor_core import ConformalMetric, ConstantMetric, CoordinatePatch, unpack_3form
from qkt.zoo import ManifoldSpec, build_structure, sample_points
from test_product_rule import EXP_X1, _rotated_triple

ZOO = {
    "flat-1": dict(kind="flat", n=1),
    "flat-2": dict(kind="flat", n=2),
    "conformal-1": dict(kind="conformal_flat", n=1, f="exp(x1+0.5*x3)"),
    "conformal-2": dict(kind="conformal_flat", n=2, f="exp(x1)"),
    "conformal-3": dict(kind="conformal_flat", n=3, f="exp(0.5*x1*x2+0.3*x3)"),
    "dim4": dict(kind="dim4_torsion", n=1, t_components=("sin(x2)", "0", "0.3*x1", "0")),
    "hopf": dict(kind="hopf_local", n=1),
}
SRC = Path(__file__).resolve().parent.parent / "src" / "qkt"
X8 = np.array([[0.1, -0.2, 0.3, 0.05, -0.1, 0.2, 0.0, 0.15],
               [-0.25, 0.1, -0.05, 0.2, 0.3, -0.3, 0.1, 0.0]])


def _conformal_patch():
    return CoordinatePatch(n=2, lo=-0.4 * np.ones(8), hi=0.4 * np.ones(8),
                           metric=ConformalMetric(EXP_X1, ConstantMetric(np.eye(8))))


def _structure(name):
    """(structure, sample points) of a zoo kind, of the rotated (point-dependent)
    triple, or of a 5 degree tilt, both built unchecked on exp(x1) I."""
    if name == "rotated":
        return reference.unchecked(_conformal_patch(), _rotated_triple(2)), X8
    if name == "tilted":
        return reference.unchecked(_conformal_patch(), rotated_hypercomplex(2, 5.0)), X8
    spec = ManifoldSpec(**ZOO[name], point_count=2)
    return build_structure(spec), np.array(sample_points(spec))


def _assert_close(new, ref, scale=None):
    """|new - ref| within 1e-12 of ``scale`` (the largest |ref| by default)."""
    scale = np.max(np.abs(ref)) if scale is None else scale
    assert np.max(np.abs(np.asarray(new) - ref)) <= 1e-12 * scale


CASES = sorted(ZOO) + ["rotated", "tilted"]


@pytest.mark.parametrize("name", CASES)
def test_first_order_layers_match_the_expanded_formulas(name):
    # on the sample points and on a step-h2 stencil of them, as a slice of the
    # pass opens it: theta within rounding, theta_cross and dcF_plus (packed,
    # here unpacked) from the triple's packed maps against the full kernels
    struct, x = _structure(name)
    ctx = struct.at(x)
    for context in (ctx, ctx._on_stencil(ctx.x, struct.scheme.h2)):
        dcF_plus = unpack_3form(context.dcF_plus, context.x.shape[-1])
        for new, ref in zip((context.theta, context.theta_cross, dcF_plus),
                            reference.expanded_first_order(context)):
            _assert_close(new, ref)
    if name in ("conformal-2", "rotated", "tilted"):
        assert np.max(np.abs(ctx.theta)) > 0.1
    if name == "rotated":   # the dJ terms of dF_a and of the sp(1) normal equations
        assert np.max(np.abs(ctx.dJ)) > 0.1


@pytest.mark.parametrize("name", CASES)
def test_sp1_layers_match_the_least_squares_solve_on_nabla_J(name):
    # omega and d omega within rounding of their magnitude, eq1 within rounding
    # of the nabla J_a that it fits
    struct, x = _structure(name)
    ctx = struct.at(x)
    for context in (ctx, ctx._on_stencil(ctx.x, struct.scheme.h2)):
        omega, eq1 = reference.expanded_sp1(context)
        _assert_close(context.omega, omega)
        _assert_close(context.eq1, eq1, max(np.max(eq1), np.max(np.abs(context.nabla_J))))
    _assert_close(ctx.derivative("omega"), reference.expanded_d_omega(ctx))
    if name == "tilted":
        assert np.min(ctx.eq1) > 1e-3
    if name in ("conformal-2", "conformal-3", "hopf", "rotated"):
        assert np.max(np.abs(ctx.omega)) > 0.1
    if name in ("conformal-3", "hopf", "rotated"):   # d omega of exp(x1) is 0 up to O(h^2)
        assert np.max(np.abs(ctx.derivative("omega"))) > 0.05


@pytest.mark.parametrize("name", ["conformal-1", "conformal-2", "conformal-3", "hopf"])
def test_ginv_is_the_inverse_of_g_bitwise_on_the_zoo(name):
    # g_0 = I is inverted once, and inv(f I) == I / f, sign bits included
    struct, x = _structure(name)
    ctx = struct.at(x)
    inverse = np.linalg.inv(ctx.g)
    assert np.array_equal(ctx.ginv, inverse)
    assert np.array_equal(np.signbit(ctx.ginv), np.signbit(inverse))


# ---------------------------------------------------------------------------
# guards: what a context expands
# ---------------------------------------------------------------------------

RUNS = {
    "conf8_curv": (dict(kind="conformal_flat", n=2, f="exp(x1)", point_count=2), "curvature"),
    "conf8_all": (dict(kind="conformal_flat", n=2, f="exp(x1)", point_count=4), "all"),
    "hopf4_all": (dict(kind="hopf_local", n=1, point_count=20), "all"),
}


def _record_covariant_derivatives(monkeypatch):
    """Wrap covariant_derivative_array wherever qkt holds it; returns the
    (signature, connection shape, value shape) of every call."""
    calls, original = [], tensor_core.covariant_derivative_array

    def recording(gamma, signature, value, grad):
        calls.append((signature, np.shape(gamma), np.shape(value)))
        return original(gamma, signature, value, grad)

    for module in (tensor_core, qkt_connection):
        monkeypatch.setattr(module, "covariant_derivative_array", recording)
    return calls


def kaehler_stacks(calls) -> list:
    """The calls whose value is a stack of three 2-forms at the connection's
    points: nabla of the Kaehler forms, expanded."""
    return [(gamma, value) for signature, gamma, value in calls
            if signature == "dd" and value == gamma[:-3] + (3,) + gamma[-1:] * 2]


def test_guard_detects_an_expanded_kaehler_derivative(monkeypatch):
    calls = _record_covariant_derivatives(monkeypatch)
    ctx = _structure("conformal-2")[0].at(X8)
    qkt_connection.covariant_derivative_array(ctx.gamma_g, "dd", ctx.F,
                                              np.swapaxes(ctx._dF(), -4, -3))
    qkt_connection.covariant_derivative_array(ctx.Gamma, "dd", ctx.g, ctx.dg)
    assert kaehler_stacks(calls) == [((2, 8, 8, 8), (2, 3, 8, 8))]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_no_context_expands_nabla_F(monkeypatch, run):
    # the Lee forms are traced: no context, on the sample points or on a
    # stencil, builds nabla^g F_a, and a curvature run expands no nabla J_a
    calls = _record_covariant_derivatives(monkeypatch)
    spec, suite = RUNS[run]
    assert run_suite(ManifoldSpec(**spec), suite).all_pass
    assert calls and kaehler_stacks(calls) == []
    assert suite != "curvature" or all(signature != "ud" for signature, _, _ in calls)


def solve_calls(source: str) -> list:
    """The functions of ``source`` that call a ``solve`` or ``lstsq`` attribute."""
    return [func.name for func in ast.walk(ast.parse(source))
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr in ("solve", "lstsq")]


def test_one_sp1_solve_in_library():
    assert solve_calls("def f(a, b):\n    return np.linalg.solve(a, b)\n") == ["f"]
    found = [(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in solve_calls(path.read_text(encoding="utf-8"))]
    assert found == [("qkt_connection.py", "_sp1_solve")]


def _record_nabla_J(monkeypatch):
    """The contexts that compute nabla_J, in order."""
    computed, original = [], QKTContext.nabla_J.func

    def recording(ctx):
        computed.append(ctx)
        return original(ctx)

    layer = functools.cached_property(recording)
    layer.__set_name__(QKTContext, "nabla_J")
    monkeypatch.setattr(QKTContext, "nabla_J", layer)
    return computed


@pytest.mark.parametrize("spec", [RUNS["conf8_curv"][0], RUNS["hopf4_all"][0]],
                         ids=["conf8", "hopf4"])
def test_a_curvature_run_never_computes_nabla_J(monkeypatch, spec):
    computed = _record_nabla_J(monkeypatch)
    assert run_suite(ManifoldSpec(**spec), "curvature").all_pass
    assert computed == []


STRUCTURAL = {"conf8_connection": (RUNS["conf8_curv"][0], "connection"),
              "conf8_all": RUNS["conf8_all"], "hopf4_all": RUNS["hopf4_all"]}


@pytest.mark.parametrize("run", sorted(STRUCTURAL))
def test_a_structural_run_computes_nabla_J_once_per_chunk_context(monkeypatch, run):
    # eq1 and eq2 read it on each chunk context, and no stencil context builds it
    computed = _record_nabla_J(monkeypatch)
    spec = ManifoldSpec(**STRUCTURAL[run][0])
    assert run_suite(spec, STRUCTURAL[run][1]).all_pass
    assert [ctx.x.shape for ctx in computed] == [
        chunk.shape for chunk in point_chunks(sample_points(spec))]
    assert len({id(ctx) for ctx in computed}) == len(computed)


def test_a_varying_triple_solves_for_omega_on_its_stencils_without_nabla_J(monkeypatch):
    computed = _record_nabla_J(monkeypatch)
    struct, x = _structure("rotated")
    assert "omega" in struct.nested_layers
    struct.at(x).derivative("omega")
    assert computed == []
