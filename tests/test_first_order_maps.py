"""The first-order layer of a constant (g_0, triple) from maps built once.

Over a constant base metric g_0 and a constant triple, the metric f g_0 has
first-order data linear in the 1-jet of f: theta and theta_cross in d ln f,
and d_aF_a^+, the alpha-versions and (J_a df) ^ F_a in df.  A context then
reads each of them as one matmul by the maps of
``qkt_connection._first_order_maps``, which runs the layers' one chain of
array functions at f = 1 and df = e_1 ... e_d, once per (g_0, triple) pair
and process.  The tests compare the mapped layers with that chain on each
context's own arrays, and with the expanded formulas of ``reference.py``,
which share no kernel with the chain; a varying triple keeps the chain.
"""

import numpy as np
import pytest

import qkt.qkt_connection as qkt_connection
import reference
from qkt.conformal import ConformalFactor
from qkt.expressions import parse_expression
from qkt.qkt_connection import (
    QKTContext,
    QKTStructure,
    _compatibility_forms,
    _df_wedges,
    _first_order_maps,
    _lee_parts,
    _torsion_versions,
)
from qkt.quaternionic import build_standard_hypercomplex, rotated_hypercomplex
from qkt.suite import run_suite
from qkt.tensor_core import ConformalMetric, ConstantMetric, CoordinatePatch, FDScheme, unpack_3form
from qkt.zoo import ManifoldSpec, build_structure, sample_points
from test_contracted_layers import X8, _conformal_patch
from test_product_rule import _rotated_triple

LAYERS = ("theta", "theta_cross", "dcF_plus", "_alpha_versions", "df_wedge_F")
SPECS = {
    "conformal-1a": dict(kind="conformal_flat", n=1, f="exp(x1+0.5*x3)"),
    "conformal-1b": dict(kind="conformal_flat", n=1, f="2+sin(3*x1*x2)+x3^2"),
    "conformal-2a": dict(kind="conformal_flat", n=2, f="exp(x1)"),
    "conformal-2b": dict(kind="conformal_flat", n=2, f="2+sin(3*x1*x5)+x3^2"),
    "conformal-3a": dict(kind="conformal_flat", n=3, f="exp(0.5*x1*x2+0.3*x3)"),
    "conformal-3b": dict(kind="conformal_flat", n=3, f="1+x1^2+0.5*cos(x9)"),
    "hopf": dict(kind="hopf_local", n=1),
    "tilted": dict(kind="conformal_flat", n=2, f="exp(x1)", j2_tilt_degrees=5.0),
}
# a hermitian base metric that is not the identity: the standard triple is
# block-diagonal per quadruple, so a scale per quadruple keeps it hermitian
HERMITIAN_G0 = np.diag([1.0, 1.0, 1.0, 1.0, 2.5, 2.5, 2.5, 2.5])


def _structure(name):
    """(unchecked structure, five sample points) of a case of SPECS or "hermitian"."""
    if name == "hermitian":
        spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1+0.3*x6)", point_count=5)
        metric = ConformalMetric(ConformalFactor(parse_expression(spec.f)),
                                 ConstantMetric(HERMITIAN_G0))
        patch = CoordinatePatch(n=2, lo=spec.box()[0], hi=spec.box()[1], metric=metric)
        struct = QKTStructure(patch, build_standard_hypercomplex(2), spec.scheme())
    else:
        spec = ManifoldSpec(**SPECS[name], point_count=5)
        struct = build_structure(spec)
    return struct, np.array(sample_points(spec))


def _chain(ctx):
    """The five layers by the module functions on the context's own arrays."""
    J, struct = ctx.J, ctx.struct
    maps = struct.hyper.maps if struct.constant_layer("J") else qkt_connection.packed_maps(J)
    theta, cross, dcF_plus = _lee_parts(J, ctx.ginv, ctx.gamma_g, ctx.F, ctx._dF(), maps)
    K = _compatibility_forms(J, theta, cross, struct.n)
    return theta, cross, dcF_plus, _torsion_versions(J, ctx.F, K, dcF_plus), \
        _df_wedges(J, ctx.g0, ctx.df)


def _counting_dF(monkeypatch) -> list:
    calls, original = [], QKTContext._dF
    monkeypatch.setattr(QKTContext, "_dF", lambda ctx: calls.append(ctx) or original(ctx))
    return calls


@pytest.mark.parametrize("name", sorted(SPECS) + ["hermitian"])
def test_mapped_layers_equal_the_chain_on_the_context_arrays(name, monkeypatch):
    struct, x = _structure(name)
    assert struct.first_order_maps is not None
    calls = _counting_dF(monkeypatch)
    ctx = struct.at(x)
    mapped = [getattr(ctx, layer) for layer in LAYERS]
    assert calls == []   # the mapped layers build no dF
    for layer, new, old in zip(LAYERS, mapped, _chain(ctx)):
        if struct.n < 2 and layer == "_alpha_versions":
            assert new is None and old is None
            continue
        assert new.shape == old.shape, layer
        assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old)), layer
    assert np.max(np.abs(ctx.theta)) > 0.1
    # and the chain, so the maps, against the expanded formulas, which share no kernel with it
    expanded = reference.expanded_first_order(ctx)
    for new, ref in zip((ctx.theta, ctx.theta_cross, unpack_3form(ctx.dcF_plus, x.shape[-1])),
                        expanded):
        assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_a_varying_triple_runs_the_chain(monkeypatch):
    struct = reference.unchecked(_conformal_patch(), _rotated_triple(2))
    assert struct.first_order_maps is None
    calls = _counting_dF(monkeypatch)
    ctx = struct.at(X8)
    layers = [getattr(ctx, layer) for layer in LAYERS]
    assert len(calls) == 1
    for layer, new, old in zip(LAYERS, layers, _chain(ctx)):
        assert np.array_equal(new, old), layer


def test_two_runs_build_the_maps_once():
    _first_order_maps.cache_clear()
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=2)
    for _ in range(2):
        assert run_suite(spec, "curvature").all_pass
    info = _first_order_maps.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_distinct_tilts_keep_the_cache_within_its_bound():
    # each tilted triple is a new object, with maps of its own
    patch = CoordinatePatch(n=2, lo=-0.4 * np.ones(8), hi=0.4 * np.ones(8),
                            metric=ConstantMetric(np.eye(8)))
    _first_order_maps.cache_clear()
    for tilt in range(1, 21):
        struct = QKTStructure(patch, rotated_hypercomplex(2, float(tilt)), FDScheme())
        assert struct.at(X8).existence.shape == (2,)
    info = _first_order_maps.cache_info()
    assert info.misses == 20 and info.currsize <= info.maxsize < 20


@pytest.mark.parametrize("n", [1, 2])
def test_map_arrays_are_read_only(n):
    struct = build_structure(ManifoldSpec(kind="conformal_flat", n=n, f="exp(x1)"))
    maps = struct.first_order_maps
    assert maps is struct.first_order_maps
    assert (maps[3] is None) == (n == 1)
    for array in maps:
        if array is not None:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
