"""Sample points in chunks: one context per chunk, one residual per point.

``run_suite`` opens one context per chunk of sample points and reduces the
per-point residuals of every record itself; each context differences its
step-h2 layers in one pass over stencil slices of its points.  The two
lengths only trade memory for speed: these tests pin that the report
depends on neither, that a non-finite residual at any one point, chunk
boundaries included, fails its row, and that the conformal laws share the
base context that the rescaled torsion rule opened.  They pin that a
context differences exactly the step-h2 layers its readers declare and
keeps no stencil of them, and two tests bound the traced peak memory of a
curvature run and of a dimension-4 all-suite run.
"""

import collections
import dataclasses
import gc
import importlib.util
import itertools
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qkt.qkt_connection as qkt_connection
import qkt.suite as suite_module
import reference
from qkt.conformal import ConformalFactor, conformal_rescale
from qkt.errors import NotQKTError
from qkt.qkt_connection import (
    CLASSIFICATION_NESTED,
    QKTContext,
    build_qkt_dim4,
    chunk_length,
    classification_residuals,
    classify,
    point_chunks,
    slice_length,
)
from qkt.quaternionic import build_standard_hypercomplex
from qkt.suite import run_suite
from qkt.tensor_core import ConformalMetric, ConstantForm, ConstantMetric, CoordinatePatch
from qkt.zoo import ManifoldSpec, build_manifold, sample_points

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SUITES = ("all", "connection", "conformal", "curvature", "dim4")
# every kind at n = 1 and n = 2 where it exists; 4 points make one default
# chunk at d = 4 and chunks of 3 and 1 at length 3, 3 points one chunk of 3
# at d = 8
SPECS = {
    "flat-1": dict(kind="flat", n=1, point_count=4),
    "flat-2": dict(kind="flat", n=2, point_count=3),
    "conformal-1": dict(kind="conformal_flat", n=1, f="exp(x1+0.5*x3)", point_count=4),
    "conformal-2": dict(kind="conformal_flat", n=2, f="exp(x1)", point_count=3),
    "dim4": dict(kind="dim4_torsion", n=1, t_components=("sin(x2)", "0", "0.3*x1", "0"),
                 point_count=4),
    "hopf": dict(kind="hopf_local", n=1, point_count=4),
}

# One conformal_flat n = 2 exp(x1) curvature run at 2 points (the conf8_curv
# workload) peaks at 1.32 MB of traced allocations (Python 3.11, numpy 2.4),
# at 1.50 MB with one context per sample point, and did at 2.27 MB when
# every nested stencil point evaluated g and the three F_a; the bound was
# set with under 10 % headroom over 1.50 MB
CURVATURE_PEAK_BYTES_MAX = 1_650_000
# One hopf_local all-suite run at 20 points (the hopf4_all workload) peaks at
# 1.16 MB in one sample context with stencil slices of 7, 7 and 6 points; it
# did at 1.44 MB in two 10-point contexts that each kept their step-h2
# stencil, and at 1.50 MB in slices of 10.  The bound leaves under 10 %
# headroom over 1.16 MB
HOPF_ALL_PEAK_BYTES_MAX = 1_270_000


def test_chunk_length_follows_the_stencil_budget():
    # a sample context takes 16 d^4 elements per point of the budget, and the
    # stencil slices of its step-h2 pass 64 d^4 per point of what its 8 d^4 per
    # point at pass time leave: one 20-point hopf_local context in slices of
    # 7, 7 and 6 points, and two points per context at d = 8 in slices of one
    assert chunk_length(4) == 40
    assert chunk_length(8) == 2
    assert chunk_length(12) == 1
    assert slice_length(4, 20) == 7 and slice_length(4, 1) == 9
    assert slice_length(4, 40) == 5
    assert slice_length(8, 1) == slice_length(8, 2) == slice_length(12, 1) == 1
    points = np.arange(83 * 4, dtype=float).reshape(83, 4)
    chunks = list(point_chunks(points))
    assert [len(chunk) for chunk in chunks] == [40, 40, 3]
    assert np.array_equal(np.concatenate(chunks), points)


def _report(spec: ManifoldSpec, suite: str) -> dict:
    report = run_suite(spec, suite)
    return workloads.summarize(report.to_dict(), 0 if report.all_pass else 1)


def _assert_same(report: dict, reference: dict):
    assert report["rows"] == reference["rows"]
    assert report["pass"] == reference["pass"]
    for row, value, ref in zip(report["rows"], report["residuals"], reference["residuals"]):
        assert workloads._close(value, ref), (row, value, ref)
    assert set(report["diagnostics"]) == set(reference["diagnostics"])
    for key, ref in reference["diagnostics"].items():
        assert workloads._close(report["diagnostics"][key], ref), (key, ref)


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_does_not_depend_on_the_chunk_length(monkeypatch, name, suite):
    # the sample length (points per context) and the slice length (points per
    # stencil slice of a context's step-h2 pass) vary independently over 1, 3
    # and the default; a length of 3 pairs the point axis with the
    # quaternionic axis whenever a record broadcasts one against the other
    spec = ManifoldSpec(seed=3, **SPECS[name])
    default = _report(spec, suite)
    rules = qkt_connection.chunk_length, qkt_connection.slice_length
    for chunk, sliced in itertools.product((1, 3, None), repeat=2):
        if chunk is sliced is None:
            continue
        monkeypatch.setattr(qkt_connection, "chunk_length",
                            rules[0] if chunk is None else lambda dim, _n=chunk: _n)
        monkeypatch.setattr(qkt_connection, "slice_length",
                            rules[1] if sliced is None else lambda dim, points, _n=sliced: _n)
        _assert_same(_report(spec, suite), default)


@pytest.mark.parametrize("name", ["conformal-1", "conformal-2", "hopf"])
def test_tilted_report_does_not_depend_on_the_chunk_length(monkeypatch, name):
    spec = ManifoldSpec(seed=3, j2_tilt_degrees=5.0, **SPECS[name])
    chunked = _report(spec, "all")
    assert not all(chunked["pass"])
    monkeypatch.setattr(qkt_connection, "CHUNK_ELEMENTS", 0)
    _assert_same(_report(spec, "all"), chunked)


def test_classify_matches_per_point_contexts(monkeypatch):
    struct = build_manifold(ManifoldSpec(kind="hopf_local", n=1, seed=2, point_count=5))
    points = sample_points(ManifoldSpec(kind="hopf_local", n=1, seed=2, point_count=5))
    chunked = classify(struct, points)
    monkeypatch.setattr(qkt_connection, "CHUNK_ELEMENTS", 0)
    for field in dataclasses.fields(chunked):
        value, single = getattr(chunked, field.name), getattr(classify(struct, points), field.name)
        if isinstance(value, float):
            assert value == pytest.approx(single, rel=1e-9, abs=1e-12), field.name
        else:
            assert value == single, field.name


def _poisoned(struct, target: np.ndarray):
    """``struct`` with a NaN torsion at the point ``target`` and nowhere else."""
    rule = struct.torsion_rule

    def torsion(ctx):
        T = np.array(rule(ctx))
        T[np.all(ctx.x == target, axis=-1)] = np.nan
        return T

    return dataclasses.replace(struct, torsion_rule=torsion)


@settings(max_examples=8, deadline=None)
@given(count=st.integers(1, 23), index=st.integers(0, 22), length=st.integers(1, 11))
@example(count=21, index=9, length=10)       # the last point of the first chunk
@example(count=21, index=10, length=10)      # the first point of the second chunk
@example(count=21, index=20, length=10)      # the lone point of the last chunk
def test_nan_at_one_sample_point_fails_its_rows(count, index, length):
    index %= count
    spec = ManifoldSpec(kind="flat", n=1, point_count=count, seed=1)
    target = sample_points(spec)[index]
    build = suite_module.build_manifold
    chunk_rule = qkt_connection.chunk_length
    try:
        suite_module.build_manifold = lambda *a, **k: _poisoned(build(*a, **k), target)
        qkt_connection.chunk_length = lambda dim: length
        rows = {row.identity_id: row for row in run_suite(spec, "connection").results}
    finally:
        suite_module.build_manifold = build
        qkt_connection.chunk_length = chunk_rule
    # the rows that read T at the sample point itself
    for name in ("torsion_skew_symmetry", "torsion_type_purity", "torsion_is_star_of_t"):
        assert not rows[name].passed and np.isnan(rows[name].max_residual), name


def test_conformal_laws_share_the_rescaled_base_context(monkeypatch):
    # the flat base is constant: the run opens one context of it, at one
    # point, and the sample context and every stencil context reads that one,
    # for the conformal laws and for the rescaled torsion rule alike.
    # Before, each chunk opened one base context at its sample points and one
    # on their h2 stencil, where the torsion is differenced
    built = []
    build = suite_module.build_manifold
    monkeypatch.setattr(suite_module, "build_manifold",
                        lambda *args, **kwargs: built.append(build(*args, **kwargs)) or built[-1])
    opened = []
    init = QKTContext.__init__

    def recording(ctx, struct, x, base=None, nested=None):
        if built:
            opened.append((struct, np.shape(x), base, ctx))
        init(ctx, struct, x, base, nested)

    monkeypatch.setattr(QKTContext, "__init__", recording)
    spec = ManifoldSpec(kind="hopf_local", n=1, point_count=20, seed=5)
    assert run_suite(spec, "all").all_pass
    (struct,) = built
    (base,) = [ctx for owner, _, _, ctx in opened if owner is struct.base]
    assert base.x.shape == (4,)
    shapes = collections.Counter(shape for owner, shape, _, _ in opened if owner is struct)
    # one context of the 20 sample points with its step-h stencil, and the
    # stencil slices of its step-h2 pass (7, 7 and 6 points), each with its
    # own step-h stencil
    assert shapes == {(20, 4): 1, (20, 8, 4): 1, (7, 8, 4): 2, (6, 8, 4): 1,
                      (7, 8, 8, 4): 2, (6, 8, 8, 4): 1}
    assert all(owner is struct.base or shared is base for owner, _, shared, _ in opened)


def test_dim4_build_error_reports_the_worst_quaternionic_residual(monkeypatch):
    # the standard triple is algebraic but not hermitian for diag(1, 2, 1, 1)
    lo, hi = -0.4 * np.ones(4), 0.4 * np.ones(4)
    patch = CoordinatePatch(n=1, lo=lo, hi=hi, metric=ConstantMetric(np.diag([1.0, 2.0, 1.0, 1.0])))
    with pytest.raises(NotQKTError) as err:
        build_qkt_dim4(patch, build_standard_hypercomplex(1), ConstantForm(1, np.zeros(4)),
                       ManifoldSpec(kind="flat", n=1).scheme())
    assert err.value.details["algebra"] == pytest.approx(1.0)
    assert "1.000e+00" in str(err.value)

    def build(spec, check_points=None):
        return build_qkt_dim4(patch, build_standard_hypercomplex(1),
                              ConstantForm(1, np.zeros(4)), spec.scheme())

    monkeypatch.setattr(suite_module, "build_manifold", build)
    report = run_suite(ManifoldSpec(kind="flat", n=1, point_count=4), "all")
    (row,) = report.results
    assert row.identity_id == "quaternionic_identities"
    assert row.max_residual == pytest.approx(1.0) and not row.passed
    assert "build_error" in report.meta


def _traced_peak(spec: ManifoldSpec, suite: str) -> int:
    run_suite(spec, suite)   # fill the expression and shuffle caches first
    gc.collect()
    tracemalloc.start()
    try:
        run_suite(spec, suite)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_curvature_run_peak_memory():
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=2)
    assert _traced_peak(spec, "curvature") <= CURVATURE_PEAK_BYTES_MAX


def test_hopf_all_run_peak_memory():
    spec = ManifoldSpec(kind="hopf_local", n=1, point_count=20)
    assert _traced_peak(spec, "all") <= HOPF_ALL_PEAK_BYTES_MAX


# ---------------------------------------------------------------------------
# the step-h2 pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SPECS))
def test_no_context_keeps_a_step_h2_stencil(monkeypatch, name):
    # each stencil slice of a context's step-h2 pass is dropped before the
    # next, and no reference cycle keeps one alive: after run_suite, with every
    # context the run opened through QKTStructure.at still held, no step-h2
    # stencil context is (its d_aF_a^+ and nabla J_a went with it)
    spec = ManifoldSpec(seed=3, **SPECS[name])
    opened, stencils = [], []
    at, on_stencil = qkt_connection.QKTStructure.at, QKTContext._on_stencil
    monkeypatch.setattr(qkt_connection.QKTStructure, "at",
                        lambda *args, **kwargs: opened.append(at(*args, **kwargs)) or opened[-1])

    def recording(ctx, points, h):
        sub = on_stencil(ctx, points, h)
        if h == spec.h2:
            stencils.append(weakref.ref(sub))
        return sub

    monkeypatch.setattr(QKTContext, "_on_stencil", recording)
    gc.disable()
    try:
        run_suite(spec, "all")
        assert opened
        assert [ref() for ref in stencils] == [None] * len(stencils)
    finally:
        gc.enable()
    assert bool(stencils) == (name not in ("flat-1", "flat-2"))
    for ctx in opened:
        held = {key for key, value in vars(ctx).items() if isinstance(value, QKTContext)}
        assert held <= {"base", "_stencil_h"}, held


def _assert_each_reader_requests_what_it_declares(monkeypatch, struct, points, readers):
    # each reader, run alone on one context opened with its declared layers,
    # requests every step-h2 layer the context differences and no other; a
    # base context's pass runs on its first step-h2 read, and then it
    # differences exactly the layers read of it
    requested = []
    derivative = QKTContext.derivative
    monkeypatch.setattr(QKTContext, "derivative",
                        lambda ctx, layer: requested.append((ctx, layer)) or derivative(ctx, layer))

    def read(owner):
        return {layer for who, layer in requested if who is owner} & set(
            owner.struct.nested_layers())

    for name, (reader, declared) in readers.items():
        ctx = struct.at(points, nested=declared)
        requested.clear()
        with np.errstate(all="ignore"):
            reader(ctx)
        assert read(ctx) == set(ctx.nested), name
        base = vars(ctx).get("base")
        if base is not None:
            ran = "_nested_gradients" in vars(base)
            assert read(base) == (set(base.nested) if ran else set()), name


@pytest.mark.parametrize("name", sorted(SPECS))
def test_each_group_declares_the_nested_layers_its_records_read(monkeypatch, name):
    # each group's records and the diagnostics
    spec = ManifoldSpec(seed=3, **SPECS[name])
    struct = build_manifold(spec)
    readers = {group: (suite_module._GROUP_EVALUATORS[group],
                       suite_module._nested_layers([group], struct.n))
               for group in suite_module._GROUP_EVALUATORS
               if suite_module._GROUP_APPLIES.get(group, lambda *_: True)(spec, struct)}
    readers["diagnostics"] = (classification_residuals, CLASSIFICATION_NESTED)
    _assert_each_reader_requests_what_it_declares(
        monkeypatch, struct, np.array(sample_points(spec)), readers)


def test_a_varying_base_differences_what_the_conformal_laws_read(monkeypatch):
    # the zoo's conformal kinds rescale the constant flat base; over a base
    # that is not constant, the base context differences at h2 only what its
    # readers take of it (the conformal laws' dt), alone and in the union of
    # every group that the all suite opens
    patch = CoordinatePatch(n=2, lo=-0.6 * np.ones(8), hi=0.6 * np.ones(8),
                            metric=ConformalMetric(ConformalFactor(lambda p: np.exp(p[..., 0])),
                                                   reference.varying_base))
    struct = conformal_rescale(reference.unchecked(patch, build_standard_hypercomplex(2)),
                               ConformalFactor(lambda p: np.exp(0.5 * p[..., 2])))
    groups = [group for group in suite_module._GROUP_EVALUATORS if group != "dim4"]
    readers = {group: (suite_module._GROUP_EVALUATORS[group],
                       suite_module._nested_layers([group], struct.n)) for group in groups}
    readers["all"] = (lambda ctx: [suite_module._GROUP_EVALUATORS[group](ctx) for group in groups],
                      suite_module._nested_layers(groups, struct.n))
    points = np.array([[0.05, -0.1, 0.2, 0.0, 0.11, -0.02, 0.3, -0.2],
                       [-0.2, 0.15, -0.1, 0.25, 0.0, 0.1, -0.3, 0.05]])
    _assert_each_reader_requests_what_it_declares(monkeypatch, struct, points, readers)
    assert set(struct.at(points, nested=readers["all"][1]).base.nested) == {"t"}


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_each_suite_differences_the_nested_layers_it_reads(monkeypatch, name, suite):
    # the same, recorded while each suite runs alone: every sample context of
    # the run requests each step-h2 layer it differences
    spec = ManifoldSpec(seed=3, **SPECS[name])
    samples, requested = [], collections.defaultdict(set)
    at, derivative = qkt_connection.QKTStructure.at, QKTContext.derivative

    def opening(struct, x, base=None, nested=None):
        ctx = at(struct, x, base, nested)
        if nested is not None and ctx.x.ndim == 2:
            samples.append(ctx)
        return ctx

    monkeypatch.setattr(qkt_connection.QKTStructure, "at", opening)
    monkeypatch.setattr(QKTContext, "derivative",
                        lambda ctx, layer: requested[id(ctx)].add(layer) or derivative(ctx, layer))
    run_suite(spec, suite)
    assert samples
    for ctx in samples:
        assert requested[id(ctx)] & set(ctx.struct.nested_layers()) == set(ctx.nested)


def test_an_undeclared_nested_layer_raises(monkeypatch):
    # a request outside a context's step-h2 layers is an error, never a
    # stencil of its own
    monkeypatch.setitem(suite_module._GROUP_NESTED, "curvature", ("T", "Gamma", "gamma_g"))
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=2)
    with pytest.raises(LookupError, match="'omega'"):
        run_suite(spec, "curvature")
    struct = build_manifold(spec)
    x = np.array(sample_points(spec))
    with pytest.raises(LookupError, match="'T'"):
        struct.at(x, nested=()).derivative("T")
    with pytest.raises(ValueError, match="theta"):
        struct.at(x, nested=("theta",))
    # the pointwise layers are differenced at step h whatever the context names
    assert struct.at(x, nested=()).derivative("f").shape == (2, 8)
    assert struct.at(x).nested == ("T", "t", "Gamma", "gamma_g", "omega", "lchkt_candidates")
