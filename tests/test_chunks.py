"""Sample points in chunks: one context per chunk, one residual per point.

``run_suite`` opens one context per chunk of sample points and reduces the
per-point residuals of every record itself; each context differences its
step-h2 layers in one pass over stencil slices of its points.  The two
lengths only trade memory for speed: these tests pin that the report
depends on neither, that a non-finite residual at any one point, chunk
boundaries included, fails its row, and that the conformal laws share the
base context that the rescaled torsion rule opened.  They pin that a
context differences the step-h2 layers of its structure in at most one
pass, that no stencil context runs one, and that a context keeps no
stencil of them; two tests bound the traced peak memory of a curvature
run and of a dimension-4 all-suite run.  Every public reader that takes
points rejects bad ones alike, through the one check where a context
opens: no points are an input error, a wrong dimension a dimension error,
and a point not inside the margin-shrunk box a boundary error.
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
from qkt.errors import BoundaryError, DimensionError, GeometryError, InputError, NotQKTError
from qkt.qkt_connection import (
    NESTED_LAYERS,
    QKTContext,
    build_qkt,
    check_at,
    chunk_length,
    classify,
    existence_residual,
    point_chunks,
    slice_length,
    torsion_one_forms,
)
from qkt.quaternionic import build_standard_hypercomplex
from qkt.suite import run_suite
from qkt.tensor_core import ConformalMetric, ConstantForm, ConstantMetric, CoordinatePatch
from qkt.zoo import KINDS, ManifoldSpec, build_manifold, sample_points

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
# workload) peaks at 1.22 MB of traced allocations (Python 3.11, numpy 2.4),
# with theta traced from dF and omega solved without nabla J_a (1.216 MB while
# both were expanded first).  It did at 1.34 MB while the build checked in a
# context of its own and each stencil slice solved for omega, at 1.50 MB with
# one context per sample point, and at 2.27 MB when every nested stencil point
# evaluated g and the three F_a.  The bound leaves under 10 % headroom over 1.22 MB
CURVATURE_PEAK_BYTES_MAX = 1_330_000
# One hopf_local all-suite run at 20 points (the hopf4_all workload) peaks at
# 1.15 MB in one sample context with stencil slices of 7, 7 and 6 points, as it
# did while theta and omega were expanded first; it did at 1.44 MB in two
# 10-point contexts that each kept their step-h2 stencil, and at 1.50 MB in
# slices of 10.  The bound, set over a 1.16 MB peak, leaves about 10 % headroom
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
    build = suite_module.build_structure
    chunk_rule = qkt_connection.chunk_length
    try:
        suite_module.build_structure = lambda *a, **k: _poisoned(build(*a, **k), target)
        qkt_connection.chunk_length = lambda dim: length
        rows = {row.identity_id: row for row in run_suite(spec, "connection").results}
    finally:
        suite_module.build_structure = build
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
    build = suite_module.build_structure
    monkeypatch.setattr(suite_module, "build_structure",
                        lambda *args, **kwargs: built.append(build(*args, **kwargs)) or built[-1])
    opened = []
    init = QKTContext.__init__

    def recording(ctx, struct, x, base=None):
        if built:
            opened.append((struct, np.shape(x), base, ctx))
        init(ctx, struct, x, base)

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
        build_qkt(patch, build_standard_hypercomplex(1), ManifoldSpec(kind="flat", n=1).scheme(),
                  ConstantForm(1, np.zeros(4)))
    assert err.value.details["algebra"] == pytest.approx(1.0)
    assert "1.000e+00" in str(err.value)

    def build(spec):
        return build_qkt(patch, build_standard_hypercomplex(1),
                         spec.scheme(), ConstantForm(1, np.zeros(4)))

    monkeypatch.setattr(suite_module, "build_structure", build)
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
    # stencil context is (its d_aF_a^+ went with it)
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


def _record_passes(monkeypatch, h2: float):
    """Record every stencil context, the points that each context's step-h2
    pass covers, and each context's step-h2 requests, from now on."""
    stencils, covered, requested = [], collections.Counter(), collections.defaultdict(set)
    on_stencil, derivative = QKTContext._on_stencil, QKTContext.derivative

    def recording(ctx, points, h):
        sub = on_stencil(ctx, points, h)
        stencils.append(sub)
        if h == h2:
            covered[ctx] += len(points)
        return sub

    def requesting(ctx, layer):
        if layer in ctx.struct.nested_layers:
            requested[ctx].add(layer)
        return derivative(ctx, layer)

    monkeypatch.setattr(QKTContext, "_on_stencil", recording)
    monkeypatch.setattr(QKTContext, "derivative", requesting)
    return stencils, covered, requested


def _assert_one_pass_each(stencils, covered, requested):
    # no stencil context, at step h or h2, holds step-h2 gradients or opens a
    # step-h2 slice; a context runs a pass if and only if it makes a step-h2
    # request, and then one, which covers each of its points once and
    # differences every step-h2 layer of its structure
    assert not any("_nested_gradients" in vars(sub) for sub in stencils)
    assert not any(ctx is sub for ctx in covered for sub in stencils)
    assert set(requested) == set(covered)
    for ctx, count in covered.items():
        assert count == ctx.x.size // ctx.x.shape[-1]
        assert len(ctx._nested_gradients) == len(ctx.struct.nested_layers)
        assert requested[ctx] <= set(ctx.struct.nested_layers)


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_each_suite_differences_the_nested_layers_it_reads(monkeypatch, name, suite):
    # whatever a suite reads at step h2 comes from one pass per sample
    # context over the structure's step-h2 layers; a stencil context never
    # runs one, so no stencil of a stencil is built
    spec = ManifoldSpec(seed=3, **SPECS[name])
    recorded = _record_passes(monkeypatch, spec.h2)
    run_suite(spec, suite)
    _assert_one_pass_each(*recorded)
    # the classification diagnostics read dT on every suite, at step h2
    # unless the structure is constant or its torsion is differenced at h;
    # then only the records that read t (none in the conformal suite) do
    if name in ("flat-1", "flat-2"):
        assert not recorded[1]
    else:
        assert bool(recorded[1]) == (name != "dim4" or suite != "conformal")


def test_a_varying_base_differences_what_the_conformal_laws_read(monkeypatch):
    # the zoo's conformal kinds rescale the constant flat base; a base that is
    # not constant is opened at the sample points, and the conformal laws'
    # read of its dt runs its one step-h2 pass, over every step-h2 layer of
    # the base, t included
    patch = CoordinatePatch(n=2, lo=-0.6 * np.ones(8), hi=0.6 * np.ones(8),
                            metric=ConformalMetric(ConformalFactor(lambda p: np.exp(p[..., 0])),
                                                   reference.varying_base))
    struct = conformal_rescale(reference.unchecked(patch, build_standard_hypercomplex(2)),
                               ConformalFactor(lambda p: np.exp(0.5 * p[..., 2])))
    points = np.array([[0.05, -0.1, 0.2, 0.0, 0.11, -0.02, 0.3, -0.2],
                       [-0.2, 0.15, -0.1, 0.25, 0.0, 0.1, -0.3, 0.05]])
    stencils, covered, requested = _record_passes(monkeypatch, struct.scheme.h2)
    ctx = struct.at(points)
    with np.errstate(all="ignore"):
        for group in ("structural", "lc", "conformal", "curvature"):
            suite_module._GROUP_EVALUATORS[group](ctx)
    _assert_one_pass_each(stencils, covered, requested)
    base = vars(ctx)["base"]
    assert requested[base] == {"t"} and base in covered
    # the base's triple is constant, so its omega is not among them
    assert struct.base.nested_layers == ("T", "t", "Gamma", "gamma_g", "lchkt_candidates")


def test_an_undeclared_nested_layer_raises():
    # a request for a layer that the structure does not difference at step h2
    # is an error, never a stencil of its own
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=2)
    struct = build_manifold(spec)
    x = np.array(sample_points(spec))
    assert struct.nested_layers == ("T", "t", "Gamma", "gamma_g", "lchkt_candidates")
    assert set(struct.nested_layers) < set(NESTED_LAYERS)
    with pytest.raises(LookupError, match="'theta'"):
        struct.at(x).derivative("theta")
    with pytest.raises(LookupError, match="'gamma_w'"):
        struct.at(x).derivative("gamma_w")
    # the pointwise layers are differenced at step h, without a pass
    ctx = struct.at(x)
    assert ctx.derivative("f").shape == (2, 8)
    assert "_nested_gradients" not in vars(ctx)
    assert build_manifold(ManifoldSpec(kind="flat", n=2)).nested_layers == ()


# ---------------------------------------------------------------------------
# empty point sets and points of the wrong shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("points", [np.empty((0, 4)), []], ids=["empty-array", "empty-list"])
def test_classify_rejects_an_empty_point_set(points):
    struct = build_manifold(ManifoldSpec(kind="hopf_local", n=1, point_count=2))
    with pytest.raises(InputError, match="no sample points"):
        classify(struct, points)


def test_existence_residual_rejects_an_empty_point_set():
    struct = build_manifold(ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=1))
    with pytest.raises(InputError, match="no sample points"):
        existence_residual(struct.patch, struct.hyper, np.empty((0, 8)), struct.scheme)


def test_build_manifold_rejects_an_empty_check_point_set():
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=1)
    with pytest.raises(InputError, match="no points"):
        build_manifold(spec, check_points=[])


def test_build_manifold_takes_one_point_as_one_row():
    # as point_chunks does: one (d,) check point is one row, not d scalars
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=1)
    p = np.full(8, 0.1)
    assert build_manifold(spec, check_points=p).n == 2
    tilted = dataclasses.replace(spec, j2_tilt_degrees=5.0)
    errors = []
    for points in (p, [p]):
        with pytest.raises(NotQKTError) as err:
            build_manifold(tilted, check_points=points)
        errors.append(err.value)
    assert errors[0].details == errors[1].details and str(errors[0]) == str(errors[1])
    with pytest.raises(DimensionError, match=r"shape \(1, 4\)"):
        build_manifold(spec, check_points=np.full(4, 0.1))


def test_classify_takes_one_point_as_one_row():
    struct = build_manifold(ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=1))
    p = np.full(8, 0.1)
    assert [chunk.shape for chunk in point_chunks(p)] == [(1, 8)]
    assert classify(struct, p) == classify(struct, [p])
    with pytest.raises(DimensionError, match=r"shape \(1, 4\)"):
        classify(struct, np.full(4, 0.1))


def test_a_context_rejects_points_of_another_dimension():
    struct = build_manifold(ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=1))
    for x in (np.full((2, 3), 0.1), np.full(4, 0.1), np.float64(0.1)):
        with pytest.raises(DimensionError, match="8-dimensional patch"):
            struct.at(x)


def test_existence_residual_rejects_points_of_another_dimension():
    struct = build_manifold(ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=1))
    with pytest.raises(DimensionError, match=r"shape \(2, 3\)"):
        existence_residual(struct.patch, struct.hyper, np.full((2, 3), 0.1), struct.scheme)


# ---------------------------------------------------------------------------
# points off the interior: one check where a context opens
# ---------------------------------------------------------------------------

KIND_SPECS = (ManifoldSpec(kind="flat", n=2, point_count=1),
              ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=1),
              ManifoldSpec(kind="dim4_torsion", n=1, t_components=("sin(x2)", "0", "0.3*x1", "0"),
                           point_count=1),
              ManifoldSpec(kind="hopf_local", n=1, point_count=1))


@pytest.mark.parametrize("spec", KIND_SPECS, ids=lambda spec: spec.kind)
def test_readers_reject_points_on_and_outside_the_box(spec):
    # before, struct.at, classify and torsion_one_forms evaluated anywhere,
    # hopf_local's (box [0.7, 1.3]^4) even at the origin side of it
    struct = build_manifold(spec)
    hi = spec.box()[1]
    edge, outside = struct.patch.center(), struct.patch.center()
    edge[0], outside[0] = hi[0], hi[0] + 0.5
    readers = (struct.at, lambda p: classify(struct, p), lambda p: torsion_one_forms(struct, p))
    for p in (edge, outside):
        for read in readers:
            with pytest.raises(BoundaryError):
                read(p)


def test_kind_specs_cover_every_kind():
    assert sorted(spec.kind for spec in KIND_SPECS) == sorted(KINDS)


def test_every_reader_rejects_bad_points_alike():
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=1)
    struct = build_manifold(spec)
    near = struct.patch.center()
    near[0] = spec.box()[1][0] - 0.5 * struct.scheme.margin
    readers = {
        "at": struct.at,
        "classify": lambda p: classify(struct, p),
        "torsion_one_forms": lambda p: torsion_one_forms(struct, p),
        "existence_residual": lambda p: existence_residual(struct.patch, struct.hyper, p,
                                                           struct.scheme),
        "check_at": lambda p: check_at(struct, p),
        "build_qkt": lambda p: build_qkt(struct.patch, struct.hyper, struct.scheme,
                                         check_points=p),
        "build_manifold": lambda p: build_manifold(spec, check_points=p),
    }
    cases = ((np.empty((0, 8)), InputError), (np.full(4, 0.1), DimensionError),
             (near, BoundaryError), ([struct.patch.center(), near], BoundaryError))
    for points, error in cases:
        for name, read in readers.items():
            with pytest.raises(GeometryError) as err:
                read(points)
            assert type(err.value) is error, (name, error)
