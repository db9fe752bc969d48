"""Sample points in chunks: one context per chunk, one residual per point.

``run_suite`` opens one context per chunk of sample points and reduces the
per-point residuals of every record itself.  The chunk length only trades
memory for speed: these tests pin that the report does not depend on it,
that a non-finite residual at any one point, chunk boundaries included,
fails its row, and that the conformal laws share the base context that the
rescaled torsion rule opened.  One test bounds the traced peak memory of a
curvature run.
"""

import collections
import dataclasses
import gc
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qkt.qkt_connection as qkt_connection
import qkt.suite as suite_module
from qkt.errors import NotQKTError
from qkt.qkt_connection import QKTContext, build_qkt_dim4, chunk_length, classify, point_chunks
from qkt.quaternionic import build_standard_hypercomplex
from qkt.suite import run_suite
from qkt.tensor_core import ConstantForm, ConstantMetric, CoordinatePatch
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
# workload) peaks at 1.50 MB of traced allocations (Python 3.11, numpy 2.4),
# and did at 2.27 MB when every nested stencil point evaluated g and the
# three F_a; the bound leaves under 10 % headroom over 1.50 MB
CURVATURE_PEAK_BYTES_MAX = 1_650_000


def test_chunk_length_follows_the_stencil_budget():
    assert chunk_length(4) == 10
    assert chunk_length(8) == chunk_length(12) == 1
    points = np.arange(23 * 4, dtype=float).reshape(23, 4)
    chunks = list(point_chunks(points))
    assert [len(chunk) for chunk in chunks] == [10, 10, 3]
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
    spec = ManifoldSpec(seed=3, **SPECS[name])
    chunked = _report(spec, suite)
    monkeypatch.setattr(qkt_connection, "CHUNK_ELEMENTS", 0)    # one point per chunk
    assert chunk_length(4) == chunk_length(8) == 1
    _assert_same(chunked, _report(spec, suite))
    if suite == "all":
        # a chunk of 3 pairs the point axis with the quaternionic axis
        # whenever a record broadcasts one against the other
        monkeypatch.setattr(qkt_connection, "chunk_length", lambda dim: 3)
        _assert_same(_report(spec, suite), chunked)


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
    # point, and every chunk context and every stencil sub-context reads that
    # one, for the conformal laws and for the rescaled torsion rule alike.
    # Before, each chunk opened one base context at its sample points and one
    # on their h2 stencil, where the torsion is differenced
    built = []
    build = suite_module.build_manifold
    monkeypatch.setattr(suite_module, "build_manifold",
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
    assert shapes[(10, 4)] == 2 and shapes[(10, 8, 4)] > 0 and shapes[(10, 8, 8, 4)] > 0
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


def test_curvature_run_peak_memory():
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=2)
    run_suite(spec, "curvature")   # fill the expression and shuffle caches first
    gc.collect()
    tracemalloc.start()
    try:
        run_suite(spec, "curvature")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CURVATURE_PEAK_BYTES_MAX
