import json

import numpy as np
import pytest

import qkt.cli as cli
from qkt.errors import DimensionError
from qkt.expressions import Expression
from qkt.suite import CATALOGUE, run_suite
from qkt.zoo import ManifoldSpec, build_manifold, halton_points, sample_points

FAST = dict(point_count=4, seed=42)


# ---------------------------------------------------------------------------
# specs and sampling
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        ManifoldSpec(kind="torus", n=1)
    with pytest.raises(ValueError):
        ManifoldSpec(kind="conformal_flat", n=2)  # missing f
    with pytest.raises(DimensionError):
        ManifoldSpec(kind="dim4_torsion", n=2, t_components=("0",) * 4)
    with pytest.raises(ValueError):
        ManifoldSpec(kind="dim4_torsion", n=1, t_components=("0", "0"))
    with pytest.raises(DimensionError):
        ManifoldSpec(kind="hopf_local", n=2)


def test_hopf_domain_excludes_origin():
    spec = ManifoldSpec(kind="hopf_local", n=1)
    lo, hi = spec.box()
    assert np.all(lo > 0)


def test_halton_interior_and_determinism():
    lo = -0.4 * np.ones(8)
    hi = 0.4 * np.ones(8)
    first = halton_points(lo, hi, 20, seed=3, margin=3e-3)
    second = halton_points(lo, hi, 20, seed=3, margin=3e-3)
    other = halton_points(lo, hi, 20, seed=4, margin=3e-3)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert not np.array_equal(first[0], other[0])
    for p in first:
        assert np.all(p > lo + 3e-3) and np.all(p < hi - 3e-3)


def test_sample_points_respect_margin():
    spec = ManifoldSpec(kind="flat", n=1, **FAST)
    for p in sample_points(spec):
        assert spec.box()[0][0] + spec.scheme().margin < p[0]


# ---------------------------------------------------------------------------
# manifold construction
# ---------------------------------------------------------------------------

def test_build_flat_n2_trivial_torsion():
    struct = build_manifold(ManifoldSpec(kind="flat", n=2, **FAST))
    assert np.max(np.abs(struct.torsion(np.zeros(8)))) == 0.0


def test_build_conformal_produces_expected_one_form():
    from qkt.qkt_connection import torsion_one_forms
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", **FAST)
    struct = build_manifold(spec)
    *_, t = torsion_one_forms(struct, np.full(8, 0.05))
    expected = np.zeros(8)
    expected[0] = -5.0
    assert np.max(np.abs(t - expected)) <= 1e-5


def test_build_dim4_star_torsion():
    from qkt.tensor_core import wedge_arrays
    spec = ManifoldSpec(kind="dim4_torsion", n=1,
                        t_components=("0.5", "0", "0", "0"), **FAST)
    struct = build_manifold(spec)
    dx = np.eye(4)
    expected = 0.5 * wedge_arrays(wedge_arrays(dx[1], dx[2]), dx[3])
    assert np.max(np.abs(struct.torsion(np.full(4, 0.1)) - expected)) <= 1e-14


def test_build_hopf_local():
    struct = build_manifold(ManifoldSpec(kind="hopf_local", n=1, **FAST))
    assert struct.patch.contains(np.ones(4))
    assert struct.metric_at(np.ones(4))[0, 0] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# suite runner and report
# ---------------------------------------------------------------------------

def test_catalogue_ids_unique():
    ids = [check.identity_id for check in CATALOGUE]
    assert len(ids) == len(set(ids))


def test_run_suite_flat_passes_tightly():
    report = run_suite(ManifoldSpec(kind="flat", n=1, **FAST), suite="all")
    assert report.all_pass
    assert all(r.max_residual <= 1e-8 for r in report.results)
    ids = [r.identity_id for r in report.results]
    assert len(ids) == len(set(ids))


def test_report_schema():
    report = run_suite(ManifoldSpec(kind="flat", n=1, **FAST), suite="connection")
    payload = json.loads(report.to_json())
    assert set(payload) == {"meta", "results"}
    for record in payload["results"]:
        assert set(record) == {"identity_id", "paper_equation", "points",
                               "max_residual", "tolerance", "pass"}
        assert record["pass"] == (record["max_residual"] <= record["tolerance"])
    meta = payload["meta"]
    assert meta["seed"] == 42
    assert meta["spec"]["kind"] == "flat"
    assert "timestamp" in meta and "version" in meta
    assert "classification" in meta["diagnostics"]


def test_run_suite_deterministic():
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", **FAST)
    first = run_suite(spec, suite="connection")
    second = run_suite(spec, suite="connection")
    a = first.to_dict()
    b = second.to_dict()
    a["meta"].pop("timestamp")
    b["meta"].pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_tol_override_flips_result():
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)",
                        tol_overrides={"existence_condition": 1e-30}, **FAST)
    report = run_suite(spec, suite="connection")
    row = {r.identity_id: r for r in report.results}["existence_condition"]
    assert row.tolerance == 1e-30
    # machine-epsilon residuals exceed an impossible tolerance
    assert not row.passed


def test_suite_diagnostics_for_dim4():
    spec = ManifoldSpec(kind="dim4_torsion", n=1,
                        t_components=("sin(x2)", "0", "0", "0"), **FAST)
    report = run_suite(spec, suite="all")
    diag = report.meta["diagnostics"]
    assert diag["classification"]["is_strong"]  # d of this torsion vanishes
    assert "einstein_deviation" in diag
    assert report.all_pass


def test_corrupted_structure_reports_failure():
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)",
                        j2_tilt_degrees=5.0, **FAST)
    report = run_suite(spec, suite="connection")
    assert not report.all_pass
    assert "build_error" in report.meta
    row = {r.identity_id: r for r in report.results}["existence_condition"]
    assert row.max_residual > 1e-2


@pytest.mark.parametrize("suite", ["connection", "curvature"])
def test_metric_expression_evaluated_once_per_point(monkeypatch, suite):
    # neither suite evaluates the conformal factor outside the metric, so
    # every expression call here comes from the memoized patch metric
    calls = []
    original = Expression.__call__

    def recording(self, point):
        calls.append((id(self), np.asarray(point, dtype=float).tobytes()))
        return original(self, point)

    monkeypatch.setattr(Expression, "__call__", recording)
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=2, seed=3)
    report = run_suite(spec, suite)
    assert report.all_pass
    assert len({owner for owner, _ in calls}) == 1
    assert len(calls) == len(set(calls)) > 100


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_pass_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main([
        "verify", "--manifold", "flat", "--n", "1",
        "--points", "4", "--seed", "7", "--suite", "connection",
        "--report", str(out),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS" in captured
    payload = json.loads(out.read_text())
    assert payload["meta"]["seed"] == 7


def test_cli_negative_control_exit_code(capsys):
    code = cli.main([
        "verify", "--manifold", "conformal_flat", "--n", "2", "--f", "exp(x1)",
        "--points", "4", "--j2-tilt", "5", "--suite", "connection",
    ])
    captured = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in captured


def test_cli_rejects_bad_expression(capsys):
    code = cli.main([
        "verify", "--manifold", "conformal_flat", "--n", "2", "--f", "frob(x1)",
        "--points", "4",
    ])
    assert code == 2


def test_cli_rejects_overflowing_factor(capsys):
    code = cli.main([
        "verify", "--manifold", "conformal_flat", "--n", "1",
        "--f", "exp(20000*x1^2)",
    ])
    assert code == 2
    assert "exp(" in capsys.readouterr().err


def test_cli_rejects_overflowing_torsion_product(capsys):
    # a float product that overflows to inf must not turn into 0.0 residuals
    code = cli.main([
        "verify", "--manifold", "dim4_torsion", "--n", "1",
        "--t", "exp(700)*exp(700)*x1,0,0,0", "--points", "2",
    ])
    assert code == 2
    assert "not a finite number" in capsys.readouterr().err


def test_cli_tol_override(capsys):
    code = cli.main([
        "verify", "--manifold", "conformal_flat", "--n", "2", "--f", "exp(x1)",
        "--points", "4", "--suite", "connection",
        "--tol-override", "existence_condition=1e-30",
    ])
    assert code == 1
