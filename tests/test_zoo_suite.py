import json
import sys

import numpy as np
import pytest

import reference
import qkt.cli as cli
import qkt.qkt_connection as qkt_connection
import qkt.suite as suite_module
import qkt.tensor_core as tensor_core
from qkt.conformal import ConformalFactor, conformal_rescale
from qkt.errors import DimensionError, InputError, NotQKTError
from qkt.expressions import Expression, parse_expression
from qkt.qkt_connection import EXISTENCE_TOL, QKTContext, QKTStructure
from qkt.quaternionic import build_standard_hypercomplex, quaternionic_residuals
from qkt.suite import CATALOGUE, IdentityResult, VerificationReport, run_suite
from qkt.tensor_core import ConstantMetric, CoordinatePatch, worst
from qkt.zoo import (
    ManifoldSpec,
    build_manifold,
    build_structure,
    conformal_ingredients,
    halton_points,
    sample_points,
)

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


def test_spec_rejects_negative_seed():
    # a seed below -1 would start the Halton sequence at an index <= 0 and put
    # every sample point on one corner of the box
    for seed in (-1, -2):
        with pytest.raises(InputError, match="seed"):
            ManifoldSpec(kind="flat", n=1, seed=seed, point_count=4)
    points = sample_points(ManifoldSpec(kind="flat", n=1, seed=0, point_count=4))
    assert len({p.tobytes() for p in points}) == 4


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


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_halton_points_equal_the_one_index_loop_bitwise(dim):
    lo, hi = -0.4 * np.ones(dim), 0.4 * np.ones(dim)
    for seed in range(128):
        points = halton_points(lo, hi, 20, seed, margin=3e-3)
        loop = reference.halton_points_loop(lo, hi, 20, seed, margin=3e-3)
        assert np.array(points).tobytes() == np.array(loop).tobytes()


def test_halton_indices_past_64_bits_are_an_input_error():
    lo, hi = -np.ones(4), np.ones(4)
    last = (2 ** 63 - 1) // 100 - 1   # the largest seed whose first index fits
    point, = halton_points(lo, hi, 1, last, margin=0.0)
    assert point.tobytes() == reference.halton_points_loop(lo, hi, 1, last, 0.0)[0].tobytes()
    with pytest.raises(InputError):
        halton_points(lo, hi, 10, last, margin=0.0)


def test_sample_points_respect_margin():
    spec = ManifoldSpec(kind="flat", n=1, **FAST)
    for p in sample_points(spec):
        assert spec.box()[0][0] + spec.scheme().margin < p[0]


# ---------------------------------------------------------------------------
# manifold construction
# ---------------------------------------------------------------------------

def test_build_flat_n2_trivial_torsion():
    struct = build_manifold(ManifoldSpec(kind="flat", n=2, **FAST))
    assert np.max(np.abs(struct.at(np.zeros(8)).T)) == 0.0


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
    assert np.max(np.abs(struct.at(np.full(4, 0.1)).T - expected)) <= 1e-14


def test_build_hopf_local():
    struct = build_manifold(ManifoldSpec(kind="hopf_local", n=1, **FAST))
    assert struct.patch.contains(np.ones(4))
    assert struct.patch.metric_at(np.ones(4))[0, 0] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# the n >= 2 conformal base: the checked structure on the flat patch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, f", [(2, "exp(x1)"), (3, "exp(0.5*x2)")])
def test_conformal_base_is_the_flat_structure(n, f):
    spec = ManifoldSpec(kind="conformal_flat", n=n, f=f, point_count=2)
    base, flat = build_manifold(spec).base, conformal_ingredients(spec)
    assert np.array_equal(base.patch.lo, flat.patch.lo)
    assert np.array_equal(base.patch.hi, flat.patch.hi)
    assert isinstance(base.patch.metric, ConstantMetric)
    assert np.array_equal(base.patch.metric.g, flat.patch.metric.g)
    assert np.array_equal(base.hyper.stack, flat.hyper.stack)
    assert base.scheme == flat.scheme
    assert base.t_form is None and flat.t_form is None
    assert base.base is None and base.constant


def test_conformal_rescale_is_the_zoo_structure_at_n_two():
    # one path for every n: at n = 2 the rescale of the flat structure builds
    # its torsion from f g_0's own data, bit for bit as the zoo's conformal_flat
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=3)
    lo, hi = spec.box()
    flat = QKTStructure(CoordinatePatch(n=2, lo=lo, hi=hi, metric=ConstantMetric(np.eye(8))),
                        build_standard_hypercomplex(2), spec.scheme())
    rescaled = conformal_rescale(flat, ConformalFactor(parse_expression("exp(x1)")))
    x = np.stack(sample_points(spec))
    ours, zoo = rescaled.at(x), build_structure(spec).at(x)
    for layer in ("T", "Gamma", "omega"):
        assert np.array_equal(getattr(ours, layer), getattr(zoo, layer)), layer


@pytest.mark.parametrize("tilt", [0.0, 5.0], ids=["standard", "tilted"])
def test_conformal_base_fails_only_where_the_conformal_check_fails(monkeypatch, tilt):
    # the base's own check residuals at the check points: the metric-free
    # algebra and square are the conformal structure's, hermitian stays at
    # rounding, and the constant structure's existence defect is exactly 0;
    # the structures are built without the check, which a tilt fails
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=3,
                        j2_tilt_degrees=tilt)
    if tilt:
        with pytest.raises(NotQKTError):
            build_manifold(spec)
    monkeypatch.setattr(qkt_connection, "_check", lambda ctx: ctx.struct)
    struct = build_manifold(spec)
    points = np.array(sample_points(spec))
    barred, base = struct.at(points), struct.base.at(points)
    quat, own = (quaternionic_residuals(ctx.g, ctx.J) for ctx in (barred, base))
    for key in ("algebra", "square"):
        assert np.array_equal(own[key], quat[key])
    assert np.max(own["hermitian"]) <= 1e-15
    assert np.max(base.existence) == 0.0
    assert (worst(barred.existence) > EXISTENCE_TOL) == bool(tilt)


@pytest.mark.parametrize("spec, suite, contexts", [
    (ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=2, seed=5), "curvature", 7),
    (ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=4, seed=5), "all", 13),
    (ManifoldSpec(kind="hopf_local", n=1, point_count=20, seed=5), "all", 9),
], ids=["conf8_curv", "conf8_all", "hopf4_all"])
def test_a_run_checks_its_structure_once(monkeypatch, spec, suite, contexts):
    # for every n the build check reads the run's own chunk contexts, so the
    # build opens no context (conf8_curv: the base, one chunk with its step-h
    # stencil and two slices with theirs, 7, where a check context with its
    # stencil made 9; conf8_all: 13 from 15; hopf4_all: the flat base's and 8
    # of the run, 9, where a check context at the patch center made 10), and
    # the flat base gets no build or check of its own, so the only context on
    # the flat metric is the base context that every chunk shares
    opened = []
    init = QKTContext.__init__

    def recording(ctx, struct, x, base=None):
        opened.append((struct, np.shape(x)))
        init(ctx, struct, x, base)

    monkeypatch.setattr(QKTContext, "__init__", recording)
    assert run_suite(spec, suite).all_pass
    assert len(opened) == contexts
    flat = [shape for struct, shape in opened if isinstance(struct.patch.metric, ConstantMetric)]
    assert flat == [(spec.dim,)]


TILTED = {"conformal_flat": dict(n=2, f="exp(x1)"), "hopf_local": dict(n=1)}


@pytest.mark.parametrize("kind, count", [("conformal_flat", count) for count in range(1, 6)]
                         + [("hopf_local", count) for count in (1, 3, 4)],
                         ids=["1", "2", "3", "4", "5", "hopf-1", "hopf-3", "hopf-4"])
def test_a_tilted_run_reports_what_build_manifold_raises(monkeypatch, kind, count):
    # the run checks its first (up to) three sample points in its own chunk
    # contexts, two points each at d = 8, so the third is in the second chunk,
    # and all in one at d = 4; its report and error are those of
    # build_manifold's one check context on the same points, for every n
    spec = ManifoldSpec(kind=kind, point_count=count, j2_tilt_degrees=5.0, **TILTED[kind])
    raised, check = [], suite_module._check

    def recording(*contexts, **kwargs):
        try:
            return check(*contexts, **kwargs)
        except NotQKTError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(suite_module, "_check", recording)
    report = run_suite(spec, "all")
    with pytest.raises(NotQKTError) as built:
        build_manifold(spec)
    (err,) = raised
    assert err.details == built.value.details
    assert report.meta["build_error"] == str(built.value)
    rows = [(name, built.value.details[key], min(3, count))
            for name, key in (("existence_condition", "eq4"), ("quaternionic_identities", "algebra"))
            if key in built.value.details]
    assert [(row.identity_id, row.max_residual, row.points) for row in report.results] == rows
    assert len(rows) == (2 if spec.n >= 2 else 1)


def test_a_metric_bad_only_at_the_third_check_point_exits_2(monkeypatch, capsys):
    # a metric that is not symmetric at the third sample point alone, where
    # only the build check looks for symmetry: the check reaches that point
    # in the second chunk's context at d = 8, in the one chunk's at d = 4,
    # before any group reads it
    for n in (2, 1):
        spec = ManifoldSpec(kind="flat", n=n, point_count=4)
        target, dim = sample_points(spec)[2], spec.dim

        def metric(p, target=target, dim=dim):
            g = np.array(np.broadcast_to(np.eye(dim), np.shape(p)[:-1] + (dim, dim)))
            g[np.all(p == target, axis=-1), 0, 1] = 1e-3
            return g

        patch = tensor_core.CoordinatePatch(n=n, lo=spec.box()[0], hi=spec.box()[1],
                                            metric=metric)
        struct = reference.unchecked(patch, build_standard_hypercomplex(n))
        monkeypatch.setattr(suite_module, "build_structure", lambda spec, struct=struct: struct)
        assert cli.main(["verify", "--manifold", "flat", "--n", str(n), "--points", "4",
                         "--suite", "curvature"]) == 2, n
        assert "metric not symmetric at" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# suite runner and report
# ---------------------------------------------------------------------------

def test_catalogue_ids_unique():
    ids = [check.identity_id for check in CATALOGUE]
    assert len(ids) == len(set(ids))


# The row ids of each suite, pinned for every kind and n as the runner gave
# them when the catalogue still carried an applicability rule per row.
CONNECTION_COMMON = (
    "quaternionic_identities", "hermitian_metric", "torsion_skew_symmetry",
    "connection_metricity", "torsion_type_purity", "sp1_shape_of_nabla_J",
    "torsion_one_form_common", "lee_form_self_trace", "cross_lee_antisymmetry",
    "lee_form_linear_relation", "difference_form_from_lee", "c_form_from_lee",
    "nijenhuis_via_torsion_parts", "nijenhuis_via_lee_difference")
CONNECTION_N2 = CONNECTION_COMMON + (
    "existence_condition", "torsion_alpha_consistency", "sp1_closed_formula",
    "lcqk_torsion_shape", "lchkt_closed_form")
CONNECTION_DIM4 = CONNECTION_COMMON + (
    "star_one_form_identity", "torsion_is_star_of_t", "star_dT_is_minus_delta_t",
    "parallel_torsion_link")
CONNECTION_DIM4_LC = CONNECTION_DIM4 + ("lcqk_torsion_shape", "lchkt_closed_form")
CONFORMAL_DIM4 = (
    "conformal_connection_law", "conformal_twisted_derivative", "conformal_lee_form",
    "conformal_cross_lee", "conformal_difference_form", "conformal_sp1_form",
    "conformal_torsion_law", "conformal_torsion_one_form", "conformal_dt_invariance")
CONFORMAL_N2 = (
    "conformal_connection_law", "conformal_twisted_derivative", "conformal_lee_form",
    "conformal_cross_lee", "conformal_compatibility_form", "conformal_difference_form",
    "conformal_sp1_form", "conformal_torsion_law", "conformal_torsion_one_form",
    "conformal_dt_invariance")
CURVATURE_DIM4 = (
    "sp1_curvature_commutator", "ricci_form_from_sp1", "dT_expansion", "first_bianchi",
    "levi_civita_comparison", "curvature_pair_swap", "two_torsion_derivatives",
    "skew_ricci_coclosure", "ricci_trace_identity", "curvature_pair_antisymmetry")
CURVATURE_N2 = CURVATURE_DIM4[:-1] + ("ricci_trace_resolution", "curvature_pair_antisymmetry")
DIM4 = ("sp1_trace_formula", "skew_ricci_formula", "riemannian_ricci_formula",
        "weyl_metric_condition", "weyl_correspondence_sym", "weyl_ricci_formula")
PINNED_ROWS = {
    ("flat", 1): (CONNECTION_DIM4_LC, (), CURVATURE_DIM4, DIM4),
    ("flat", 2): (CONNECTION_N2, (), CURVATURE_N2, ()),
    ("conformal_flat", 1): (CONNECTION_DIM4_LC, CONFORMAL_DIM4, CURVATURE_DIM4, DIM4),
    ("conformal_flat", 2): (CONNECTION_N2, CONFORMAL_N2, CURVATURE_N2, ()),
    ("dim4_torsion", 1): (CONNECTION_DIM4, (), CURVATURE_DIM4, DIM4),
    ("hopf_local", 1): (CONNECTION_DIM4_LC, CONFORMAL_DIM4, CURVATURE_DIM4, DIM4),
}
KIND_ARGS = {"conformal_flat": dict(f="exp(x1)"),
             "dim4_torsion": dict(t_components=("sin(x2)", "0", "0", "0"))}


@pytest.mark.parametrize("suite", ["all", "connection", "conformal", "curvature", "dim4"])
@pytest.mark.parametrize("kind, n", list(PINNED_ROWS))
def test_row_sets_pinned(kind, n, suite):
    per_suite = dict(zip(("connection", "conformal", "curvature", "dim4"), PINNED_ROWS[kind, n]))
    expected = sum(per_suite.values(), ()) if suite == "all" else per_suite[suite]
    spec = ManifoldSpec(kind=kind, n=n, point_count=1, seed=0, **KIND_ARGS.get(kind, {}))
    assert tuple(r.identity_id for r in run_suite(spec, suite).results) == expected


@pytest.mark.parametrize("tilt", [0.0, 5.0], ids=["standard", "tilted"])
@pytest.mark.parametrize("kind, n", list(PINNED_ROWS))
def test_structures_are_built_unchecked_and_checked_once_per_run(monkeypatch, kind, n, tilt):
    # build_structure checks nothing, for any n, so a tilted triple still
    # builds; the run checks the structure once
    spec = ManifoldSpec(kind=kind, n=n, point_count=4, seed=0, j2_tilt_degrees=tilt,
                        **KIND_ARGS.get(kind, {}))
    calls, check = [], qkt_connection._check

    def counting(*contexts, **kwargs):
        calls.append(contexts)
        return check(*contexts, **kwargs)

    for module in (qkt_connection, suite_module):
        monkeypatch.setattr(module, "_check", counting)
    assert build_structure(spec).n == n
    assert calls == []
    report = run_suite(spec, "connection")
    assert len(calls) == 1
    assert ("build_error" in report.meta) == bool(tilt)


@pytest.mark.parametrize("kind, n", list(PINNED_ROWS))
def test_every_record_key_is_read(kind, n):
    # a key that no catalogue row and no diagnostic reads would be computed on
    # every chunk and thrown away; eq27_lambda is read at the last point only
    spec = ManifoldSpec(kind=kind, n=n, point_count=1, seed=0, **KIND_ARGS.get(kind, {}))
    struct = build_manifold(spec)
    ctx = struct.at(np.array(sample_points(spec)))
    for group, evaluate in suite_module._GROUP_EVALUATORS.items():
        if not suite_module._GROUP_APPLIES.get(group, lambda spec, struct: True)(spec, struct):
            continue
        read = {check.key for check in CATALOGUE if check.group == group}
        read |= {key for owner, key in suite_module._DIAGNOSTICS.values() if owner == group}
        assert set(evaluate(ctx)) - read <= {"eq27_lambda"}, group


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


def test_unknown_tol_override_ids_rejected():
    overrides = {"nosuch_id": 1.0, "other_id": 2.0, "existence_condition": 1e-4}
    spec = ManifoldSpec(kind="flat", n=1, point_count=3, tol_overrides=overrides)
    with pytest.raises(InputError) as err:
        run_suite(spec)
    message = str(err.value)
    assert "nosuch_id" in message and "other_id" in message
    assert "existence_condition" not in message


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
    # every expression call here comes from the patch metric.  The build
    # check reads the suite's own chunk contexts, so the run evaluates no
    # point twice (when the build checked in a context of its own, the three
    # check points and their stencils were evaluated twice).
    calls = []
    original = Expression.__call__

    def recording(self, points):
        # one entry per evaluated point (batch row)
        rows = np.asarray(points, dtype=float)
        calls.extend((id(self), row.tobytes()) for row in rows.reshape(-1, rows.shape[-1]))
        return original(self, points)

    built = []
    build = suite_module.build_structure

    def build_and_mark(*args, **kwargs):
        struct = build(*args, **kwargs)
        built.append(len(calls))
        return struct

    monkeypatch.setattr(Expression, "__call__", recording)
    monkeypatch.setattr(suite_module, "build_structure", build_and_mark)
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=2, seed=3)
    report = run_suite(spec, suite)
    assert report.all_pass
    assert len({owner for owner, _ in calls}) == 1
    # the build evaluates no point: the check reads the suite's own contexts
    assert built == [0]
    assert len(calls) == len(set(calls)) > 100


def test_conformal_factor_evaluated_once_per_point_array(monkeypatch):
    # f is a context layer that g = f g_0, df, the rescaled torsion and the
    # conformal laws all read: each point array of a chunk's context (the
    # chunk, its h and h2 stencils, and the h stencil of its h2 stencil)
    # evaluates the factor expression once, and no point is evaluated twice
    calls, rows = [], []
    original = Expression.__call__

    def recording(self, points):
        points = np.asarray(points, dtype=float)
        calls.append(points.shape)
        rows.extend(row.tobytes() for row in points.reshape(-1, points.shape[-1]))
        return original(self, points)

    monkeypatch.setattr(Expression, "__call__", recording)
    spec = ManifoldSpec(kind="hopf_local", n=1, point_count=20, seed=5)
    assert run_suite(spec, "all").all_pass
    # a sample point, its 8 + 8 stencil points and the 64 of its nested stencil
    assert len(rows) == len(set(rows)) == 20 * (1 + 8 + 8 + 64)
    assert len(calls) == 4 * 2 < 80


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


def test_cli_report_to_an_unwritable_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = cli.main(["verify", "--manifold", "flat", "--n", "1", "--points", "1",
                     "--suite", "connection", "--report", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


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


CLI_KIND_ARGS = {
    "flat": ["--n", "2"],
    "conformal_flat": ["--n", "2", "--f", "exp(x1)"],
    "dim4_torsion": ["--n", "1", "--t", "sin(x2),0,0.3*x1,0"],
    "hopf_local": ["--n", "1"],
}


@pytest.mark.parametrize("kind", ["flat", "dim4_torsion", "hopf_local"])
def test_cli_rejects_a_conformal_factor_the_kind_ignores(kind, tmp_path, capsys):
    # hopf_local runs on its own factor: the --f would be recorded in the
    # report's spec and never read
    report = tmp_path / "report.json"
    code = cli.main(["verify", "--manifold", kind, *CLI_KIND_ARGS[kind], "--f", "exp(x1)",
                     "--points", "1", "--report", str(report)])
    assert code == 2
    assert "--f" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("kind", ["flat", "conformal_flat", "hopf_local"])
def test_cli_rejects_torsion_components_the_kind_ignores(kind, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = cli.main(["verify", "--manifold", kind, *CLI_KIND_ARGS[kind], "--t", "0,0,0,0",
                     "--points", "1", "--report", str(report)])
    assert code == 2
    assert "--t" in capsys.readouterr().err
    assert not report.exists()


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


def reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_cli_non_finite_residuals_fail(tmp_path, capsys):
    # exp(709)*x1 is finite, but its curvature overflows: each row that
    # computed NaN or inf must FAIL instead of reading 0.0.  The finite rows
    # include eq1 and c5, whose defects are rounding of the sp(1) solve on
    # values near 1e308; the 2x2 normal equations give exactly 0 there.
    out = tmp_path / "report.json"
    code = cli.main([
        "verify", "--manifold", "dim4_torsion", "--n", "1",
        "--t", "exp(709)*x1,0,0,0", "--points", "2", "--report", str(out),
    ])
    assert code == 1
    assert "17/34 identities pass" in capsys.readouterr().out
    rows = json.loads(out.read_text(), parse_constant=reject_constant)["results"]
    assert len(rows) == 34 and sum(row["pass"] for row in rows) == 17
    non_finite = [row for row in rows if isinstance(row["max_residual"], str)]
    assert {row["max_residual"] for row in non_finite} == {"nan", "inf"}
    assert not any(row["pass"] for row in non_finite)


def test_cli_non_finite_run_prints_no_numpy_warnings(tmp_path):
    # the overflow of the run above reaches the residuals as nan and inf and
    # fails their rows; numpy prints no RuntimeWarning on the way
    import os
    import subprocess
    from pathlib import Path

    out = tmp_path / "report.json"
    argv = ["verify", "--manifold", "dim4_torsion", "--n", "1",
            "--t", "exp(709)*x1,0,0,0", "--points", "2", "--report", str(out)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [part for part in [os.environ.get("PYTHONPATH")] if part]))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; from qkt.cli import main; sys.exit(main({argv!r}))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert "RuntimeWarning" not in done.stderr and "Warning" not in done.stderr
    rows = json.loads(out.read_text(), parse_constant=reject_constant)["results"]
    assert {row["max_residual"] for row in rows
            if isinstance(row["max_residual"], str)} == {"nan", "inf"}


def test_worst_lets_nan_win():
    assert worst(0.5, 2.0, 1.0) == 2.0
    assert np.isnan(worst(0.0, float("nan"))) and np.isnan(worst(np.nan, 3.0))


def test_report_json_spells_out_non_finite_numbers():
    report = VerificationReport(
        meta={"lam": float("-inf"), "nested": {"fit": np.float64("nan")}},
        results=(IdentityResult("row", "eq", 1, float("inf"), 1e-3, False),))
    payload = json.loads(report.to_json(), parse_constant=reject_constant)
    assert payload["meta"] == {"lam": "-inf", "nested": {"fit": "nan"}}
    assert payload["results"][0]["max_residual"] == "inf"


def test_torsion_differentiated_once_per_point(monkeypatch):
    # one derivative of T per chunk, and together the chunks hold every
    # sample point once: 43 points at d = 4 make chunks of 40 and 3 points
    derivative = QKTContext.derivative
    calls = []

    def recording(ctx, layer):
        calls.append((layer, ctx.x))
        return derivative(ctx, layer)

    monkeypatch.setattr(QKTContext, "derivative", recording)
    spec = ManifoldSpec(kind="hopf_local", n=1, point_count=43, seed=5)
    assert run_suite(spec, "all").all_pass
    chunks = [x for layer, x in calls if layer == "T"]
    assert [len(x) for x in chunks] == [40, 3]
    assert np.array_equal(np.concatenate(chunks), np.array(sample_points(spec)))


def test_cli_tol_override(capsys):
    code = cli.main([
        "verify", "--manifold", "conformal_flat", "--n", "2", "--f", "exp(x1)",
        "--points", "4", "--suite", "connection",
        "--tol-override", "existence_condition=1e-30",
    ])
    assert code == 1


def test_cli_calls_share_no_parsed_state(tmp_path, capsys):
    # the parser is built once per process; the --tol-override lists of two
    # main calls do not leak into each other
    assert cli.build_parser() is cli.build_parser()
    args = ["verify", "--manifold", "flat", "--n", "1", "--points", "2", "--suite", "connection"]
    tolerances = []
    for overrides in (["hermitian_metric=0.5"], ["torsion_skew_symmetry=0.25"]):
        path = tmp_path / "report.json"
        extra = [arg for pair in overrides for arg in ("--tol-override", pair)]
        assert cli.main([*args, *extra, "--report", str(path)]) == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        tolerances.append({row["identity_id"]: row["tolerance"] for row in report["results"]})
    first, second = tolerances
    assert first["hermitian_metric"] == 0.5 and second["hermitian_metric"] == 1e-10
    assert first["torsion_skew_symmetry"] == 1e-10 and second["torsion_skew_symmetry"] == 0.25


@pytest.mark.parametrize("args", [
    ["--manifold", "flat", "--n", "1", "--h", "0"],
    ["--manifold", "flat", "--n", "1", "--tol-override", "x=abc"],
    ["--manifold", "flat", "--n", "1", "--tol-override", "no-equals-sign"],
    ["--manifold", "conformal_flat", "--n", "2"],
    ["--manifold", "flat", "--n", "1", "--seed", "-2"],
    ["--manifold", "flat", "--n", "1", "--tol-override", "nosuch_id=1"],
    # non-finite settings
    ["--manifold", "flat", "--n", "2", "--j2-tilt", "nan"],
    ["--manifold", "flat", "--n", "2", "--j2-tilt", "inf"],
    ["--manifold", "flat", "--n", "1", "--tol-override", "first_bianchi=nan"],
    ["--manifold", "flat", "--n", "1", "--tol-override", "first_bianchi=-1"],
    # steps that leave the largest coordinate of the box unmoved: every
    # difference would be exactly 0 and every row would pass
    ["--manifold", "conformal_flat", "--n", "2", "--f", "exp(x1)", "--h", "1e-200"],
    ["--manifold", "dim4_torsion", "--n", "1", "--t", "sin(x2),0,x1*x3,0",
     "--h", "1e-200", "--h2", "1e-200"],
    ["--manifold", "hopf_local", "--n", "1", "--h", "1e-17"],
])
def test_cli_input_errors_exit_2(args, capsys):
    assert cli.main(["verify", *args, "--points", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_lets_unclassified_errors_propagate(monkeypatch, capsys):
    # a plain ValueError is a program fault, not bad input: no exit 2
    def broken(spec, suite="all"):
        raise ValueError("shape mismatch inside the library")

    monkeypatch.setattr(cli, "run_suite", broken)
    with pytest.raises(ValueError, match="shape mismatch"):
        cli.main(["verify", "--manifold", "flat", "--n", "1", "--points", "1"])


def test_input_errors_are_classified():
    from qkt.errors import GeometryError, InputError
    from qkt.tensor_core import FDScheme

    for make in (lambda: FDScheme(h=0.0),
                 lambda: FDScheme(h=float("nan")),
                 lambda: FDScheme(h2=float("inf")),
                 lambda: CoordinatePatch(n=1, lo=np.ones(4), hi=np.ones(4), metric=None),
                 lambda: ManifoldSpec(kind="flat", n=1, point_count=0),
                 lambda: ManifoldSpec(kind="flat", n=1, h2=-1.0),
                 lambda: ManifoldSpec(kind="flat", n=2, j2_tilt_degrees=float("nan")),
                 lambda: run_suite(ManifoldSpec(kind="flat", n=1, point_count=1,
                                                tol_overrides={"first_bianchi": float("nan")})),
                 lambda: run_suite(ManifoldSpec(kind="flat", n=1, point_count=1,
                                                tol_overrides={"first_bianchi": -1.0})),
                 # steps that leave the largest coordinate of the box unmoved,
                 # through conformal_rescale at n = 2 and at n = 1
                 lambda: build_manifold(ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)",
                                                     h=1e-200)),
                 lambda: build_manifold(ManifoldSpec(kind="hopf_local", n=1, h2=1e-17))):
        with pytest.raises(InputError) as err:
            make()
        assert isinstance(err.value, GeometryError) and isinstance(err.value, ValueError)


def _wrap_gradient(monkeypatch, wrapper):
    """Install ``wrapper(original)`` as ``gradient`` in every qkt namespace."""
    original = tensor_core.gradient
    wrapped = wrapper(original)
    for name, module in list(sys.modules.items()):
        if (name == "qkt" or name.startswith("qkt.")) and \
                getattr(module, "gradient", None) is original:
            monkeypatch.setattr(module, "gradient", wrapped)


def test_flat_run_takes_no_metric_stencil(monkeypatch):
    # a flat structure is constant (constant metric and triple; the bundle
    # torsion for n >= 2, the dual of the zero constant 1-form for n = 1), so
    # its run takes no stencil at all, of the metric or of any other field
    built = []
    build = suite_module.build_structure
    monkeypatch.setattr(suite_module, "build_structure",
                        lambda *args, **kwargs: built.append(build(*args, **kwargs)) or built[-1])
    fields = []

    def wrapper(original):
        def recording(field, p, *args, **kwargs):
            fields.append(field)
            return original(field, p, *args, **kwargs)
        return recording

    _wrap_gradient(monkeypatch, wrapper)
    for n in (1, 2):
        assert run_suite(ManifoldSpec(kind="flat", n=n, point_count=3), "all").all_pass
        assert isinstance(built[-1].patch.metric, tensor_core.ConstantMetric)
        assert built[-1].constant
    assert fields == []
    # the recording wrapper is live: a non-constant torsion is differenced
    spec = ManifoldSpec(kind="dim4_torsion", n=1, t_components=("sin(x2)", "0", "0", "0"),
                        point_count=1)
    assert run_suite(spec, "connection").all_pass and fields


def test_hopf_local_base_contexts_reach_no_gradient(monkeypatch):
    # the flat base that the conformal laws of hopf_local compare against is
    # constant: its torsion is the dual of the zero constant 1-form, so no
    # derivative of one of its contexts takes a stencil
    bases = []
    build = suite_module.build_structure

    def recording_base(*args, **kwargs):
        struct = build(*args, **kwargs)
        bases.append(struct.base)
        return struct

    owners, reached = [], []
    derivative = QKTContext.derivative

    def scoped(ctx, layer):
        owners.append(ctx.struct)
        try:
            return derivative(ctx, layer)
        finally:
            owners.pop()

    def wrapper(original):
        def recording(field, p, *args, **kwargs):
            reached.append(owners[-1] if owners else None)
            return original(field, p, *args, **kwargs)
        return recording

    monkeypatch.setattr(suite_module, "build_structure", recording_base)
    monkeypatch.setattr(QKTContext, "derivative", scoped)
    _wrap_gradient(monkeypatch, wrapper)
    assert run_suite(ManifoldSpec(kind="hopf_local", n=1, point_count=2, seed=5), "all").all_pass
    (base,) = bases
    assert base.constant
    assert reached and not any(owner is base for owner in reached)


# the identity records the suite runs, each once per chunk of sample points
# on a dimension-4 conformal model (c7_residual exists for n >= 2 only)
RECORDS = ("structure_invariant_residuals", "torsion_one_form_spread", "lcqk_residual",
           "lchkt_residual", "conformal_law_residuals", "sp1_curvature_residuals",
           "bianchi_and_symmetry_residuals", "trace_identity_residuals", "dT_trace_equalities",
           "dim4_einstein_suite", "weyl_correspondence", "classification_residuals",
           "nijenhuis_via_connection")


def test_each_record_runs_once_per_chunk(monkeypatch):
    # 43 points at d = 4 make chunks of 40 and 3 points; every record reads
    # the context of each chunk once, and the conformal laws read the run's
    # one context of the constant base, at one point, beside it
    seen = {name: [] for name in RECORDS}
    for name in RECORDS:
        def counting(*contexts, _name=name, _record=getattr(suite_module, name)):
            seen[_name].append([ctx.x.shape for ctx in contexts])
            return _record(*contexts)
        monkeypatch.setattr(suite_module, name, counting)
    spec = ManifoldSpec(kind="hopf_local", n=1, point_count=43, seed=5)
    assert run_suite(spec, "all").all_pass
    expected = {name: [[(40, 4)], [(3, 4)]] for name in RECORDS}
    expected["conformal_law_residuals"] = [[(4,), (40, 4)], [(4,), (3, 4)]]
    assert seen == expected


def test_every_gradient_makes_one_field_call(monkeypatch, tmp_path, capsys):
    # a stencil is one field call on the (..., 2d, d) point array, never 2d
    # calls: f on the step-h stencils of the sample context (which the build
    # check reads) and of its two stencil slices, and T, Gamma and Gamma^g
    # together on each slice (6 calls with a check context of the build's
    # own, 12 with one per slice and layer)
    counts = []

    def wrapper(original):
        def counting(field, p, *args, **kwargs):
            calls = []
            out = original(lambda q: calls.append(q.shape) or field(q), p, *args, **kwargs)
            counts.append(len(calls))
            return out
        return counting

    _wrap_gradient(monkeypatch, wrapper)
    code = cli.main(["verify", "--manifold", "conformal_flat", "--n", "2", "--f", "exp(x1)",
                     "--suite", "curvature", "--points", "2", "--seed", "0",
                     "--report", str(tmp_path / "report.json")])
    assert code == 0
    assert len(counts) == 5 and set(counts) == {1}


def test_hodge_stars_reuse_the_context_inverse_and_volume(monkeypatch):
    # the stars of the dimension-4 torsion and of _dim4_structural read the
    # context's ginv and vol layers: a 20-point hopf_local run made 16 inv and
    # 10 det calls while every star inverted g and took its determinant again,
    # 8 and 6 while every chunk and its h2 stencil opened a base context, and
    # 5 and 3 with two 10-point chunks, and 5 and 2 while the constant base,
    # the one sample context and its three stencil slices inverted g.  Now
    # the flat metric g_0 is inverted once, when it is built, every context
    # divides that inverse by f, and the base and the sample context take the
    # determinant
    calls = {"inv": 0, "det": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(np.linalg, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(np.linalg, name, counting)
    assert run_suite(ManifoldSpec(kind="hopf_local", n=1, point_count=20, seed=5), "all").all_pass
    assert calls == {"inv": 1, "det": 2}
