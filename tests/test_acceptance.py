"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible under ``pytest -s``); the
assertions pin the tolerances.  Defaults throughout: 20 points per check,
seed 42, h = 1e-4, h2 = 1e-3.
"""

import numpy as np
import pytest

import qkt.cli as cli
from qkt.curvature import ricci_forms, curvature_tensor
from qkt.qkt_connection import torsion_one_forms
from qkt.quaternionic import CYCLIC, j_apply_oneform
from qkt.suite import run_suite
from qkt.zoo import ManifoldSpec, build_manifold, sample_points

DEFAULTS = dict(seed=42, point_count=20)


def _criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}: {detail}")
    assert ok, detail


def _rows(report):
    return {r.identity_id: r for r in report.results}


@pytest.fixture(scope="module")
def report_flat1():
    return run_suite(ManifoldSpec(kind="flat", n=1, **DEFAULTS), suite="all")


@pytest.fixture(scope="module")
def report_flat2():
    return run_suite(ManifoldSpec(kind="flat", n=2, **DEFAULTS), suite="all")


@pytest.fixture(scope="module")
def spec_conf_exp():
    return ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", **DEFAULTS)


@pytest.fixture(scope="module")
def report_conf_exp(spec_conf_exp):
    return run_suite(spec_conf_exp, suite="all")


@pytest.fixture(scope="module")
def report_conf_poly():
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="1+x1^2+x3^2", **DEFAULTS)
    return run_suite(spec, suite="connection")


@pytest.fixture(scope="module")
def report_dim4_const():
    spec = ManifoldSpec(kind="dim4_torsion", n=1,
                        t_components=("0.5", "0", "0", "0"), **DEFAULTS)
    return run_suite(spec, suite="all")


@pytest.fixture(scope="module")
def report_dim4_sine():
    spec = ManifoldSpec(kind="dim4_torsion", n=1,
                        t_components=("sin(x2)", "0", "0", "0"), **DEFAULTS)
    return run_suite(spec, suite="all")


def test_criterion_01_flat_baseline(report_flat1, report_flat2):
    worst = 0.0
    for report in (report_flat1, report_flat2):
        assert report.all_pass
        worst = max(worst, max(r.max_residual for r in report.results))
    _criterion(1, worst <= 1e-8,
               f"flat n=1 and n=2: all suite residuals <= 1e-8 (worst {worst:.2e})")


def test_criterion_02_existence_and_uniqueness(report_conf_exp, report_conf_poly):
    worst = {}
    for report in (report_conf_exp, report_conf_poly):
        rows = _rows(report)
        for rid, tol in (("existence_condition", 1e-4),
                         ("torsion_alpha_consistency", 1e-5),
                         ("connection_metricity", 1e-5),
                         ("torsion_type_purity", 1e-5),
                         ("sp1_shape_of_nabla_J", 1e-5)):
            value = rows[rid].max_residual
            assert value <= tol, (rid, value)
            worst[rid] = max(worst.get(rid, 0.0), value)
    _criterion(2, True,
               "conformal_flat n=2, f in {exp(x1), 1+x1^2+x3^2}: existence <= 1e-4, "
               f"uniqueness/metricity/purity/shape <= 1e-5 (worst {max(worst.values()):.2e})")


def test_criterion_03_common_torsion_one_form(report_flat1, report_flat2,
                                              report_conf_exp, report_conf_poly,
                                              report_dim4_const, report_dim4_sine):
    reports = (report_flat1, report_flat2, report_conf_exp, report_conf_poly,
               report_dim4_const, report_dim4_sine,
               run_suite(ManifoldSpec(kind="hopf_local", n=1, **DEFAULTS),
                         suite="connection"))
    worst = 0.0
    for report in reports:
        row = _rows(report)["torsion_one_form_common"]
        assert row.max_residual <= 1e-8
        worst = max(worst, row.max_residual)
    _criterion(3, True,
               f"J_a t_a spread <= 1e-8 on every built structure (worst {worst:.2e})")


def test_criterion_04_conformal_laws():
    worst = 0.0
    for n in (1, 2):
        spec = ManifoldSpec(kind="conformal_flat", n=n, f="exp(x1)", **DEFAULTS)
        report = run_suite(spec, suite="conformal")
        rows = _rows(report)
        for rid in ("conformal_twisted_derivative", "conformal_lee_form",
                    "conformal_cross_lee", "conformal_difference_form",
                    "conformal_sp1_form", "conformal_torsion_law",
                    "conformal_torsion_one_form"):
            assert rows[rid].max_residual <= 1e-5, (n, rid)
            worst = max(worst, rows[rid].max_residual)
        if n >= 2:
            assert rows["conformal_compatibility_form"].max_residual <= 1e-5
        # the torsion 1-form is -(2n+1) dx1, componentwise
        struct = build_manifold(spec)
        expected = np.zeros(4 * n)
        expected[0] = -(2 * n + 1)
        for p in sample_points(spec):
            *_, t = torsion_one_forms(struct, p)
            deviation = float(np.max(np.abs(t - expected)))
            assert deviation <= 1e-5
            worst = max(worst, deviation)
    _criterion(4, True,
               "conformal laws for n in {1,2}, f=exp(x1) <= 1e-5 and "
               f"t_bar = -(2n+1)dx1 (worst {worst:.2e})")


def test_criterion_05_dim4_structure(report_dim4_sine):
    rows = _rows(report_dim4_sine)
    checks = [
        ("star_one_form_identity", 1e-10),
        ("torsion_is_star_of_t", 1e-10),
        ("star_dT_is_minus_delta_t", 1e-5),
        ("skew_ricci_coclosure", 1e-3),
        ("skew_ricci_formula", 1e-3),
    ]
    worst = 0.0
    for rid, tol in checks:
        value = rows[rid].max_residual
        assert value <= tol, (rid, value)
        worst = max(worst, value)
    _criterion(5, True,
               "dim-4 t=sin(x2)dx1: star identities <= 1e-10, *dT+delta t <= 1e-5, "
               f"skew-Ricci forms <= 1e-3 (worst {worst:.2e})")


def test_criterion_06_curvature_identities(report_conf_exp, report_dim4_const):
    ids = ("sp1_curvature_commutator", "ricci_form_from_sp1", "dT_expansion",
           "first_bianchi", "levi_civita_comparison", "curvature_pair_swap",
           "ricci_trace_identity")
    worst = 0.0
    for report in (report_conf_exp, report_dim4_const):
        rows = _rows(report)
        for rid in ids:
            value = rows[rid].max_residual
            assert value <= 1e-3, (rid, value)
            worst = max(worst, value)
    value22 = _rows(report_conf_exp)["ricci_trace_resolution"].max_residual
    assert value22 <= 1e-3
    _criterion(6, True,
               "curvature identities <= 1e-3 on conformal_flat n=2 and "
               f"dim-4 t=0.5dx1, trace resolution on n=2 (worst {max(worst, value22):.2e})")


def test_criterion_07_dim4_einstein_weyl(report_dim4_const, report_dim4_sine):
    worst = 0.0
    for report in (report_dim4_const, report_dim4_sine):
        rows = _rows(report)
        for rid in ("sp1_trace_formula", "riemannian_ricci_formula",
                    "weyl_correspondence_sym"):
            value = rows[rid].max_residual
            assert value <= 1e-3, (rid, value)
            worst = max(worst, value)
    _criterion(7, True,
               "dim-4 Einstein-like formulas and the Weyl correspondence <= 1e-3 "
               f"for t=0.5dx1 and t=sin(x2)dx1 (worst {worst:.2e})")


def test_criterion_08_classification_coherence(spec_conf_exp, report_conf_exp,
                                               report_flat2):
    cls = report_conf_exp.meta["diagnostics"]["classification"]
    assert cls["is_integrable"] is True
    assert cls["is_hkt"] is False

    # the reported deviation is exactly the defect of theta_a = J_b theta_{c,a}
    struct = build_manifold(spec_conf_exp)
    independent = 0.0
    for p in sample_points(spec_conf_exp):
        bundle = struct.bundle_at(p)
        theta, cross, J = bundle["theta"], bundle["theta_cross"], bundle["J"]
        for a, b, c in CYCLIC:
            dev = theta[a] - j_apply_oneform(J[b], cross[c, a])
            independent = max(independent, float(np.max(np.abs(dev))))
    assert abs(cls["hkt_residual"] - independent) <= 1e-5

    # a structure classified as HKT has vanishing Ricci forms
    flat_cls = report_flat2.meta["diagnostics"]["classification"]
    assert flat_cls["is_hkt"] is True
    flat = build_manifold(ManifoldSpec(kind="flat", n=2, **DEFAULTS))
    p = np.zeros(8)
    ctx = flat.at(p)
    curv = curvature_tensor(ctx.Gamma, ctx.derivative("Gamma", nested=True), ctx.g)
    rho = ricci_forms(curv, ctx.ginv, ctx.J)
    assert np.max(np.abs(rho)) <= 1e-3
    _criterion(8, True,
               "conformal structures integrable, non-HKT with the stated deviation "
               f"({independent:.3e}); HKT => |rho| <= 1e-3")


def test_criterion_09_negative_control(capsys):
    spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)",
                        j2_tilt_degrees=5.0, **DEFAULTS)
    report = run_suite(spec, suite="connection")
    residual = _rows(report)["existence_condition"].max_residual
    assert residual > 1e-2
    assert not report.all_pass
    code = cli.main([
        "verify", "--manifold", "conformal_flat", "--n", "2", "--f", "exp(x1)",
        "--points", "20", "--seed", "42", "--j2-tilt", "5",
        "--suite", "connection",
    ])
    capsys.readouterr()
    assert code != 0
    _criterion(9, True,
               f"5-degree J2 tilt: existence residual {residual:.2e} > 1e-2, "
               f"failing report, exit code {code}")


def test_criterion_10_fd_order(spec_conf_exp):
    # The pipeline's internal identities cancel structurally on this family,
    # so the order of the scheme is measured against analytic values of the
    # same fixed spec: the torsion 1-form -(2n+1)dx1 and the compatibility
    # forms -2 J_b dx1 carry a pure O(h^2) defect.
    def oracle_defect(h):
        spec = ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)",
                            seed=42, point_count=5, h=h)
        struct = build_manifold(spec)
        dx1 = np.zeros(8)
        dx1[0] = 1.0
        worst = 0.0
        for p in sample_points(spec):
            *_, t = torsion_one_forms(struct, p)
            worst = max(worst, float(np.max(np.abs(t + 5.0 * dx1))))
            bundle = struct.bundle_at(p)
            for a, b, c in CYCLIC:
                expected = -2.0 * j_apply_oneform(bundle["J"][b], dx1)
                worst = max(worst, float(np.max(np.abs(bundle["K"][a] - expected))))
        return worst

    coarse = oracle_defect(1e-4)
    fine = oracle_defect(5e-5)
    ratio = coarse / fine
    _criterion(10, 3.0 <= ratio <= 5.0,
               f"halving h scales the analytic-oracle residuals by {ratio:.2f} "
               f"({coarse:.2e} -> {fine:.2e})")


def test_criterion_11_determinism(spec_conf_exp):
    first = run_suite(spec_conf_exp, suite="connection")
    second = run_suite(spec_conf_exp, suite="connection")
    values_a = [(r.identity_id, r.max_residual) for r in first.results]
    values_b = [(r.identity_id, r.max_residual) for r in second.results]
    _criterion(11, values_a == values_b,
               "two runs with the same seed produce identical residuals")
