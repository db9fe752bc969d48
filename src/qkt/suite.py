"""Identity catalogue, suite runner, and machine-readable reports.

Every identity the library verifies appears exactly once in the
catalogue with its equation tag, default tolerance, and applicability.
``run_suite`` evaluates the selected identities at seeded quasi-random
interior points and reports the max residual per identity; quantities
that are classifiers rather than identities (type of dT, Einstein
deviations, the proportionality probe) are reported as diagnostics in
the metadata instead of as pass/fail rows.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .conformal import conformal_law_residuals, lchkt_residual, lcqk_residual
from .curvature import (
    _context,
    bianchi_and_symmetry_residuals,
    dT_trace_equalities,
    dim4_einstein_suite,
    sp1_curvature_residuals,
    trace_identity_residuals,
    weyl_correspondence,
)
from .errors import InputError, NotQKTError
from .qkt_connection import (
    QKTStructure,
    auxiliary_one_forms,
    classify,
    nijenhuis_via_connection,
    sp1_forms,
    structure_invariant_residuals,
    torsion_one_form_spread,
    torsion_one_forms,
)
from .quaternionic import (
    CYC_A,
    CYC_B,
    CYC_C,
    frame_trace_pair,
    j_apply_oneform,
    nijenhuis_bracket,
    torsion_02_part,
)
from .tensor_core import (
    FDScheme,
    hodge_star_array,
    trace_codifferential,
    wedge_arrays,
    worst,
)
from .zoo import ManifoldSpec, build_manifold, conformal_ingredients, sample_points

SUITES = ("all", "connection", "conformal", "curvature", "dim4")


@dataclass(frozen=True)
class IdentityCheck:
    identity_id: str
    paper_equation: str
    suite: str            # connection | conformal | curvature | dim4
    tolerance: float
    group: str            # evaluator-group name
    key: str              # key within the group's result dict
    applies: Callable[["SuiteEnv"], bool] = lambda env: True


def _n_ge_2(env):
    return env.spec.n >= 2


def _dim4(env):
    return env.spec.n == 1


def _conformal_kind(env):
    return env.spec.kind in ("conformal_flat", "hopf_local")


def _lc_expected(env):
    return env.spec.kind in ("flat", "conformal_flat", "hopf_local")


CATALOGUE = (
    # -- connection-level identities -------------------------------------
    IdentityCheck("quaternionic_identities", "sec2-def", "connection", 1e-10,
                  "structural", "quaternionic"),
    IdentityCheck("hermitian_metric", "sec2-def", "connection", 1e-10,
                  "structural", "hermitian"),
    IdentityCheck("torsion_skew_symmetry", "eq5", "connection", 1e-10,
                  "structural", "torsion_skew"),
    IdentityCheck("connection_metricity", "def-qkt", "connection", 1e-5,
                  "structural", "metricity"),
    IdentityCheck("torsion_type_purity", "tr1", "connection", 1e-5,
                  "structural", "torsion_purity"),
    IdentityCheck("sp1_shape_of_nabla_J", "eq1", "connection", 1e-5,
                  "structural", "eq1"),
    IdentityCheck("torsion_one_form_common", "l1", "connection", 1e-8,
                  "structural", "l1"),
    IdentityCheck("lee_form_self_trace", "theta-aa", "connection", 1e-5,
                  "structural", "theta_self"),
    IdentityCheck("cross_lee_antisymmetry", "tt1", "connection", 1e-5,
                  "structural", "tt1"),
    IdentityCheck("lee_form_linear_relation", "per1", "connection", 1e-5,
                  "structural", "per1"),
    IdentityCheck("difference_form_from_lee", "c5", "connection", 1e-5,
                  "structural", "c5"),
    IdentityCheck("c_form_from_lee", "c6", "connection", 1e-5,
                  "structural", "c6"),
    IdentityCheck("nijenhuis_via_torsion_parts", "eq2", "connection", 1e-5,
                  "structural", "eq2"),
    IdentityCheck("nijenhuis_via_lee_difference", "eq6", "connection", 1e-5,
                  "structural", "eq6"),
    IdentityCheck("existence_condition", "eq4", "connection", 1e-4,
                  "structural", "eq4", _n_ge_2),
    IdentityCheck("torsion_alpha_consistency", "eq5", "connection", 1e-5,
                  "structural", "eq5_agreement", _n_ge_2),
    IdentityCheck("sp1_closed_formula", "c7", "connection", 1e-5,
                  "structural", "c7", _n_ge_2),
    IdentityCheck("star_one_form_identity", "tri1", "connection", 1e-10,
                  "structural", "tri1", _dim4),
    IdentityCheck("torsion_is_star_of_t", "v1", "connection", 1e-10,
                  "structural", "v1", _dim4),
    # second-level derivative when the torsion itself is FD-built (hopf),
    # first-level instances sit many orders below this
    IdentityCheck("star_dT_is_minus_delta_t", "sec5-codiff", "connection", 1e-4,
                  "structural", "star_dT", _dim4),
    IdentityCheck("parallel_torsion_link", "ser2", "connection", 1e-4,
                  "structural", "ser2", _dim4),
    IdentityCheck("lcqk_torsion_shape", "u3", "connection", 1e-5,
                  "lc", "u3", _lc_expected),
    IdentityCheck("lchkt_closed_form", "u1-ii", "connection", 1e-4,
                  "lc", "lchkt", _lc_expected),
    # -- conformal transformation laws ------------------------------------
    IdentityCheck("conformal_connection_law", "z1", "conformal", 1e-5,
                  "conformal", "z1", _conformal_kind),
    IdentityCheck("conformal_twisted_derivative", "z2", "conformal", 1e-5,
                  "conformal", "z2_dcf", _conformal_kind),
    IdentityCheck("conformal_lee_form", "z2", "conformal", 1e-5,
                  "conformal", "z2_theta", _conformal_kind),
    IdentityCheck("conformal_cross_lee", "z2", "conformal", 1e-5,
                  "conformal", "z2_cross", _conformal_kind),
    IdentityCheck("conformal_compatibility_form", "z3", "conformal", 1e-5,
                  "conformal", "z3_K",
                  lambda env: _conformal_kind(env) and _n_ge_2(env)),
    IdentityCheck("conformal_difference_form", "z3", "conformal", 1e-5,
                  "conformal", "z3_A", _conformal_kind),
    IdentityCheck("conformal_sp1_form", "z3", "conformal", 1e-5,
                  "conformal", "z3_omega", _conformal_kind),
    IdentityCheck("conformal_torsion_law", "z4", "conformal", 1e-5,
                  "conformal", "z4", _conformal_kind),
    IdentityCheck("conformal_torsion_one_form", "z5", "conformal", 1e-5,
                  "conformal", "z5", _conformal_kind),
    IdentityCheck("conformal_dt_invariance", "z5-cor", "conformal", 1e-5,
                  "conformal", "dt_invariance", _conformal_kind),
    # -- curvature identities ---------------------------------------------
    IdentityCheck("sp1_curvature_commutator", "eq11", "curvature", 1e-3,
                  "curvature", "eq11"),
    IdentityCheck("ricci_form_from_sp1", "eq12", "curvature", 1e-3,
                  "curvature", "eq12"),
    IdentityCheck("dT_expansion", "eq13", "curvature", 1e-3,
                  "curvature", "eq13"),
    IdentityCheck("first_bianchi", "eq14", "curvature", 1e-3,
                  "curvature", "eq14"),
    IdentityCheck("levi_civita_comparison", "eq15", "curvature", 1e-3,
                  "curvature", "eq15"),
    IdentityCheck("curvature_pair_swap", "tir1", "curvature", 1e-3,
                  "curvature", "tir1"),
    IdentityCheck("two_torsion_derivatives", "sof", "curvature", 1e-3,
                  "curvature", "sof"),
    IdentityCheck("skew_ricci_coclosure", "remark3", "curvature", 1e-3,
                  "curvature", "remark3"),
    IdentityCheck("ricci_trace_identity", "ti20", "curvature", 1e-3,
                  "curvature", "ti20"),
    IdentityCheck("ricci_trace_resolution", "eq22", "curvature", 1e-3,
                  "curvature", "eq22", _n_ge_2),
    IdentityCheck("curvature_pair_antisymmetry", "sec3-def", "curvature", 1e-4,
                  "curvature", "pair_antisym"),
    # -- dimension-4 Einstein-like and Weyl -------------------------------
    IdentityCheck("sp1_trace_formula", "5.67", "dim4", 1e-3,
                  "dim4", "eq5.67", _dim4),
    IdentityCheck("skew_ricci_formula", "5.68", "dim4", 1e-3,
                  "dim4", "eq5.68", _dim4),
    IdentityCheck("riemannian_ricci_formula", "5.69", "dim4", 1e-3,
                  "dim4", "eq5.69", _dim4),
    IdentityCheck("weyl_metric_condition", "qw", "dim4", 1e-8,
                  "dim4", "qw", _dim4),
    IdentityCheck("weyl_correspondence_sym", "qkw", "dim4", 1e-3,
                  "dim4", "qkw_sym", _dim4),
    IdentityCheck("weyl_ricci_formula", "wzl1", "dim4", 1e-3,
                  "dim4", "wzl1", _dim4),
)


# ---------------------------------------------------------------------------
# evaluation environment and group evaluators
# ---------------------------------------------------------------------------

@dataclass
class SuiteEnv:
    spec: ManifoldSpec
    struct: QKTStructure
    points: list
    scheme: FDScheme
    base: QKTStructure | None = None
    factor: object | None = None
    _groups: dict = field(default_factory=dict)

    def group(self, name: str) -> dict:
        if name not in self._groups:
            self._groups[name] = _GROUP_EVALUATORS[name](self)
        return self._groups[name]


def _accumulator(out: dict):
    """acc(key, value) folds a residual into out[key]; None values are skipped."""

    def acc(key, value):
        if value is not None:
            out[key] = worst(out.get(key, 0.0), value)

    return acc


def _eval_structural(env: SuiteEnv) -> dict:
    struct, scheme = env.struct, env.scheme
    n = struct.n
    out: dict = {}
    acc = _accumulator(out)
    for p in env.points:
        inv = structure_invariant_residuals(struct, p)
        acc("quaternionic", inv["quaternionic"])
        acc("hermitian", inv["hermitian"])
        acc("torsion_skew", inv["torsion_skew"])
        acc("metricity", inv["metricity"])
        acc("torsion_purity", inv["torsion_purity"])
        acc("eq1", inv["eq1"])
        acc("l1", torsion_one_form_spread(struct, p))

        bundle = struct.bundle_at(p)
        theta, cross, J = bundle["theta"], bundle["theta_cross"], bundle["J"]
        gamma = struct.connection(p)

        acc("theta_self", np.max(np.abs(cross[CYC_A, CYC_A] - theta)))
        acc("tt1", np.max(np.abs(
            j_apply_oneform(J[CYC_B], cross[CYC_A, CYC_C])
            + j_apply_oneform(J[CYC_C], cross[CYC_A, CYC_B]))))
        acc("per1", np.max(np.abs(
            (n * n + n) * theta - n * theta[CYC_B] - n * n * theta[CYC_C]
            + j_apply_oneform(J[CYC_C], cross[CYC_B, CYC_A])
            + n * j_apply_oneform(J, cross[CYC_C, CYC_B])
            - (n + 1) * j_apply_oneform(J[CYC_B], cross[CYC_A, CYC_C]))))
        aux = auxiliary_one_forms(struct, p)
        acc("c6", np.max(np.abs(
            (n - 1.0) * j_apply_oneform(J[CYC_B], aux.C)
            - (theta - j_apply_oneform(J[CYC_B], cross[CYC_A, CYC_C])))))
        acc("c5", np.max(np.abs(aux.A - j_apply_oneform(J[CYC_B], theta[CYC_C] - theta[CYC_B]))))

        # Nijenhuis comparisons, all from one stencil of the three J's
        T12 = struct.torsion_12_at(p)
        dJ = struct.data.hyper.gradient(p, scheme)
        for a in range(3):
            n_bracket = nijenhuis_bracket(struct.data, a, p, scheme, dJ=dJ[:, a])
            acc("eq6", np.max(np.abs(
                n_bracket - nijenhuis_via_connection(struct, a, p))))
            acc("eq2", np.max(np.abs(
                n_bracket - _nijenhuis_eq2(struct, a, p, gamma, T12, dJ[:, a]))))

        if n >= 2:
            acc("eq4", bundle["existence"])
            acc("eq5_agreement", bundle["alpha_agreement"])
            acc("c7", sp1_forms(struct, p).c7_residual)
        else:
            _dim4_structural(env, p, acc)
    return out


def _nijenhuis_eq2(struct, alpha, p, gamma, T12, dJ):
    """4 T^{0,2}_a plus the nabla-J terms of the bracket formula; dJ = d J_a at p."""
    J = struct.j_at(alpha, p)
    # (nabla_i J)[k, j] = d_i J[k,j] + Gamma[k,i,m] J[m,j] - Gamma[m,i,j] J[k,m]
    nab_j = dJ + np.einsum("kim,mj->ikj", gamma, J) - np.einsum("mij,km->ikj", gamma, J)
    t02 = torsion_02_part(T12, J)
    return (
        4.0 * t02
        + np.einsum("mi,mkj->kij", J, nab_j)
        - np.einsum("mj,mki->kij", J, nab_j)
        - np.einsum("jkm,mi->kij", nab_j, J)
        + np.einsum("ikm,mj->kij", nab_j, J)
    )


def _dim4_structural(env: SuiteEnv, p, acc):
    struct = env.struct
    ctx = _context(struct, p, env.scheme)
    g, ginv, J, F = ctx.g, ctx.ginv, ctx.J, ctx.F
    ori = struct.patch.orientation
    T = struct.torsion(p)
    *t_alpha, t = torsion_one_forms(struct, p)

    # star identity on 1-form probes, and the torsion shape
    for psi in list(np.eye(4)) + [t]:
        acc("tri1", np.max(np.abs(
            hodge_star_array(psi, g, ori) + wedge_arrays(j_apply_oneform(J, psi), F, stack=1))))
    acc("v1", np.max(np.abs(T - wedge_arrays(np.stack(t_alpha), F, stack=1))))
    acc("v1", np.max(np.abs(T - hodge_star_array(t, g, ori))))

    # *dT = -delta t
    delta_t = trace_codifferential(ctx.nabla_g_t, ginv)
    acc("star_dT", np.abs(hodge_star_array(ctx.dT4, g, ori) + delta_t))

    # trace link between nabla T and nabla t (both via the torsion connection):
    # sum_i (nabla_Z T)(J X, e_i, J e_i) = 2 (nabla_Z t)(X)
    traced = frame_trace_pair(ctx.nabla_T[None], ginv, J)
    acc("ser2", np.max(np.abs(traced @ J - 2.0 * ctx.nabla_t(struct.connection(p)))))


def _eval_lc(env: SuiteEnv) -> dict:
    out = {"u3": 0.0, "lchkt": 0.0}
    acc = _accumulator(out)
    for p in env.points:
        acc("u3", lcqk_residual(env.struct, p, env.scheme))
        acc("lchkt", lchkt_residual(env.struct, p, env.scheme))
    return out


def _eval_conformal(env: SuiteEnv) -> dict:
    if env.base is None:
        return {}
    return conformal_law_residuals(
        env.base, env.factor, env.scheme, env.points, rescaled=env.struct)


def _eval_curvature(env: SuiteEnv) -> dict:
    out: dict = {}
    acc = _accumulator(out)
    for p in env.points:
        for key, val in sp1_curvature_residuals(env.struct, p, env.scheme).items():
            acc(key, val)
        for key, val in bianchi_and_symmetry_residuals(env.struct, p, env.scheme).items():
            acc(key, val)
        traces = trace_identity_residuals(env.struct, p, env.scheme)
        acc("ti20", traces["ti20"])
        if "eq22" in traces:
            acc("eq22", traces["eq22"])
        ctx = _context(env.struct, p, env.scheme)
        acc("pair_antisym", worst(*ctx.curv.pair_antisymmetry()))
    return out


def _eval_dim4(env: SuiteEnv) -> dict:
    out: dict = {}
    acc = _accumulator(out)
    for p in env.points:
        for key, val in dim4_einstein_suite(env.struct, p, env.scheme).items():
            if key in ("eq5.67", "eq5.68", "eq5.69"):
                acc(key, val)
        for key, val in weyl_correspondence(env.struct, p, env.scheme).items():
            if key in ("qw", "qkw_sym", "wzl1"):
                acc(key, val)
    return out


_GROUP_EVALUATORS = {
    "structural": _eval_structural,
    "lc": _eval_lc,
    "conformal": _eval_conformal,
    "curvature": _eval_curvature,
    "dim4": _eval_dim4,
}


# ---------------------------------------------------------------------------
# diagnostics (reported, not gated)
# ---------------------------------------------------------------------------

def _diagnostics(env: SuiteEnv, suites: set) -> dict:
    struct = env.struct
    diag: dict = {}
    cls = classify(struct, env.points, env.scheme)
    diag["classification"] = {
        "is_hkt": cls.is_hkt,
        "hkt_residual": cls.hkt_residual,
        "is_integrable": cls.is_integrable,
        "integrable_residual": cls.integrable_residual,
        "is_parallel_torsion": cls.is_parallel_torsion,
        "parallel_torsion_residual": cls.parallel_residual,
        "is_strong": cls.is_strong,
        "strong_residual": cls.strong_residual,
        "dT_type22_residual": cls.dT_type22_residual,
    }
    if "curvature" in suites or "all" in suites:
        acc = _accumulator(diag)
        for p in env.points:
            traces = trace_identity_residuals(struct, p, env.scheme)
            diag["eq27_lambda_last"] = traces["eq27_lambda"]
            acc("eq27_fit", traces["eq27_fit"])
            equalities = dT_trace_equalities(struct, p, env.scheme)
            acc("eq24_trace_equality", equalities["eq24"])
            acc("eq24_prime_11_form", equalities["eq24_prime"])
    if struct.n == 1 and ("dim4" in suites or "all" in suites):
        acc = _accumulator(diag)
        for p in env.points:
            record = dim4_einstein_suite(struct, p, env.scheme)
            acc("einstein_deviation", record["einstein_deviation"])
            acc("sp1_einstein_deviation", record["sp1_einstein_deviation"])
    if struct.n == 1:
        # the torsion-shape half of the l.c. check is trivial in dimension 4
        diag["lcqk_note"] = "dimension 4: the torsion-shape residual vanishes identically"
    return diag


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityResult:
    identity_id: str
    paper_equation: str
    points: int
    max_residual: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "paper_equation": self.paper_equation,
            "points": self.points,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    meta: dict
    results: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent: int = 2) -> str:
        """Strict JSON; a non-finite number is written as "nan", "inf" or "-inf"."""
        return json.dumps(_finite_json(self.to_dict()), indent=indent, allow_nan=False)

    def summary_lines(self) -> list:
        width = max((len(r.identity_id) for r in self.results), default=10)
        lines = [
            f"{'identity':<{width}}  {'tag':<10} {'points':>6} "
            f"{'max_residual':>13} {'tolerance':>10}  status"
        ]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{r.identity_id:<{width}}  {r.paper_equation:<10} {r.points:>6} "
                f"{r.max_residual:>13.3e} {r.tolerance:>10.1e}  {status}"
            )
        return lines


def _finite_json(value):
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _meta(spec: ManifoldSpec, suite: str, extra: dict | None = None) -> dict:
    meta = {
        "spec": spec.to_dict(),
        "suite": suite,
        "seed": spec.seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    if extra:
        meta.update(extra)
    return meta


def run_suite(spec: ManifoldSpec, suite: str = "all") -> VerificationReport:
    """Evaluate the selected identities on the manifold described by ``spec``."""
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; choose from {SUITES}")
    scheme = spec.scheme()
    points = sample_points(spec)

    try:
        struct = build_manifold(spec, check_points=points[: min(3, len(points))])
    except NotQKTError as err:
        details = getattr(err, "details", {}) or {}
        results = []
        if "eq4" in details:
            tol4 = float(spec.tol_overrides.get("existence_condition", 1e-4))
            results.append(IdentityResult(
                "existence_condition", "eq4", min(3, len(points)),
                float(details["eq4"]), tol4, bool(details["eq4"] <= tol4)))
        alg = float(details.get("algebra", err.residual))
        tol_alg = float(spec.tol_overrides.get("quaternionic_identities", 1e-10))
        results.append(IdentityResult(
            "quaternionic_identities", "sec2-def", min(3, len(points)),
            alg, tol_alg, bool(alg <= tol_alg)))
        return VerificationReport(
            meta=_meta(spec, suite, {"build_error": str(err)}),
            results=tuple(results),
        )

    base, factor = (None, None)
    if spec.kind in ("conformal_flat", "hopf_local"):
        base, factor = conformal_ingredients(spec)

    env = SuiteEnv(spec=spec, struct=struct, points=points, scheme=scheme,
                   base=base, factor=factor)

    selected = set(SUITES[1:]) if suite == "all" else {suite}
    results = []
    for check in CATALOGUE:
        if check.suite not in selected or not check.applies(env):
            continue
        value = env.group(check.group).get(check.key)
        if value is None:
            continue
        tol = float(spec.tol_overrides.get(check.identity_id, check.tolerance))
        results.append(IdentityResult(
            identity_id=check.identity_id,
            paper_equation=check.paper_equation,
            points=len(points),
            max_residual=float(value),
            tolerance=tol,
            passed=bool(value <= tol),
        ))

    diagnostics = _diagnostics(env, selected)
    return VerificationReport(
        meta=_meta(spec, suite, {"diagnostics": diagnostics}),
        results=tuple(results),
    )
