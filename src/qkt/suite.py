"""Identity catalogue, suite runner, and machine-readable reports.

Every identity the library verifies appears exactly once in the
catalogue with its equation tag, default tolerance, and the evaluator
group and key that compute it.  ``run_suite`` splits the seeded
quasi-random interior points into chunks
(``qkt_connection.point_chunks``), opens one context per chunk, and runs
the selected groups' identity records and the diagnostics once per chunk
on it.  On its first step-h2 read the context differences, in one pass, the
step-h2 layers that the run's groups and diagnostics read (``_GROUP_READS``).
Each record returns one residual per point, and only the runner reduces
them to the max residual per identity (NaN wins).  Whether a row exists is
decided once: by the kind/n rule of its group (``lc``, ``conformal``,
``dim4``), and by its record, which omits (or returns None for) a key that
does not exist for the structure's n.  Quantities that are classifiers
rather than identities (type of dT, Einstein deviations, the
proportionality probe) come from the same pass and are reported as
diagnostics in the metadata instead of as pass/fail rows.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .conformal import conformal_law_residuals, lchkt_residual, lcqk_residual
from .curvature import (
    bianchi_and_symmetry_residuals,
    dT_trace_equalities,
    dim4_einstein_suite,
    sp1_curvature_residuals,
    trace_identity_residuals,
    weyl_correspondence,
)
from .errors import InputError, NotQKTError
from .qkt_connection import (
    CHECK_POINTS,
    Classification,
    QKTContext,
    _check,
    c7_residual,
    classification_residuals,
    nijenhuis_via_connection,
    point_chunks,
    structure_invariant_residuals,
    torsion_one_form_spread,
)
from .quaternionic import (
    CYC_A,
    CYC_B,
    CYC_C,
    j_apply_oneform,
    j_apply_slot,
    nijenhuis_bracket,
    skew_bracket,
)
from .tensor_core import (
    fold,
    hodge_star_array,
    wedge_arrays,
)
# build_manifold is not called here: perfbench/layertrace.py wraps it in this namespace
from .zoo import ManifoldSpec, build_manifold, build_structure, sample_points

# the suite of each evaluator group, in evaluation order
_GROUP_SUITES = {
    "structural": "connection",
    "lc": "connection",
    "conformal": "conformal",
    "curvature": "curvature",
    "dim4": "dim4",
}
SUITES = ("all", *dict.fromkeys(_GROUP_SUITES.values()))


@dataclass(frozen=True)
class IdentityCheck:
    identity_id: str
    paper_equation: str
    tolerance: float
    group: str            # evaluator-group name; the group fixes the suite
    key: str              # key within the group's result dict


CATALOGUE = (
    # -- connection-level identities -------------------------------------
    IdentityCheck("quaternionic_identities", "sec2-def", 1e-10, "structural", "quaternionic"),
    IdentityCheck("hermitian_metric", "sec2-def", 1e-10, "structural", "hermitian"),
    IdentityCheck("torsion_skew_symmetry", "eq5", 1e-10, "structural", "torsion_skew"),
    IdentityCheck("connection_metricity", "def-qkt", 1e-5, "structural", "metricity"),
    IdentityCheck("torsion_type_purity", "tr1", 1e-5, "structural", "torsion_purity"),
    IdentityCheck("sp1_shape_of_nabla_J", "eq1", 1e-5, "structural", "eq1"),
    IdentityCheck("torsion_one_form_common", "l1", 1e-8, "structural", "l1"),
    IdentityCheck("lee_form_self_trace", "theta-aa", 1e-5, "structural", "theta_self"),
    IdentityCheck("cross_lee_antisymmetry", "tt1", 1e-5, "structural", "tt1"),
    IdentityCheck("lee_form_linear_relation", "per1", 1e-5, "structural", "per1"),
    IdentityCheck("difference_form_from_lee", "c5", 1e-5, "structural", "c5"),
    IdentityCheck("c_form_from_lee", "c6", 1e-5, "structural", "c6"),
    IdentityCheck("nijenhuis_via_torsion_parts", "eq2", 1e-5, "structural", "eq2"),
    IdentityCheck("nijenhuis_via_lee_difference", "eq6", 1e-5, "structural", "eq6"),
    IdentityCheck("existence_condition", "eq4", 1e-4, "structural", "eq4"),
    IdentityCheck("torsion_alpha_consistency", "eq5", 1e-5, "structural", "eq5_agreement"),
    IdentityCheck("sp1_closed_formula", "c7", 1e-5, "structural", "c7"),
    IdentityCheck("star_one_form_identity", "tri1", 1e-10, "structural", "tri1"),
    IdentityCheck("torsion_is_star_of_t", "v1", 1e-10, "structural", "v1"),
    # second-level derivative when the torsion itself is FD-built (hopf),
    # first-level instances sit many orders below this
    IdentityCheck("star_dT_is_minus_delta_t", "sec5-codiff", 1e-4, "structural", "star_dT"),
    IdentityCheck("parallel_torsion_link", "ser2", 1e-4, "structural", "ser2"),
    IdentityCheck("lcqk_torsion_shape", "u3", 1e-5, "lc", "u3"),
    IdentityCheck("lchkt_closed_form", "u1-ii", 1e-4, "lc", "lchkt"),
    # -- conformal transformation laws ------------------------------------
    IdentityCheck("conformal_connection_law", "z1", 1e-5, "conformal", "z1"),
    IdentityCheck("conformal_twisted_derivative", "z2", 1e-5, "conformal", "z2_dcf"),
    IdentityCheck("conformal_lee_form", "z2", 1e-5, "conformal", "z2_theta"),
    IdentityCheck("conformal_cross_lee", "z2", 1e-5, "conformal", "z2_cross"),
    IdentityCheck("conformal_compatibility_form", "z3", 1e-5, "conformal", "z3_K"),
    IdentityCheck("conformal_difference_form", "z3", 1e-5, "conformal", "z3_A"),
    IdentityCheck("conformal_sp1_form", "z3", 1e-5, "conformal", "z3_omega"),
    IdentityCheck("conformal_torsion_law", "z4", 1e-5, "conformal", "z4"),
    IdentityCheck("conformal_torsion_one_form", "z5", 1e-5, "conformal", "z5"),
    IdentityCheck("conformal_dt_invariance", "z5-cor", 1e-5, "conformal", "dt_invariance"),
    # -- curvature identities ---------------------------------------------
    IdentityCheck("sp1_curvature_commutator", "eq11", 1e-3, "curvature", "eq11"),
    IdentityCheck("ricci_form_from_sp1", "eq12", 1e-3, "curvature", "eq12"),
    IdentityCheck("dT_expansion", "eq13", 1e-3, "curvature", "eq13"),
    IdentityCheck("first_bianchi", "eq14", 1e-3, "curvature", "eq14"),
    IdentityCheck("levi_civita_comparison", "eq15", 1e-3, "curvature", "eq15"),
    IdentityCheck("curvature_pair_swap", "tir1", 1e-3, "curvature", "tir1"),
    IdentityCheck("two_torsion_derivatives", "sof", 1e-3, "curvature", "sof"),
    IdentityCheck("skew_ricci_coclosure", "remark3", 1e-3, "curvature", "remark3"),
    IdentityCheck("ricci_trace_identity", "ti20", 1e-3, "curvature", "ti20"),
    IdentityCheck("ricci_trace_resolution", "eq22", 1e-3, "curvature", "eq22"),
    IdentityCheck("curvature_pair_antisymmetry", "sec3-def", 1e-4, "curvature", "pair_antisym"),
    # -- dimension-4 Einstein-like and Weyl -------------------------------
    IdentityCheck("sp1_trace_formula", "5.67", 1e-3, "dim4", "eq5.67"),
    IdentityCheck("skew_ricci_formula", "5.68", 1e-3, "dim4", "eq5.68"),
    IdentityCheck("riemannian_ricci_formula", "5.69", 1e-3, "dim4", "eq5.69"),
    IdentityCheck("weyl_metric_condition", "qw", 1e-8, "dim4", "qw"),
    IdentityCheck("weyl_correspondence_sym", "qkw", 1e-3, "dim4", "qkw_sym"),
    IdentityCheck("weyl_ricci_formula", "wzl1", 1e-3, "dim4", "wzl1"),
)
_CHECKS = {check.identity_id: check for check in CATALOGUE}


# ---------------------------------------------------------------------------
# group evaluators
# ---------------------------------------------------------------------------

# Each group evaluator reads the context of one chunk of sample points and
# returns one residual per point and key; run_suite reduces them.

def _eval_structural(ctx: QKTContext) -> dict:
    n = ctx.struct.n
    out = structure_invariant_residuals(ctx)
    out["l1"] = torsion_one_form_spread(ctx)

    theta, cross, J = ctx.theta, ctx.theta_cross, ctx.J
    J_b, J_c = J[..., CYC_B, :, :], J[..., CYC_C, :, :]
    cross_ac = cross[..., CYC_A, CYC_C, :]
    out["theta_self"] = ctx.residual(cross[..., CYC_A, CYC_A, :] - theta)
    out["tt1"] = ctx.residual(
        j_apply_oneform(J_b, cross_ac) + j_apply_oneform(J_c, cross[..., CYC_A, CYC_B, :]))
    out["per1"] = ctx.residual(
        (n * n + n) * theta - n * theta[..., CYC_B, :] - n * n * theta[..., CYC_C, :]
        + j_apply_oneform(J_c, cross[..., CYC_B, CYC_A, :])
        + n * j_apply_oneform(J, cross[..., CYC_C, CYC_B, :])
        - (n + 1) * j_apply_oneform(J_b, cross_ac))
    A, C = ctx.auxiliary
    out["c6"] = ctx.residual((n - 1.0) * j_apply_oneform(J_b, C) - ctx.lchkt_candidates)
    out["c5"] = ctx.residual(A - ctx.lee_differences)

    # Nijenhuis comparisons of the three J's, all from one stencil of the triple
    n_bracket = nijenhuis_bracket(J, np.moveaxis(ctx.dJ, -4, -3))
    out["eq6"] = ctx.residual(n_bracket - nijenhuis_via_connection(ctx))
    out["eq2"] = ctx.residual(n_bracket - _nijenhuis_eq2(ctx))

    if n >= 2:
        # the eq4 existence defect and the eq5 agreement are one quantity
        out["eq4"] = out["eq5_agreement"] = ctx.existence
        out["c7"] = c7_residual(ctx)
    else:
        out.update(_dim4_structural(ctx))
    return out


def _nijenhuis_eq2(ctx: QKTContext):
    """4 T^{0,2}_a plus the nabla-J terms of the bracket formula, per structure a."""
    J = ctx.J
    nab_j = ctx.nabla_J   # [..., a, m, k, j]
    # W[i, k, j] = J^m_i (nabla_m J)^k_j + (nabla_i J)^k_m J^m_j
    W = j_apply_slot(J, nab_j, 0)
    W += j_apply_slot(J, nab_j, 2)
    return 4.0 * ctx.T02 + skew_bracket(W)


def _star_identity(ctx: QKTContext) -> np.ndarray:
    """The star identity on the 1-form probes e^1..e^4 and t, stacked after the points."""
    J, t = ctx.J, ctx.t
    probes = np.concatenate([np.broadcast_to(np.eye(4), t.shape[:-1] + (4, 4)),
                             t[..., None, :]], axis=-2)
    star = hodge_star_array(probes, ctx.ginv[..., None, :, :], ctx.vol[..., None])
    J_psi = j_apply_oneform(J[..., None, :, :, :], probes[..., None, :])
    wedge = wedge_arrays(J_psi, ctx.F[..., None, :, :, :], stack=J_psi.ndim - 1)
    return ctx.residual(star[..., None, :, :, :] + wedge)


def _dim4_structural(ctx: QKTContext) -> dict:
    ginv, vol, T, t = ctx.ginv, ctx.vol, ctx.T, ctx.t
    return {
        # its stacks are freed before dT and nabla T start the step-h2 pass
        "tri1": _star_identity(ctx),
        # the torsion shape
        "v1": ctx.residual(T[..., None, :, :, :] - ctx.t_wedge_F,
                           T - hodge_star_array(t, ginv, vol)),
        # *dT = -delta t
        "star_dT": ctx.residual(hodge_star_array(ctx.dT, ginv, vol) + ctx.delta_t),
        # trace link between nabla T and nabla t (both via the torsion connection):
        # sum_i (nabla_Z T)(J X, e_i, J e_i) = 2 (nabla_Z t)(X)
        "ser2": ctx.residual(ctx.nabla_Ta_J - 2.0 * ctx.nabla_t[..., None, :, :]),
    }


def _eval_lc(ctx: QKTContext) -> dict:
    return {"u3": lcqk_residual(ctx), "lchkt": lchkt_residual(ctx)}


def _eval_conformal(ctx: QKTContext) -> dict:
    # the base context is the one the rescaled torsion (n = 1) reads
    return conformal_law_residuals(ctx.base, ctx)


def _eval_curvature(ctx: QKTContext) -> dict:
    return {**sp1_curvature_residuals(ctx), **bianchi_and_symmetry_residuals(ctx),
            **trace_identity_residuals(ctx), **dT_trace_equalities(ctx),
            "pair_antisym": np.maximum(*ctx.curv.pair_antisymmetry())}


def _eval_dim4(ctx: QKTContext) -> dict:
    return {**dim4_einstein_suite(ctx), **weyl_correspondence(ctx)}


_GROUP_EVALUATORS = {
    "structural": _eval_structural,
    "lc": _eval_lc,
    "conformal": _eval_conformal,
    "curvature": _eval_curvature,
    "dim4": _eval_dim4,
}

# The step-h2 layers (NESTED_LAYERS) that each group's records read, directly or through
# dT, nabla T, dt, nabla t, delta t or a curvature; a constant triple's d omega is d Gamma's
_GROUP_READS = {
    "structural": ("T", "t"),                          # dimension 4: *dT, nabla T, nabla t
    "lc": ("t", "lchkt_candidates"),
    "conformal": ("t",),                               # dt, also of a varying base
    "curvature": ("T", "Gamma", "gamma_g", "omega"),
    "dim4": ("t", "Gamma", "gamma_g", "gamma_w"),
}

# The kind/n rule of each group that holds for some structures only; within
# a group the records decide which keys exist for the structure's n.
_GROUP_APPLIES = {
    "lc": lambda spec, struct: spec.kind != "dim4_torsion",   # locally conformally flat kinds
    "conformal": lambda spec, struct: struct.base is not None,  # kinds with a conformal base
    "dim4": lambda spec, struct: spec.n == 1,
}


# ---------------------------------------------------------------------------
# diagnostics (reported, not gated)
# ---------------------------------------------------------------------------

def _diagnostics(ctx: QKTContext, classified: dict) -> None:
    """Fold the classification residuals of one chunk of sample points into
    ``classified``."""
    fold(classified, classification_residuals(ctx))


_DIAGNOSTICS_READS = ("T",)   # the step-h2 layers of the classification: dT and nabla T

# diagnostic -> (group, key) of the folded group values it reports; the
# groups' identity records compute them in the same pass as the rows
_DIAGNOSTICS = {
    "eq27_fit": ("curvature", "eq27_fit"),
    "eq24_trace_equality": ("curvature", "eq24"),
    "eq24_prime_11_form": ("curvature", "eq24_prime"),
    "einstein_deviation": ("dim4", "einstein_deviation"),
    "sp1_einstein_deviation": ("dim4", "sp1_einstein_deviation"),
}


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

    def to_json(self) -> str:
        """Strict JSON, indented by two; a non-finite number as "nan", "inf" or "-inf"."""
        return _json(self.to_dict())

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


def _json(value, pad: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, a non-finite float as "nan",
    "inf" or "-inf", ``pad`` opening its lines; a non-str key or non-JSON type is a TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else f'"{float.__repr__(value)}"'
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        items, ends = [_json(item, inner) for item in value], "[]"
    elif isinstance(value, dict):
        items, ends = [f"{encode_basestring_ascii(key)}: {_json(item, inner)}"
                       for key, item in value.items()], "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends


def _meta(spec: ManifoldSpec, suite: str, extra: dict) -> dict:
    return {
        "spec": spec.to_dict(),
        "suite": suite,
        "seed": spec.seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
        **extra,
    }


def run_suite(spec: ManifoldSpec, suite: str = "all") -> VerificationReport:
    """Evaluate the selected identities on the manifold described by ``spec``.

    Non-finite intermediate values raise no numpy warnings: they reach the
    residuals, and their rows fail.
    """
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; choose from {SUITES}")
    unknown = sorted(set(spec.tol_overrides).difference(_CHECKS))
    if unknown:
        raise InputError(f"tolerance override for unknown identity ids {unknown}")
    invalid = sorted(key for key, tol in spec.tol_overrides.items()
                     if not (math.isfinite(tol) and tol >= 0))
    if invalid:
        raise InputError(f"tolerance overrides must be finite and >= 0, got {invalid}")
    with np.errstate(all="ignore"):
        return _run_suite(spec, suite)


def _result(spec: ManifoldSpec, check: IdentityCheck, value, points: int) -> IdentityResult:
    """The report row of ``check`` for its worst residual ``value`` over ``points`` points."""
    tol = float(spec.tol_overrides.get(check.identity_id, check.tolerance))
    return IdentityResult(check.identity_id, check.paper_equation, points, float(value), tol,
                          bool(value <= tol))


def _run_suite(spec: ManifoldSpec, suite: str) -> VerificationReport:
    points = sample_points(spec)
    chunks = list(point_chunks(points))

    try:
        struct = build_structure(spec)
        groups = {name: {} for name, group_suite in _GROUP_SUITES.items()
                  if suite in ("all", group_suite)
                  and _GROUP_APPLIES.get(name, lambda spec, struct: True)(spec, struct)}
        # the step-h2 layers that the run reads, the only ones its contexts difference
        reads = set(_DIAGNOSTICS_READS).union(*(_GROUP_READS[name] for name in groups))
        # a constant base is the same at every point: one context of it serves every chunk
        base = struct.base.at(points[0]) if struct.base and struct.base.constant else None
        # the build check reads the first CHECK_POINTS points in the run's own contexts
        checked = [struct.at(chunk, base, reads)
                   for chunk in chunks[:math.ceil(CHECK_POINTS / len(chunks[0]))]]
        _check(*checked, count=CHECK_POINTS)
    except NotQKTError as err:
        # the rows of the build's own checks, over its check points
        values = {"existence_condition": err.details.get("eq4"),
                  "quaternionic_identities": err.details["algebra"]}
        results = [_result(spec, _CHECKS[name], value, min(CHECK_POINTS, len(points)))
                   for name, value in values.items() if value is not None]
        return VerificationReport(
            meta=_meta(spec, suite, {"build_error": str(err)}),
            results=tuple(results),
        )

    classified: dict = {}
    # one context per chunk of sample points, read by every group and the
    # classification; the next chunk's context replaces it before computing
    # any layer
    for chunk in chunks:
        ctx = checked.pop(0) if checked else struct.at(chunk, base, reads)
        last = {name: _GROUP_EVALUATORS[name](ctx) for name in groups}
        for name, values in last.items():
            fold(groups[name], values)
        _diagnostics(ctx, classified)

    diagnostics = {"classification": dict(vars(Classification.of(classified)))}  # no deep copy
    if "curvature" in groups:
        # the proportionality factor at the last sample point, not a maximum
        diagnostics["eq27_lambda_last"] = float(last["curvature"]["eq27_lambda"][-1])
    diagnostics.update({name: groups[group][key]
                        for name, (group, key) in _DIAGNOSTICS.items() if group in groups})
    if struct.n == 1:
        # the torsion-shape half of the l.c. check is trivial in dimension 4
        diagnostics["lcqk_note"] = "dimension 4: the torsion-shape residual vanishes identically"

    values = {check: groups.get(check.group, {}).get(check.key) for check in CATALOGUE}
    results = [_result(spec, check, value, len(points))
               for check, value in values.items() if value is not None]
    return VerificationReport(
        meta=_meta(spec, suite, {"diagnostics": diagnostics}),
        results=tuple(results),
    )
