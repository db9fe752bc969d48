"""Construction of the metric quaternionic connection with skew torsion.

For n >= 2 the connection is assembled pointwise from the compatibility
data of the three Kaehler forms: the candidate torsion is

    T = (d_a F_a)^+ - (J_a K_a ^ F_c + K_a ^ F_b) / 2,

with K_a = (J_b theta_a + theta_{a,c}) / (1 - n), and the construction is
accepted only if the three alpha-versions agree and the existence
condition relating the (1,2)+(2,1) parts of the twisted derivatives
holds.  In dimension 4 the torsion is instead the Hodge dual of a freely
chosen 1-form.  Either way the connection is nabla^g + T/2 and the sp(1)
connection 1-forms are recovered by solving nabla J_a = -omega_b (x) J_c
+ omega_c (x) J_b pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NotQKTError
from .quaternionic import (
    CYC_A,
    CYC_B,
    CYC_C,
    CYCLIC,
    HypercomplexField,
    QuaternionicHermitianData,
    frame_trace_pair,
    j_apply_form,
    j_apply_oneform,
    project_plus_3form,
    quaternionic_residuals,
    torsion_02_part,
)
from .tensor_core import (
    ConnectionField,
    CoordinatePatch,
    FDScheme,
    FormField,
    TensorField,
    antisymmetrized_gradient,
    covariant_derivative_array,
    gradient,
    hodge_star_array,
    levi_civita,
    metric_gradient,
    trace_codifferential,
    wedge_arrays,
    worst,
)

DEFAULT_EXISTENCE_TOL = 1e-4
ALGEBRA_TOL = 1e-8


# ---------------------------------------------------------------------------
# pointwise first-order bundle
# ---------------------------------------------------------------------------

def _section2_bundle(data: QuaternionicHermitianData,
                     p: np.ndarray,
                     scheme: FDScheme) -> dict:
    """All first-order objects needed by the torsion formula at the points ``p``.

    Every quantity carries the point axes first, then the quaternionic index;
    the two residuals are per point.
    """
    p = np.asarray(p, dtype=float)
    g = data.metric_at(p)
    ginv = np.linalg.inv(g)
    J = data.hyper.matrices(p)
    gamma_g = levi_civita(data.patch.metric, p, scheme)
    F = g[..., None, :, :] @ J

    # one stencil of the stacked F serves both dF and nabla^g F
    def kaehler_stack(q):
        return data.metric_at(q)[..., None, :, :] @ data.hyper.matrices(q)

    grad_f = gradient(kaehler_stack, p, scheme)
    # Lee forms theta_a = (delta F_a) o J_a
    nabla_f = covariant_derivative_array(
        gamma_g, TensorField("dd", kaehler_stack), p, scheme, grad=grad_f)
    theta = -j_apply_oneform(J, trace_codifferential(nabla_f, ginv, degree=2))
    dF = antisymmetrized_gradient(np.moveaxis(grad_f, -4, -3), degree=2)
    # the 3-form arrays of a stencil batch are the largest temporaries: drop each when done
    del grad_f, nabla_f
    # twisted derivatives d_a F_a and their (1,2)+(2,1) parts
    dcF_plus = project_plus_3form(j_apply_form(J, dF), J)
    dF_plus = project_plus_3form(dF, J)
    del dF
    # cross Lee forms theta[a, b](X) = -1/2 sum_i dF_a^+(X, e_i, J_b e_i)
    theta_cross = -0.5 * frame_trace_pair(dF_plus[..., None, :, :, :], ginv, J[..., None, :, :, :])
    del dF_plus

    bundle = {
        "g": g, "J": J, "F": F,
        "theta": theta, "theta_cross": theta_cross, "dcF_plus": dcF_plus,
    }

    if data.n >= 2:
        K = (j_apply_oneform(J[..., CYC_B, :, :], theta)
             + theta_cross[..., CYC_A, CYC_C, :]) / (1.0 - data.n)
        bundle["K"] = K

        stack = K.ndim - 1
        JK = j_apply_oneform(J, K)
        F_b, F_c = F[..., CYC_B, :, :], F[..., CYC_C, :, :]
        K_Fb = wedge_arrays(K, F_b, stack=stack)
        versions = dcF_plus - 0.5 * (wedge_arrays(JK, F_c, stack=stack) + K_Fb)
        bundle["torsion"] = versions.sum(axis=-4) / 3.0
        slots = (-4, -3, -2, -1)
        bundle["alpha_agreement"] = np.max(np.abs(versions - versions[..., CYC_B, :, :, :]),
                                           axis=slots)
        del versions

        # the existence defect, accumulated in place over K ^ F_b
        rhs = K_Fb
        rhs -= wedge_arrays(JK[..., CYC_B, :], F, stack=stack)
        rhs -= wedge_arrays(K[..., CYC_B, :] - JK, F_c, stack=stack)
        rhs *= 0.5
        defect = dcF_plus - dcF_plus[..., CYC_B, :, :, :]
        defect -= rhs
        bundle["existence"] = np.max(np.abs(defect), axis=slots)

    return bundle


def existence_residual(data: QuaternionicHermitianData,
                       p: np.ndarray,
                       scheme: FDScheme,
                       bundles: dict | None = None) -> float:
    """Worst defect of the pairwise compatibility condition at ``p``.

    ``bundles`` is a point-keyed memo of first-order bundles to read and fill.
    """
    if data.n < 2:
        raise DimensionError("the existence condition applies to n >= 2 only")
    data.patch.require_interior(p, scheme.margin)
    bundles = {} if bundles is None else bundles
    return _memoized(bundles, p, lambda q: _section2_bundle(data, q, scheme))["existence"]


# ---------------------------------------------------------------------------
# the structure object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QKTStructure:
    """A built torsion connection: immutable fields plus per-point memo caches."""

    data: QuaternionicHermitianData
    scheme: FDScheme
    torsion: FormField
    connection: ConnectionField
    sp1_forms: tuple
    kind: str
    caches: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.data.dim

    @property
    def patch(self) -> CoordinatePatch:
        return self.data.patch

    def metric_at(self, p: np.ndarray) -> np.ndarray:
        return self.data.metric_at(p)

    def j_at(self, alpha: int, p: np.ndarray) -> np.ndarray:
        return self.data.j_at(alpha, p)

    def torsion_12_at(self, p: np.ndarray) -> np.ndarray:
        """Torsion as a (1,2) tensor, raised from the stored 3-form."""
        ginv = np.linalg.inv(self.metric_at(p))
        return np.einsum("ijm,mk->kij", self.torsion(p), ginv)

    def bundle_at(self, p: np.ndarray) -> dict:
        """Memoized first-order bundle (n >= 2 structures carry torsion data)."""
        return _memoized(self.caches.setdefault("bundle", {}), p,
                         lambda q: _section2_bundle(self.data, q, self.scheme))

    def torsion_one_form_field(self) -> FormField:
        """The common 1-form J_a t_a derived from the stored torsion."""

        def t_at(q):
            return torsion_one_forms(self, q)[3]

        return FormField(1, t_at, nested=True)


def _memoized(cache: dict, p: np.ndarray, compute: Callable[[np.ndarray], np.ndarray]):
    """``compute(p)``, kept per point array: a shared stencil batch is one entry."""
    key = np.asarray(p, dtype=float).tobytes()
    if key not in cache:
        cache[key] = compute(np.asarray(p, dtype=float))
    return cache[key]


def _assemble(data: QuaternionicHermitianData,
              torsion_at: Callable[[np.ndarray], np.ndarray],
              scheme: FDScheme,
              kind: str,
              nested_torsion: bool = True) -> QKTStructure:
    # the closures hold the inner dicts, not ``caches``, which stores
    # omega_bundle: a cycle would outlive the structure until a full gc pass
    caches: dict = {"T": {}, "Gamma": {}, "omega": {}}
    t_cache, gamma_cache, omega_cache = caches["T"], caches["Gamma"], caches["omega"]

    def torsion_memo(p):
        return _memoized(t_cache, p, torsion_at)

    torsion_field = FormField(3, torsion_memo, nested=nested_torsion)

    def gamma_at(p):
        def compute(q):
            ginv = np.linalg.inv(data.metric_at(q))
            gamma_g = levi_civita(data.patch.metric, q, scheme)
            return gamma_g + 0.5 * np.einsum("...ijm,...ml->...lij", torsion_memo(q), ginv)

        return _memoized(gamma_cache, p, compute)

    connection = ConnectionField(gamma_at, nested=True)

    def omega_bundle(p):
        def compute(q):
            return _extract_sp1(data, connection, q, scheme)

        return _memoized(omega_cache, p, compute)

    def omega_field(alpha):
        return FormField(1, lambda q: omega_bundle(q)[0][..., alpha, :], nested=True)

    struct = QKTStructure(
        data=data,
        scheme=scheme,
        torsion=torsion_field,
        connection=connection,
        sp1_forms=(omega_field(0), omega_field(1), omega_field(2)),
        kind=kind,
        caches=caches,
    )
    caches["omega_bundle"] = omega_bundle
    return struct


def _extract_sp1(data: QuaternionicHermitianData,
                 connection: ConnectionField,
                 p: np.ndarray,
                 scheme: FDScheme):
    """Solve nabla J_a = -omega_b (x) J_c + omega_c (x) J_b for the omegas at the points ``p``.

    Each omega is recovered from both equations containing it; the returned
    per-point residual tracks the worst least-squares defect and the worst
    disagreement between the two recoveries.
    """
    dim = data.dim
    points = np.shape(p)[:-1]
    J = data.hyper.matrices(p)
    # gamma_dir[..., i] = Gamma[..., :, i, :]: nabla_i J_a = d_i J_a + [Gamma_i, J_a]
    gamma_dir = np.swapaxes(connection(p), -3, -2)[..., None, :, :]
    dJ = data.hyper.gradient(p, scheme)
    J_i = J[..., None, :, :, :]
    nabla_j = gamma_dir @ J_i                                    # [..., i, a, k, j]
    nabla_j += dJ
    nabla_j -= J_i @ gamma_dir
    # per cyclic triple (a, b, c): design [-J_c, J_b] with one column per
    # direction on the right, solved through the stacked 2x2 normal equations
    # (general, since the columns are orthogonal only for a compatible triple)
    flat = J.reshape(points + (3, dim * dim))
    design = np.stack([-flat[..., CYC_C, :], flat[..., CYC_B, :]], axis=-1)
    rhs = np.moveaxis(nabla_j.reshape(points + (dim, 3, dim * dim)), -3, -1)  # [..., a, kj, i]
    design_t = np.swapaxes(design, -1, -2)
    coeffs = np.linalg.solve(design_t @ design, design_t @ rhs)  # [..., a, 2, i]
    defect = design @ coeffs
    defect -= rhs
    residual = np.max(np.abs(defect, out=defect), axis=(-3, -2, -1))
    # omega_k comes from the triple with b = k and the triple with c = k
    from_b, from_c = coeffs[..., CYC_C, 0, :], coeffs[..., CYC_B, 1, :]
    omegas = (from_b + from_c) / 2.0
    residual = np.maximum(residual, np.max(np.abs(from_b - from_c), axis=(-2, -1)))
    return omegas, residual


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_qkt(data: QuaternionicHermitianData,
              scheme: FDScheme,
              existence_tol: float = DEFAULT_EXISTENCE_TOL,
              check_points: Sequence[np.ndarray] | None = None) -> QKTStructure:
    """Build the unique torsion connection on a 4n-dimensional patch, n >= 2."""
    if data.n < 2:
        raise DimensionError("build_qkt needs n >= 2; use build_qkt_dim4 for n = 1")
    if check_points is None:
        check_points = [data.patch.center()]

    # the check-point bundles seed the structure's bundle cache
    bundle_cache: dict = {}
    worst_alg = 0.0
    worst_exist = 0.0
    for p in check_points:
        data.patch.validate_metric_at(p)
        residuals = quaternionic_residuals(data, p)
        worst_alg = worst(worst_alg, residuals["algebra"], residuals["square"],
                          residuals["hermitian"])
        worst_exist = worst(worst_exist, existence_residual(data, p, scheme, bundle_cache))
    if not (worst_alg <= ALGEBRA_TOL and worst_exist <= existence_tol):
        err = NotQKTError(
            f"no compatible torsion connection: existence residual "
            f"{worst_exist:.3e} (tolerance {existence_tol:.1e}), quaternionic "
            f"algebra residual {worst_alg:.3e}",
            residual=worst(worst_exist, worst_alg),
        )
        err.details = {"eq4": worst_exist, "algebra": worst_alg}
        raise err

    def torsion_at(p):
        return _memoized(
            bundle_cache, p, lambda q: _section2_bundle(data, q, scheme)
        )["torsion"]

    struct = _assemble(data, torsion_at, scheme, kind="generic")
    struct.caches["bundle"] = bundle_cache
    return struct


def build_qkt_dim4(patch: CoordinatePatch,
                   hyper: HypercomplexField,
                   t_form: FormField,
                   scheme: FDScheme) -> QKTStructure:
    """Build the dimension-4 structure with torsion the Hodge dual of ``t_form``."""
    if patch.n != 1:
        raise DimensionError("build_qkt_dim4 needs n = 1")
    data = QuaternionicHermitianData(patch, hyper)
    patch.validate_metric_at(patch.center())
    residuals = quaternionic_residuals(data, patch.center())
    if not worst(residuals["algebra"], residuals["square"], residuals["hermitian"]) <= ALGEBRA_TOL:
        err = NotQKTError(
            f"hypercomplex triple incompatible with the metric: "
            f"algebra residual {residuals['algebra']:.3e}",
            residual=residuals["algebra"],
        )
        err.details = {"algebra": residuals["algebra"]}
        raise err

    def torsion_at(p):
        return hodge_star_array(t_form(p), patch.metric_at(p), patch.orientation)

    return _assemble(data, torsion_at, scheme, kind="dim4",
                     nested_torsion=t_form.nested)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def _torsion_traces(struct: QKTStructure, p: np.ndarray):
    """Memoized read-only (t_alpha, J_a t_a, t) at the points ``p``, stacked over alpha."""

    def compute(q):
        T = struct.torsion(q)
        ginv = np.linalg.inv(struct.metric_at(q))
        J = struct.data.hyper.matrices(q)
        t_alpha = -0.5 * frame_trace_pair(T[..., None, :, :, :], ginv, J)
        images = j_apply_oneform(J, t_alpha)
        t = images.mean(axis=-2)
        for arr in (t_alpha, images, t):
            arr.flags.writeable = False
        return t_alpha, images, t

    return _memoized(struct.caches.setdefault("t_forms", {}), p, compute)


def torsion_one_forms(struct: QKTStructure, p: np.ndarray):
    """(t_1, t_2, t_3, t): the torsion traces and their common J-image."""
    t_alpha, _, t = _torsion_traces(struct, p)
    return t_alpha[..., 0, :], t_alpha[..., 1, :], t_alpha[..., 2, :], t


def torsion_one_form_spread(struct: QKTStructure, p: np.ndarray) -> float:
    """max_{a,b} |J_a t_a - J_b t_b| -- zero when the torsion is pure."""
    _, images, _ = _torsion_traces(struct, p)
    return float(np.max(np.abs(images - images[CYC_B])))


@dataclass(frozen=True)
class Sp1Forms:
    """sp(1) connection 1-forms at a point plus extraction diagnostics."""

    omegas: np.ndarray          # shape (3, 4n)
    eq1_residual: float
    c7_residual: float | None   # None for n = 1


def sp1_forms(struct: QKTStructure, p: np.ndarray, scheme: FDScheme | None = None) -> Sp1Forms:
    """Extract the sp(1) connection forms; for n >= 2 cross-check the closed formula."""
    if scheme is None or scheme == struct.scheme:
        omegas, residual = struct.caches["omega_bundle"](p)
    else:
        omegas, residual = _extract_sp1(struct.data, struct.connection, p, scheme)
    c7 = None
    if struct.n >= 2:
        bundle = struct.bundle_at(p)
        theta, cross, J = bundle["theta"], bundle["theta_cross"], bundle["J"]
        closed_form = 0.5 * j_apply_oneform(
            J[CYC_B], theta[CYC_C] - theta[CYC_B] + theta / (1.0 - struct.n)
        ) + cross[CYC_A, CYC_C] / (2.0 * (1.0 - struct.n))
        c7 = float(np.max(np.abs(closed_form - omegas[CYC_B])))
    return Sp1Forms(omegas=omegas, eq1_residual=residual, c7_residual=c7)


@dataclass(frozen=True)
class AuxiliaryOneForms:
    """The 1-forms attached to a structure at a point."""

    K: np.ndarray | None    # (3, 4n); None for n = 1
    A: np.ndarray           # (3, 4n), from the sp(1) forms
    C: np.ndarray           # (3, 4n), from the sp(1) forms
    t_alpha: np.ndarray     # (3, 4n)
    t: np.ndarray           # (4n,)


def auxiliary_one_forms(struct: QKTStructure, p: np.ndarray) -> AuxiliaryOneForms:
    omegas, _ = struct.caches["omega_bundle"](p)
    J_omega = j_apply_oneform(struct.data.hyper.matrices(p), omegas[CYC_C])
    t_alpha, _, t = _torsion_traces(struct, p)
    K = struct.bundle_at(p)["K"] if struct.n >= 2 else None
    return AuxiliaryOneForms(K=K, A=omegas[CYC_B] + J_omega, C=omegas[CYC_B] - J_omega,
                             t_alpha=t_alpha, t=t)


def nijenhuis_via_connection(struct: QKTStructure, alpha: int, p: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor rebuilt from the Lee-form difference 1-forms."""
    a, b, c = CYCLIC[alpha]
    bundle = struct.bundle_at(p)
    theta, J = bundle["theta"], bundle["J"]
    A = j_apply_oneform(J[b], theta[c] - theta[b])
    JA = j_apply_oneform(J[a], A)
    Jb, Jc = J[b], J[c]
    return (
        np.einsum("j,ki->kij", A, Jb)
        - np.einsum("i,kj->kij", A, Jb)
        - np.einsum("j,ki->kij", JA, Jc)
        + np.einsum("i,kj->kij", JA, Jc)
    )


def structure_invariant_residuals(struct: QKTStructure, p: np.ndarray) -> dict:
    """Defining invariants of the built structure at one point."""
    T = struct.torsion(p)
    g = struct.metric_at(p)
    ginv = np.linalg.inv(g)
    skew = worst(np.max(np.abs(T + np.swapaxes(T, 0, 1))),
                 np.max(np.abs(T + np.swapaxes(T, 1, 2))))

    gamma = struct.connection(p)
    metric = struct.data.patch.metric
    nabla_g = covariant_derivative_array(gamma, TensorField("dd", metric), p, struct.scheme,
                                         grad=metric_gradient(metric, p, struct.scheme))
    metricity = float(np.max(np.abs(nabla_g)))

    T12 = np.einsum("ijm,mk->kij", T, ginv)
    purity = float(np.max(np.abs(torsion_02_part(T12[None], struct.data.hyper.matrices(p)))))

    _, eq1_residual = struct.caches["omega_bundle"](p)
    quat = quaternionic_residuals(struct.data, p)
    return {
        "torsion_skew": skew,
        "metricity": metricity,
        "torsion_purity": purity,
        "eq1": eq1_residual,
        "quaternionic": worst(quat["square"], quat["algebra"]),
        "hermitian": quat["hermitian"],
    }


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    is_hkt: bool | None
    hkt_residual: float | None
    is_integrable: bool
    integrable_residual: float
    is_parallel_torsion: bool
    parallel_residual: float
    is_strong: bool
    strong_residual: float
    dT_type22_residual: float


def classify(struct: QKTStructure,
             points: Sequence[np.ndarray],
             scheme: FDScheme | None = None,
             first_order_tol: float = 1e-5,
             curvature_tol: float = 1e-4) -> Classification:
    """Structure flags with their witnessing residuals over sample points."""
    scheme = scheme or struct.scheme
    from .curvature import _context
    from .quaternionic import dT_type22_residual as _dt22

    integ = parallel = strong = dt22 = 0.0
    hkt = 0.0 if struct.n >= 2 else None
    for p in points:
        bundle = struct.bundle_at(p)
        theta = bundle["theta"]
        integ = worst(integ, np.max(np.abs(theta - theta[CYC_B])))
        if hkt is not None:
            # theta_a - J_b theta_{c,a} over the cyclic triples
            J, cross = bundle["J"], bundle["theta_cross"]
            hkt = worst(hkt, np.max(np.abs(theta - j_apply_oneform(J[CYC_B], cross[CYC_C, CYC_A]))))
        ctx = _context(struct, p, scheme)
        parallel = worst(parallel, np.max(np.abs(ctx.nabla_T)))
        strong = worst(strong, np.max(np.abs(ctx.dT4)))
        dt22 = worst(dt22, _dt22(struct.data, struct.torsion, p, scheme, dT=ctx.dT4))

    return Classification(
        is_hkt=(hkt <= first_order_tol) if hkt is not None else None,
        hkt_residual=hkt,
        is_integrable=integ <= first_order_tol,
        integrable_residual=integ,
        is_parallel_torsion=parallel <= curvature_tol,
        parallel_residual=parallel,
        is_strong=strong <= curvature_tol,
        strong_residual=strong,
        dT_type22_residual=dt22,
    )
