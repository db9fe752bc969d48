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
    CYCLIC,
    HypercomplexField,
    QuaternionicHermitianData,
    frame_trace_pair,
    j_apply_form,
    j_apply_oneform,
    kaehler_field,
    lee_form,
    cross_lee_form,
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
    exterior_derivative,
    gradient,
    hodge_star_array,
    levi_civita,
    wedge_arrays,
)

DEFAULT_EXISTENCE_TOL = 1e-4
ALGEBRA_TOL = 1e-8


# ---------------------------------------------------------------------------
# pointwise first-order bundle
# ---------------------------------------------------------------------------

def _section2_bundle(data: QuaternionicHermitianData,
                     p: np.ndarray,
                     scheme: FDScheme) -> dict:
    """All first-order objects needed by the torsion formula at one point."""
    p = np.asarray(p, dtype=float)
    g = data.metric_at(p)
    ginv = np.linalg.inv(g)
    J = data.hyper.matrices(p)
    gamma_g = levi_civita(data.patch.metric, p, scheme)
    F = np.stack([g @ J[a] for a in range(3)])

    theta = np.zeros((3, data.dim))
    dF_plus = np.zeros((3,) + (data.dim,) * 3)
    dcF_plus = np.zeros_like(dF_plus)
    for a in range(3):
        # one stencil of F_a serves both dF_a and nabla^g F_a
        F_field = kaehler_field(data, a)
        grad_f = gradient(F_field.func, p, scheme, nested=F_field.nested)
        dF = antisymmetrized_gradient(grad_f)
        dF_plus[a] = project_plus_3form(dF, J[a])
        # twisted derivative d_a F_a and its (1,2)+(2,1) part
        dcF_plus[a] = project_plus_3form(j_apply_form(J[a], dF), J[a])
        # Lee form theta_a = (delta F_a) o J_a
        nabla_f = covariant_derivative_array(
            gamma_g, TensorField("dd", F_field.func), p, scheme, grad=grad_f
        )
        delta_f = -np.tensordot(ginv, nabla_f, axes=([0, 1], [0, 1]))
        theta[a] = delta_f @ J[a]

    # cross Lee forms theta[a, b](X) = -1/2 sum_i dF_a^+(X, e_i, J_b e_i)
    theta_cross = np.zeros((3, 3, data.dim))
    for a in range(3):
        for b in range(3):
            theta_cross[a, b] = -0.5 * frame_trace_pair(dF_plus[a], ginv, J[b])

    bundle = {
        "g": g, "J": J, "F": F,
        "theta": theta, "theta_cross": theta_cross, "dcF_plus": dcF_plus,
    }

    if data.n >= 2:
        K = np.zeros((3, data.dim))
        for a, b, c in CYCLIC:
            K[a] = (j_apply_oneform(J[b], theta[a]) + theta_cross[a, c]) / (1.0 - data.n)
        bundle["K"] = K

        versions = []
        for a, b, c in CYCLIC:
            jk = j_apply_oneform(J[a], K[a])
            t_a = dcF_plus[a] - 0.5 * (
                wedge_arrays(jk, F[c]) + wedge_arrays(K[a], F[b])
            )
            versions.append(t_a)
        bundle["torsion"] = (versions[0] + versions[1] + versions[2]) / 3.0
        bundle["alpha_agreement"] = max(
            float(np.max(np.abs(versions[i] - versions[j])))
            for i in range(3) for j in range(i + 1, 3)
        )

        worst = 0.0
        for a, b, c in CYCLIC:
            lhs = dcF_plus[a] - dcF_plus[b]
            rhs = 0.5 * (
                wedge_arrays(K[a], F[b])
                - wedge_arrays(j_apply_oneform(J[b], K[b]), F[a])
                - wedge_arrays(K[b] - j_apply_oneform(J[a], K[a]), F[c])
            )
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        bundle["existence"] = worst

    return bundle


def compute_K(data: QuaternionicHermitianData,
              alpha: int,
              p: np.ndarray,
              scheme: FDScheme) -> np.ndarray:
    """The compatibility 1-form K_a = (J_b theta_a + theta_{a,c}) / (1-n)."""
    if data.n < 2:
        raise DimensionError("K is defined for n >= 2; dimension 4 uses the star path")
    _, b, c = CYCLIC[alpha]
    jb_theta = j_apply_oneform(data.j_at(b, p), lee_form(data, alpha, p, scheme))
    return (jb_theta + cross_lee_form(data, alpha, c, p, scheme)) / (1.0 - data.n)


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
            g = data.metric_at(q)
            ginv = np.linalg.inv(g)
            gamma_g = levi_civita(data.patch.metric, q, scheme)
            return gamma_g + 0.5 * np.einsum("ijm,ml->lij", torsion_memo(q), ginv)

        return _memoized(gamma_cache, p, compute)

    connection = ConnectionField(gamma_at, nested=True)

    def omega_bundle(p):
        def compute(q):
            return _extract_sp1(data, connection, q, scheme)

        return _memoized(omega_cache, p, compute)

    def omega_field(alpha):
        return FormField(1, lambda q: omega_bundle(q)[0][alpha], nested=True)

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
    """Solve nabla J_a = -omega_b (x) J_c + omega_c (x) J_b for the omegas.

    Each omega is recovered from both equations containing it; the returned
    residual tracks the worst least-squares defect and the worst
    disagreement between the two recoveries.
    """
    dim = data.dim
    gamma = connection(p)
    J = data.hyper.matrices(p)
    estimates = [[] for _ in range(3)]
    residual = 0.0
    for a, b, c in CYCLIC:
        dJ = gradient(data.hyper.funcs[a], p, scheme, nested=data.hyper.nested)
        design = np.stack([-J[c].ravel(), J[b].ravel()], axis=1)
        omega_b = np.zeros(dim)
        omega_c = np.zeros(dim)
        for i in range(dim):
            nabla_j = dJ[i] + gamma[:, i, :] @ J[a] - J[a] @ gamma[:, i, :]
            coeffs, res, *_ = np.linalg.lstsq(design, nabla_j.ravel(), rcond=None)
            omega_b[i], omega_c[i] = coeffs
            fit = design @ coeffs - nabla_j.ravel()
            residual = max(residual, float(np.max(np.abs(fit))))
        estimates[b].append(omega_b)
        estimates[c].append(omega_c)
    omegas = np.zeros((3, dim))
    for k in range(3):
        pair = np.stack(estimates[k])
        omegas[k] = pair.mean(axis=0)
        residual = max(residual, float(np.max(np.abs(pair[0] - pair[1]))))
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
        worst_alg = max(worst_alg, residuals["algebra"], residuals["square"],
                        residuals["hermitian"])
        worst_exist = max(worst_exist, existence_residual(data, p, scheme, bundle_cache))
    if worst_alg > ALGEBRA_TOL or worst_exist > existence_tol:
        err = NotQKTError(
            f"no compatible torsion connection: existence residual "
            f"{worst_exist:.3e} (tolerance {existence_tol:.1e}), quaternionic "
            f"algebra residual {worst_alg:.3e}",
            residual=max(worst_exist, worst_alg),
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
    if max(residuals["algebra"], residuals["square"], residuals["hermitian"]) > ALGEBRA_TOL:
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
    """Memoized read-only (t_alpha, J_a t_a, t) at ``p``, stacked over alpha."""

    def compute(q):
        T = struct.torsion(q)
        ginv = np.linalg.inv(struct.metric_at(q))
        t_alpha = np.zeros((3, struct.dim))
        images = np.zeros((3, struct.dim))
        for a in range(3):
            J = struct.j_at(a, q)
            t_alpha[a] = -0.5 * frame_trace_pair(T, ginv, J)
            images[a] = j_apply_oneform(J, t_alpha[a])
        t = images.mean(axis=0)
        for arr in (t_alpha, images, t):
            arr.flags.writeable = False
        return t_alpha, images, t

    return _memoized(struct.caches.setdefault("t_forms", {}), p, compute)


def torsion_one_forms(struct: QKTStructure, p: np.ndarray):
    """(t_1, t_2, t_3, t): the torsion traces and their common J-image."""
    t_alpha, _, t = _torsion_traces(struct, p)
    return t_alpha[0], t_alpha[1], t_alpha[2], t


def torsion_one_form_spread(struct: QKTStructure, p: np.ndarray) -> float:
    """max_{a,b} |J_a t_a - J_b t_b| -- zero when the torsion is pure."""
    _, images, _ = _torsion_traces(struct, p)
    return max(
        float(np.max(np.abs(images[i] - images[j])))
        for i in range(3) for j in range(i + 1, 3)
    )


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
        c7 = 0.0
        for a, b, c in CYCLIC:
            closed_form = 0.5 * j_apply_oneform(
                J[b], theta[c] - theta[b] + theta[a] / (1.0 - struct.n)
            ) + cross[a, c] / (2.0 * (1.0 - struct.n))
            c7 = max(c7, float(np.max(np.abs(closed_form - omegas[b]))))
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
    J = struct.data.hyper.matrices(p)
    A = np.zeros((3, struct.dim))
    C = np.zeros((3, struct.dim))
    for a, b, c in CYCLIC:
        A[a] = omegas[b] + j_apply_oneform(J[a], omegas[c])
        C[a] = omegas[b] - j_apply_oneform(J[a], omegas[c])
    t1, t2, t3, t = torsion_one_forms(struct, p)
    K = struct.bundle_at(p)["K"] if struct.n >= 2 else None
    return AuxiliaryOneForms(K=K, A=A, C=C, t_alpha=np.stack([t1, t2, t3]), t=t)


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
    skew = float(np.max(np.abs(T + np.swapaxes(T, 0, 1))))
    skew = max(skew, float(np.max(np.abs(T + np.swapaxes(T, 1, 2)))))

    gamma = struct.connection(p)
    g_field = TensorField("dd", struct.data.patch.metric)
    nabla_g = covariant_derivative_array(gamma, g_field, p, struct.scheme)
    metricity = float(np.max(np.abs(nabla_g)))

    T12 = np.einsum("ijm,mk->kij", T, ginv)
    purity = max(
        float(np.max(np.abs(torsion_02_part(T12, struct.j_at(a, p)))))
        for a in range(3)
    )

    _, eq1_residual = struct.caches["omega_bundle"](p)
    quat = quaternionic_residuals(struct.data, p)
    return {
        "torsion_skew": skew,
        "metricity": metricity,
        "torsion_purity": purity,
        "eq1": eq1_residual,
        "quaternionic": max(quat["square"], quat["algebra"]),
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
    from .quaternionic import dT_type22_residual as _dt22

    integ = 0.0
    hkt = 0.0 if struct.n >= 2 else None
    parallel = 0.0
    strong = 0.0
    dt22 = 0.0
    dT_field = exterior_derivative(struct.torsion, scheme)
    for p in points:
        bundle = struct.bundle_at(p) if struct.n >= 2 else None
        if struct.n >= 2:
            theta = bundle["theta"]
            integ = max(integ, max(
                float(np.max(np.abs(theta[a] - theta[b])))
                for a in range(3) for b in range(a + 1, 3)
            ))
            J = bundle["J"]
            for a, b, c in CYCLIC:
                dev = theta[a] - j_apply_oneform(J[b], bundle["theta_cross"][c, a])
                hkt = max(hkt, float(np.max(np.abs(dev))))
        else:
            theta = np.stack([
                lee_form(struct.data, a, p, scheme) for a in range(3)
            ])
            integ = max(integ, max(
                float(np.max(np.abs(theta[a] - theta[b])))
                for a in range(3) for b in range(a + 1, 3)
            ))
        gamma = struct.connection(p)
        nabla_T = covariant_derivative_array(
            gamma, TensorField("ddd", struct.torsion.func, struct.torsion.nested),
            p, scheme,
        )
        parallel = max(parallel, float(np.max(np.abs(nabla_T))))
        strong = max(strong, float(np.max(np.abs(dT_field(p)))))
        dt22 = max(dt22, _dt22(struct.data, struct.torsion, p, scheme))

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
