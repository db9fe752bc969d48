"""Conformal rescaling of torsion structures and its transformation laws.

Replacing g by fg (f > 0) transports a built structure to a new one on
the same hypercomplex triple.  The torsion moves by

    T_bar = f T + sum_a (J_a df) ^ F_a,

the Lee forms by theta_bar = theta + (2n-1) d(ln f), the cross Lee forms
by theta_bar_{a,c} = theta_{a,c} - J_b d(ln f), the compatibility forms by
K_bar = K - 2 J_b d(ln f), the sp(1) forms by omega_bar_a = omega_a
- J_a d(ln f), and the torsion 1-form by t_bar = t - (2n+1) d(ln f); the
difference 1-forms A_a are invariant.  All of these are verified here as
residuals rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GeometryError
from .qkt_connection import (
    QKTStructure,
    _assemble,
    auxiliary_one_forms,
    torsion_one_forms,
)
from .quaternionic import CYCLIC, QuaternionicHermitianData, j_apply_oneform
from .tensor_core import (
    CoordinatePatch,
    FDScheme,
    FormField,
    MemoizedMetric,
    exterior_derivative,
    gradient,
    wedge_arrays,
)

MIN_FACTOR = 1e-8


@dataclass(frozen=True)
class ConformalFactor:
    """A positive scalar field; the gradient comes from central differences."""

    func: Callable[[np.ndarray], float]

    def value(self, p: np.ndarray) -> float:
        v = float(self.func(p))
        if not (np.isfinite(v) and v >= MIN_FACTOR):
            raise GeometryError(f"conformal factor {v!r} not finite and positive at {p}")
        return v

    def grad(self, p: np.ndarray, scheme: FDScheme) -> np.ndarray:
        return gradient(lambda q: float(self.func(q)), p, scheme)


def _as_factor(f) -> ConformalFactor:
    return f if isinstance(f, ConformalFactor) else ConformalFactor(f)


def conformal_rescale(struct: QKTStructure, f, scheme: FDScheme | None = None) -> QKTStructure:
    """Transport ``struct`` to the metric f*g on the same hypercomplex triple."""
    scheme = scheme or struct.scheme
    factor = _as_factor(f)
    base_patch = struct.patch
    base_metric = base_patch.metric

    def new_metric(p, _f=factor, _g=base_metric):
        return _f.value(p) * np.asarray(_g(p), dtype=float)

    patch = CoordinatePatch(
        n=base_patch.n,
        lo=base_patch.lo,
        hi=base_patch.hi,
        metric=MemoizedMetric(new_metric),
        orientation=base_patch.orientation,
    )
    data = QuaternionicHermitianData(patch, struct.data.hyper)

    def torsion_at(p):
        g = np.asarray(base_metric(p), dtype=float)
        J = struct.data.hyper.matrices(p)
        df = factor.grad(p, scheme)
        out = factor.value(p) * struct.torsion(p)
        for a in range(3):
            out = out + wedge_arrays(j_apply_oneform(J[a], df), g @ J[a])
        return out

    rescaled = _assemble(data, torsion_at, scheme, kind=f"rescaled-{struct.kind}")
    rescaled.caches["conformal_base"] = struct
    rescaled.caches["conformal_factor"] = factor
    return rescaled


# ---------------------------------------------------------------------------
# transformation-law residuals
# ---------------------------------------------------------------------------

def conformal_law_residuals(struct: QKTStructure,
                            f,
                            scheme: FDScheme,
                            points: Sequence[np.ndarray],
                            rescaled: QKTStructure | None = None) -> dict:
    """Max residuals of the transformation laws between ``struct`` and its rescale.

    ``rescaled`` may supply an independently built structure on the metric
    f*g (for example one assembled from its own compatibility data), in
    which case the laws genuinely test that conformal transport lands on
    the same connection.
    """
    factor = _as_factor(f)
    base = struct
    barred = rescaled if rescaled is not None else conformal_rescale(base, factor, scheme)
    n = base.n

    out = {key: 0.0 for key in
           ("z1", "z2_dcf", "z2_theta", "z2_cross", "z3_K", "z3_A",
            "z3_omega", "z4", "z5", "dt_invariance")}
    if n < 2:
        out["z3_K"] = None

    t_base_field = base.torsion_one_form_field()
    t_bar_field = barred.torsion_one_form_field()
    dt_base = exterior_derivative(t_base_field, scheme)
    dt_bar = exterior_derivative(t_bar_field, scheme)

    for p in points:
        fval = factor.value(p)
        df = factor.grad(p, scheme)
        dlnf = df / fval
        bun0 = base.bundle_at(p)
        bun1 = barred.bundle_at(p)
        J = bun0["J"]
        g = bun0["g"]
        F = bun0["F"]

        # d_a F_a^+ law
        for a in range(3):
            predicted = wedge_arrays(j_apply_oneform(J[a], df), F[a]) \
                + fval * bun0["dcF_plus"][a]
            out["z2_dcf"] = max(out["z2_dcf"], float(np.max(np.abs(
                bun1["dcF_plus"][a] - predicted))))

        # Lee forms and cross Lee forms
        for a, b, c in CYCLIC:
            out["z2_theta"] = max(out["z2_theta"], float(np.max(np.abs(
                bun1["theta"][a] - bun0["theta"][a] - (2 * n - 1) * dlnf))))
            out["z2_cross"] = max(out["z2_cross"], float(np.max(np.abs(
                bun1["theta_cross"][a, c] - bun0["theta_cross"][a, c]
                + j_apply_oneform(J[b], dlnf)))))

        if n >= 2:
            for a, b, c in CYCLIC:
                out["z3_K"] = max(out["z3_K"], float(np.max(np.abs(
                    bun1["K"][a] - bun0["K"][a]
                    + 2.0 * j_apply_oneform(J[b], dlnf)))))

        aux0 = auxiliary_one_forms(base, p)
        aux1 = auxiliary_one_forms(barred, p)
        out["z3_A"] = max(out["z3_A"], float(np.max(np.abs(aux1.A - aux0.A))))

        omegas0, _ = base.caches["omega_bundle"](p)
        omegas1, _ = barred.caches["omega_bundle"](p)
        for a in range(3):
            out["z3_omega"] = max(out["z3_omega"], float(np.max(np.abs(
                omegas1[a] - omegas0[a] + j_apply_oneform(J[a], dlnf)))))

        predicted_T = fval * base.torsion(p)
        for a in range(3):
            predicted_T = predicted_T + wedge_arrays(
                j_apply_oneform(J[a], df), F[a])
        out["z4"] = max(out["z4"], float(np.max(np.abs(
            barred.torsion(p) - predicted_T))))

        *_, t0 = torsion_one_forms(base, p)
        *_, t1 = torsion_one_forms(barred, p)
        out["z5"] = max(out["z5"], float(np.max(np.abs(
            t1 - t0 + (2 * n + 1) * dlnf))))

        out["dt_invariance"] = max(out["dt_invariance"], float(np.max(np.abs(
            dt_bar(p) - dt_base(p)))))

        # connection transport law
        gamma0 = base.connection(p)
        gamma1 = barred.connection(p)
        lowered1 = np.einsum("lij,lm->ijm", gamma1, bun1["g"])
        lowered0 = np.einsum("lij,lm->ijm", gamma0, g)
        sym = 0.5 * (
            np.einsum("i,jm->ijm", df, g)
            + np.einsum("j,im->ijm", df, g)
            - np.einsum("m,ij->ijm", df, g)
        )
        wedge_part = np.zeros_like(lowered0)
        for a in range(3):
            wedge_part += wedge_arrays(j_apply_oneform(J[a], df), F[a])
        predicted = fval * lowered0 + sym + 0.5 * wedge_part
        out["z1"] = max(out["z1"], float(np.max(np.abs(lowered1 - predicted))))

    return out


def lcqk_residual(struct: QKTStructure, p: np.ndarray, scheme: FDScheme | None = None) -> float:
    """Defect of the locally-conformally-torsion-free shape of the torsion.

    Checks T = (sum_a t_a ^ F_a) / (2n+1) together with closedness of the
    torsion 1-form.  In dimension 4 the shape part vanishes identically,
    so only |dt| is informative there.
    """
    scheme = scheme or struct.scheme
    t1, t2, t3, _ = torsion_one_forms(struct, p)
    g = struct.metric_at(p)
    shape = np.zeros_like(struct.torsion(p))
    for a, t_a in enumerate((t1, t2, t3)):
        shape = shape + wedge_arrays(t_a, g @ struct.j_at(a, p))
    shape_residual = float(np.max(np.abs(
        struct.torsion(p) - shape / (2.0 * struct.n + 1.0))))
    dt = exterior_derivative(struct.torsion_one_form_field(), scheme)(p)
    return max(shape_residual, float(np.max(np.abs(dt))))


def lchkt_residual(struct: QKTStructure, p: np.ndarray, scheme: FDScheme | None = None) -> float:
    """max_a |d(theta_a - J_b theta_{a,c})| -- zero for locally conformal
    structures with all three complex structures integrable."""
    scheme = scheme or struct.scheme
    worst = 0.0
    for a, b, c in CYCLIC:
        def candidate(q, _a=a, _b=b, _c=c):
            bundle = struct.bundle_at(q)
            return bundle["theta"][_a] - j_apply_oneform(
                bundle["J"][_b], bundle["theta_cross"][_a, _c])

        d_cand = exterior_derivative(FormField(1, candidate, nested=True), scheme)(p)
        worst = max(worst, float(np.max(np.abs(d_cand))))
    return worst
