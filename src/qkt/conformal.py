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
from .curvature import _context
from .qkt_connection import (
    QKTStructure,
    _assemble,
    auxiliary_one_forms,
    torsion_one_forms,
)
from .quaternionic import CYC_A, CYC_B, CYC_C, QuaternionicHermitianData, j_apply_oneform
from .tensor_core import (
    CoordinatePatch,
    FDScheme,
    MemoizedMetric,
    antisymmetrized_gradient,
    first_point,
    gradient,
    wedge_arrays,
    worst,
)

MIN_FACTOR = 1e-8


@dataclass(frozen=True)
class ConformalFactor:
    """A positive scalar field; the gradient comes from central differences."""

    func: Callable[[np.ndarray], np.ndarray]

    def _values(self, p: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.func(p), dtype=float), np.shape(p)[:-1])

    def value(self, p: np.ndarray) -> np.ndarray:
        """f at the points ``p`` (..., d), shape (...)."""
        v = self._values(p)
        bad = ~(np.isfinite(v) & (v >= MIN_FACTOR))
        if np.any(bad):
            raise GeometryError(f"conformal factor {float(v[bad].flat[0])!r} not finite "
                                f"and positive at {first_point(bad, p)}")
        return v

    def grad(self, p: np.ndarray, scheme: FDScheme) -> np.ndarray:
        return gradient(self._values, p, scheme)


def _as_factor(f) -> ConformalFactor:
    return f if isinstance(f, ConformalFactor) else ConformalFactor(f)


def conformal_rescale(struct: QKTStructure, f, scheme: FDScheme | None = None) -> QKTStructure:
    """Transport ``struct`` to the metric f*g on the same hypercomplex triple."""
    scheme = scheme or struct.scheme
    factor = _as_factor(f)
    base_patch = struct.patch
    base_metric = base_patch.metric

    def new_metric(p, _f=factor, _g=base_metric):
        return _f.value(p)[..., None, None] * np.asarray(_g(p), dtype=float)

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
        df = factor.grad(p, scheme)[..., None, :]
        w = wedge_arrays(j_apply_oneform(J, df), g[..., None, :, :] @ J, stack=J.ndim - 2)
        return factor.value(p)[..., None, None, None] * struct.torsion(p) + w.sum(axis=-4)

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

    def acc(key, residual):
        out[key] = worst(out[key], np.max(np.abs(residual)))

    for p in points:
        fval = factor.value(p)
        df = factor.grad(p, scheme)
        dlnf = df / fval
        bun0 = base.bundle_at(p)
        bun1 = barred.bundle_at(p)
        J = bun0["J"]
        g = bun0["g"]
        # (J_a df) ^ F_a, stacked over a
        wedges = wedge_arrays(j_apply_oneform(J, df), bun0["F"], stack=1)

        # d_a F_a^+ law
        acc("z2_dcf", bun1["dcF_plus"] - (wedges + fval * bun0["dcF_plus"]))

        # Lee forms and cross Lee forms
        acc("z2_theta", bun1["theta"] - bun0["theta"] - (2 * n - 1) * dlnf)
        acc("z2_cross", bun1["theta_cross"][CYC_A, CYC_C] - bun0["theta_cross"][CYC_A, CYC_C]
            + j_apply_oneform(J[CYC_B], dlnf))
        if n >= 2:
            acc("z3_K", bun1["K"] - bun0["K"] + 2.0 * j_apply_oneform(J[CYC_B], dlnf))

        acc("z3_A", auxiliary_one_forms(barred, p).A - auxiliary_one_forms(base, p).A)

        omegas0, _ = base.caches["omega_bundle"](p)
        omegas1, _ = barred.caches["omega_bundle"](p)
        acc("z3_omega", omegas1 - omegas0 + j_apply_oneform(J, dlnf))

        acc("z4", barred.torsion(p)
            - (fval * base.torsion(p) + wedges[0] + wedges[1] + wedges[2]))

        *_, t0 = torsion_one_forms(base, p)
        *_, t1 = torsion_one_forms(barred, p)
        acc("z5", t1 - t0 + (2 * n + 1) * dlnf)

        acc("dt_invariance", _context(barred, p, scheme).dt - _context(base, p, scheme).dt)

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
        predicted = fval * lowered0 + sym + 0.5 * (wedges[0] + wedges[1] + wedges[2])
        acc("z1", lowered1 - predicted)

    return out


def lcqk_residual(struct: QKTStructure, p: np.ndarray, scheme: FDScheme | None = None) -> float:
    """Defect of the locally-conformally-torsion-free shape of the torsion.

    Checks T = (sum_a t_a ^ F_a) / (2n+1) together with closedness of the
    torsion 1-form.  In dimension 4 the shape part vanishes identically,
    so only |dt| is informative there.
    """
    t_alpha = np.stack(torsion_one_forms(struct, p)[:3])
    w = wedge_arrays(t_alpha, struct.metric_at(p) @ struct.data.hyper.matrices(p), stack=1)
    shape_residual = np.max(np.abs(
        struct.torsion(p) - (w[0] + w[1] + w[2]) / (2.0 * struct.n + 1.0)))
    return worst(shape_residual, np.max(np.abs(_context(struct, p, scheme).dt)))


def lchkt_residual(struct: QKTStructure, p: np.ndarray, scheme: FDScheme | None = None) -> float:
    """max_a |d(theta_a - J_b theta_{a,c})| -- zero for locally conformal
    structures with all three complex structures integrable."""
    def candidates(q):
        bundle = struct.bundle_at(q)
        J, cross = bundle["J"], bundle["theta_cross"]
        return bundle["theta"] - j_apply_oneform(J[..., CYC_B, :, :], cross[..., CYC_A, CYC_C, :])

    # one stencil of the three candidates
    grad = gradient(candidates, p, scheme or struct.scheme, nested=True)
    return float(np.max(np.abs(antisymmetrized_gradient(np.moveaxis(grad, 0, 1), degree=1))))
