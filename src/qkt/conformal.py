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
from typing import Callable

import numpy as np

from .errors import GeometryError
from .qkt_connection import QKTContext, QKTStructure, auxiliary_one_forms
from .quaternionic import CYC_A, CYC_B, CYC_C, QuaternionicHermitianData, j_apply_oneform
from .tensor_core import (
    CoordinatePatch,
    FDScheme,
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
        metric=new_metric,
        orientation=base_patch.orientation,
    )
    data = QuaternionicHermitianData(patch, struct.data.hyper)

    def torsion_rule(ctx):
        p, J = ctx.x, ctx.J
        g = np.asarray(base_metric(p), dtype=float)
        df = factor.grad(p, ctx.scheme)[..., None, :]
        w = wedge_arrays(j_apply_oneform(J, df), g[..., None, :, :] @ J, stack=J.ndim - 2)
        return factor.value(p)[..., None, None, None] * struct.torsion(p) + w.sum(axis=-4)

    return QKTStructure(data, scheme, f"rescaled-{struct.kind}", torsion_rule)


# ---------------------------------------------------------------------------
# transformation-law residuals, each read off single-point contexts
# ---------------------------------------------------------------------------

def conformal_law_residuals(base: QKTContext, barred: QKTContext, f) -> dict:
    """Residuals of the transformation laws at one point.

    ``base`` and ``barred`` are contexts at the same point of a structure
    and of one on the metric f*g: its :func:`conformal_rescale`, or an
    independently built structure (for example one assembled from its own
    compatibility data), in which case the laws genuinely test that
    conformal transport lands on the same connection.
    """
    factor = _as_factor(f)
    p, n = base.x, base.struct.n
    fval = factor.value(p)
    df = factor.grad(p, base.scheme)
    dlnf = df / fval
    bun0, bun1 = base.bundle, barred.bundle
    J = bun0["J"]
    g = bun0["g"]
    # (J_a df) ^ F_a, stacked over a
    wedges = wedge_arrays(j_apply_oneform(J, df), bun0["F"], stack=1)

    def worst_of(residual):
        return float(np.max(np.abs(residual)))

    # connection transport law
    lowered1 = np.einsum("lij,lm->ijm", barred.Gamma, bun1["g"])
    lowered0 = np.einsum("lij,lm->ijm", base.Gamma, g)
    sym = 0.5 * (
        np.einsum("i,jm->ijm", df, g)
        + np.einsum("j,im->ijm", df, g)
        - np.einsum("m,ij->ijm", df, g)
    )
    predicted = fval * lowered0 + sym + 0.5 * (wedges[0] + wedges[1] + wedges[2])

    return {
        # d_a F_a^+ law
        "z2_dcf": worst_of(bun1["dcF_plus"] - (wedges + fval * bun0["dcF_plus"])),
        # Lee forms and cross Lee forms
        "z2_theta": worst_of(bun1["theta"] - bun0["theta"] - (2 * n - 1) * dlnf),
        "z2_cross": worst_of(bun1["theta_cross"][CYC_A, CYC_C] - bun0["theta_cross"][CYC_A, CYC_C]
                             + j_apply_oneform(J[CYC_B], dlnf)),
        "z3_K": (worst_of(bun1["K"] - bun0["K"] + 2.0 * j_apply_oneform(J[CYC_B], dlnf))
                 if n >= 2 else None),
        "z3_A": worst_of(auxiliary_one_forms(barred)[0] - auxiliary_one_forms(base)[0]),
        "z3_omega": worst_of(barred.omega - base.omega + j_apply_oneform(J, dlnf)),
        "z4": worst_of(barred.T - (fval * base.T + wedges[0] + wedges[1] + wedges[2])),
        "z5": worst_of(barred.t - base.t + (2 * n + 1) * dlnf),
        "dt_invariance": worst_of(barred.dt - base.dt),
        "z1": worst_of(lowered1 - predicted),
    }


def lcqk_residual(ctx: QKTContext) -> float:
    """Defect of the locally-conformally-torsion-free shape of the torsion.

    Checks T = (sum_a t_a ^ F_a) / (2n+1) together with closedness of the
    torsion 1-form.  In dimension 4 the shape part vanishes identically,
    so only |dt| is informative there.
    """
    w = wedge_arrays(ctx.t_alpha, ctx.F, stack=1)
    shape_residual = np.max(np.abs(ctx.T - (w[0] + w[1] + w[2]) / (2.0 * ctx.struct.n + 1.0)))
    return worst(shape_residual, np.max(np.abs(ctx.dt)))


def lchkt_residual(ctx: QKTContext) -> float:
    """max_a |d(theta_a - J_b theta_{a,c})| -- zero for locally conformal
    structures with all three complex structures integrable."""
    # one stencil of the three candidates
    grad = ctx.derivative("lchkt_candidates", nested=True)
    return float(np.max(np.abs(antisymmetrized_gradient(np.moveaxis(grad, 0, 1), degree=1))))
