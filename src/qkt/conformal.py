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

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import GeometryError
from .qkt_connection import QKTContext, QKTStructure
from .quaternionic import CYC_A, CYC_B, CYC_C, QuaternionicHermitianData, j_apply_oneform
from .tensor_core import (
    ConformalMetric,
    FDScheme,
    antisymmetrized_gradient,
    first_point,
    worst,
)

MIN_FACTOR = 1e-8


@dataclass(frozen=True)
class ConformalFactor:
    """A positive scalar field, the f of a :class:`ConformalMetric`."""

    func: Callable[[np.ndarray], np.ndarray]

    def value(self, p: np.ndarray) -> np.ndarray:
        """f at the points ``p`` (..., d), shape (...)."""
        v = np.broadcast_to(np.asarray(self.func(p), dtype=float), np.shape(p)[:-1])
        bad = ~(np.isfinite(v) & (v >= MIN_FACTOR))
        if np.any(bad):
            raise GeometryError(f"conformal factor {float(v[bad].flat[0])!r} not finite "
                                f"and positive at {first_point(bad, p)}")
        return v


def conformal_rescale(struct: QKTStructure, factor: ConformalFactor,
                      scheme: FDScheme | None = None) -> QKTStructure:
    """Transport ``struct`` to the metric f*g on the same hypercomplex triple."""
    patch = replace(struct.patch, metric=ConformalMetric(factor, struct.patch.metric))
    data = QuaternionicHermitianData(patch, struct.data.hyper)
    return QKTStructure(data, scheme or struct.scheme, f"rescaled-{struct.kind}",
                        functools.partial(_rescaled_torsion, struct))


def _rescaled_torsion(base: QKTStructure, ctx: QKTContext) -> np.ndarray:
    """T_bar = f T + sum_a (J_a df) ^ F_a, with T the torsion of ``base`` at ``ctx.x``."""
    T = base.at(ctx.x, ctx.scheme).T
    return ctx.f[..., None, None, None] * T + ctx.df_wedge_F.sum(axis=-4)


# ---------------------------------------------------------------------------
# transformation-law residuals, each read off single-point contexts
# ---------------------------------------------------------------------------

def conformal_law_residuals(base: QKTContext, barred: QKTContext) -> dict:
    """Residuals of the transformation laws at one point.

    ``base`` and ``barred`` are contexts at the same point of a structure
    and of one on the metric f*g, a :class:`ConformalMetric`; f, df and
    (J_a df) ^ F_a are layers of ``barred``.  The barred structure is the
    :func:`conformal_rescale` of the base, or an independently built
    structure (for example one assembled from its own compatibility data),
    in which case the laws genuinely test that conformal transport lands on
    the same connection.
    """
    n = base.struct.n
    fval, df, wedges = barred.f, barred.df, barred.df_wedge_F
    dlnf = df / fval
    bun0, bun1 = base.bundle, barred.bundle
    J = bun0["J"]
    g = bun0["g"]
    wedge_sum = wedges.sum(axis=0)

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
    predicted = fval * lowered0 + sym + 0.5 * wedge_sum

    return {
        # d_a F_a^+ law
        "z2_dcf": worst_of(bun1["dcF_plus"] - (wedges + fval * bun0["dcF_plus"])),
        # Lee forms and cross Lee forms
        "z2_theta": worst_of(bun1["theta"] - bun0["theta"] - (2 * n - 1) * dlnf),
        "z2_cross": worst_of(bun1["theta_cross"][CYC_A, CYC_C] - bun0["theta_cross"][CYC_A, CYC_C]
                             + j_apply_oneform(J[CYC_B], dlnf)),
        "z3_K": (worst_of(bun1["K"] - bun0["K"] + 2.0 * j_apply_oneform(J[CYC_B], dlnf))
                 if n >= 2 else None),
        "z3_A": worst_of(barred.auxiliary[0] - base.auxiliary[0]),
        "z3_omega": worst_of(barred.omega - base.omega + j_apply_oneform(J, dlnf)),
        "z4": worst_of(barred.T - (fval * base.T + wedge_sum)),
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
    w = ctx.t_wedge_F
    shape_residual = np.max(np.abs(ctx.T - (w[0] + w[1] + w[2]) / (2.0 * ctx.struct.n + 1.0)))
    return worst(shape_residual, np.max(np.abs(ctx.dt)))


def lchkt_residual(ctx: QKTContext) -> float:
    """max_a |d(theta_a - J_b theta_{a,c})| -- zero for locally conformal
    structures with all three complex structures integrable."""
    # one stencil of the three candidates
    grad = ctx.derivative("lchkt_candidates", nested=True)
    return float(np.max(np.abs(antisymmetrized_gradient(np.moveaxis(grad, 0, 1), degree=1))))
