"""Conformal rescaling of torsion structures and its transformation laws.

Replacing g by fg (f > 0) transports a built structure to a new one on
the same hypercomplex triple.  The torsion moves by

    T_bar = f T + sum_a (J_a df) ^ F_a,

the Lee forms by theta_bar = theta + (2n-1) d(ln f), the cross Lee forms
by theta_bar_{a,c} = theta_{a,c} - J_b d(ln f), the compatibility forms by
K_bar = K - 2 J_b d(ln f), the sp(1) forms by omega_bar_a = omega_a
- J_a d(ln f), and the torsion 1-form by t_bar = t - (2n+1) d(ln f); the
difference 1-forms A_a are invariant.  All of these are verified here as
residuals rather than assumed.  For n >= 2 the rescaled structure's torsion
comes from its own compatibility data, so every law is a genuine test; for
n = 1 the torsion is the transport itself, so the T law (z4) holds by
construction there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import GeometryError
from .qkt_connection import QKTContext, QKTStructure
from .quaternionic import CYC_A, CYC_B, CYC_C, j_apply_oneform
from .tensor_core import (
    ConformalMetric,
    antisymmetrized_gradient,
    first_point,
    lower_first,
    unpack_3form,
)

MIN_FACTOR = 1e-8


@dataclass(frozen=True)
class ConformalFactor:
    """A positive scalar field, the f of a :class:`ConformalMetric`."""

    func: Callable[[np.ndarray], np.ndarray]

    def value(self, p: np.ndarray) -> np.ndarray:
        """f at the points ``p`` (..., d), shape (...)."""
        v = np.broadcast_to(np.asarray(self.func(p), dtype=float), np.shape(p)[:-1])
        good = (v >= MIN_FACTOR) & (v < np.inf)    # False where v is NaN
        if not good.all():
            raise GeometryError(f"conformal factor {float(v[~good].flat[0])!r} not finite "
                                f"and positive at {first_point(~good, p)}")
        return v


def conformal_rescale(struct: QKTStructure, factor: ConformalFactor) -> QKTStructure:
    """``struct`` on the metric f*g, with the same triple and scheme and ``struct``
    as its ``base``: the torsion follows from f*g for n >= 2, and from the base's
    transported for n = 1 (:attr:`QKTContext.T`)."""
    patch = replace(struct.patch, metric=ConformalMetric(factor, struct.patch.metric))
    return replace(struct, patch=patch, t_form=None, base=struct)


# ---------------------------------------------------------------------------
# transformation-law residuals: one residual per point of the contexts
# ---------------------------------------------------------------------------

def conformal_law_residuals(base: QKTContext, barred: QKTContext) -> dict:
    """Residuals of the transformation laws, per point.

    ``base`` and ``barred`` are contexts on the same points of a structure
    and of one on the metric f*g, a :class:`ConformalMetric`; f, df and
    (J_a df) ^ F_a are layers of ``barred``.  For n >= 2 the barred
    structure, a :func:`conformal_rescale` of the base included, is built
    from its own compatibility data, so the laws genuinely test that
    conformal transport lands on the same connection; for n = 1 its torsion
    is the transported one, and z4 holds by construction.
    """
    n = base.struct.n
    fval, df, wedges = barred.f, barred.df, barred.df_wedge_F
    dlnf = df / fval[..., None]
    dlnf_a = dlnf[..., None, :]    # against the quaternionic stack
    J, g = base.J, base.g
    f3 = fval[..., None, None, None]
    wedge_sum = unpack_3form(wedges.sum(axis=-2), g.shape[-1])
    residual = barred.residual

    # connection transport law
    lowered1 = lower_first(barred.Gamma, barred.g)
    lowered0 = lower_first(base.Gamma, g)
    sym = 0.5 * (
        df[..., :, None, None] * g[..., None, :, :]
        + df[..., None, :, None] * g[..., :, None, :]
        - df[..., None, None, :] * g[..., :, :, None]
    )
    predicted = f3 * lowered0 + sym + 0.5 * wedge_sum

    return {
        # d_a F_a^+ law, on packed 3-forms: unpacking only copies entries with signs
        "z2_dcf": residual(barred.dcF_plus - (wedges + fval[..., None, None] * base.dcF_plus)),
        # Lee forms and cross Lee forms
        "z2_theta": residual(barred.theta - base.theta - (2 * n - 1) * dlnf_a),
        "z2_cross": residual(barred.theta_cross[..., CYC_A, CYC_C, :]
                             - base.theta_cross[..., CYC_A, CYC_C, :]
                             + j_apply_oneform(J[..., CYC_B, :, :], dlnf_a)),
        "z3_K": (residual(barred.K - base.K + 2.0 * j_apply_oneform(J[..., CYC_B, :, :], dlnf_a))
                 if n >= 2 else None),
        "z3_A": residual(barred.auxiliary[0] - base.auxiliary[0]),
        "z3_omega": residual(barred.omega - base.omega + j_apply_oneform(J, dlnf_a)),
        "z4": residual(barred.T - (f3 * base.T + wedge_sum)),
        "z5": residual(barred.t - base.t + (2 * n + 1) * dlnf),
        "dt_invariance": residual(barred.dt - base.dt),
        "z1": residual(lowered1 - predicted),
    }


def lcqk_residual(ctx: QKTContext) -> np.ndarray:
    """Defect of the locally-conformally-torsion-free shape of the torsion.

    Checks T = (sum_a t_a ^ F_a) / (2n+1) together with closedness of the
    torsion 1-form.  In dimension 4 the shape part vanishes identically,
    so only |dt| is informative there.
    """
    w = ctx.t_wedge_F
    shape = ctx.T - (w[..., 0, :, :, :] + w[..., 1, :, :, :] + w[..., 2, :, :, :]) \
        / (2.0 * ctx.struct.n + 1.0)
    return ctx.residual(shape, ctx.dt)


def lchkt_residual(ctx: QKTContext) -> np.ndarray:
    """max_a |d(theta_a - J_b theta_{a,c})| -- zero for locally conformal
    structures with all three complex structures integrable."""
    # one stencil of the three candidates
    grad = ctx.derivative("lchkt_candidates")
    return ctx.residual(antisymmetrized_gradient(np.moveaxis(grad, -3, -2), degree=1))
