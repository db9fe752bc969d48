"""Curvature of torsion connections: Ricci forms, trace identities, and
the dimension-4 Einstein-like / Weyl correspondence.

Index conventions: the (1,3) curvature of coefficients Gamma[l, i, j] is

    R[l, k, i, j] = d_i Gamma[l, j, k] - d_j Gamma[l, i, k]
                    + Gamma[l, i, m] Gamma[m, j, k] - Gamma[l, j, m] Gamma[m, i, k],

lowered to R4[i, j, k, v] = g[l, v] R[l, k, i, j] so the argument order is
R(X, Y, Z, V).  Ricci is the (1,3) trace Ric[j, k] = sum_a R[a, k, a, j],
equal to sum_i R4(e_i, X, Y, e_i) over an orthonormal frame for metric
connections; the Ricci forms are rho_a(X, Y) = (1/2) sum_i
R4(X, Y, e_i, J_a e_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .quaternionic import CYC_B, CYC_C, frame_trace_pair
from .tensor_core import (
    antisymmetrized_gradient,
    covariant_derivative_array,
    lower_first,
    trace_codifferential,
    wedge_arrays,
)


@dataclass(frozen=True)
class CurvatureValue:
    """Curvature arrays at some points: (1,3) components and the (0,4) lowering."""

    R13: np.ndarray   # R13[..., l, k, i, j]
    R4: np.ndarray    # R4[..., X, Y, Z, V]

    def pair_antisymmetry(self) -> tuple[np.ndarray, np.ndarray]:
        """Per point, the worst defects of R(X,Y,.,.) = -R(Y,X,.,.) and of
        R(.,.,Z,V) = -R(.,.,V,Z)."""
        slots = (-4, -3, -2, -1)
        first = np.max(np.abs(self.R4 + np.swapaxes(self.R4, -4, -3)), axis=slots)
        last = np.max(np.abs(self.R4 + np.swapaxes(self.R4, -2, -1)), axis=slots)
        return first, last


def _shifted(arr: np.ndarray, *axes: int) -> np.ndarray:
    """Transpose the trailing axes of ``arr`` by ``axes``, leading point axes kept."""
    lead = arr.ndim - len(axes)
    return arr.transpose(tuple(range(lead)) + tuple(lead + axis for axis in axes))


def curvature_tensor(gamma: np.ndarray, d_gamma: np.ndarray, g: np.ndarray) -> CurvatureValue:
    """Curvature of connection coefficients ``gamma`` from their gradient
    ``d_gamma[..., a, l, i, j]`` and the metric ``g`` at the same points."""
    term_i = _shifted(d_gamma, 1, 3, 0, 2)   # d_i Gamma[l, j, k] -> [l, k, i, j]
    term_j = _shifted(d_gamma, 1, 3, 2, 0)   # d_j Gamma[l, i, k] -> [l, k, i, j]
    # both quadratic terms from one product: M[l, a, b, k] = Gamma[l, a, m] Gamma[m, b, k]
    d, points = gamma.shape[-1], gamma.shape[:-3]
    M = (gamma.reshape(points + (d * d, d)) @ gamma.reshape(points + (d, d * d))) \
        .reshape(points + (d,) * 4)
    M -= np.swapaxes(M, -3, -2)
    R13 = term_i - term_j + _shifted(M, 0, 3, 1, 2)
    return CurvatureValue(R13=R13, R4=_shifted(lower_first(R13, g), 1, 2, 0, 3))  # [k, i, j, v]


def ricci_forms(curv: CurvatureValue, ginv: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The three Ricci 2-forms rho[..., a, X, Y] of a curvature value."""
    return 0.5 * frame_trace_pair(curv.R4[..., None, :, :, :, :], ginv, J)


def ricci_tensor(curv: CurvatureValue) -> np.ndarray:
    """Ric[..., X, Y] as the pure (1,3) trace (valid for non-metric connections too)."""
    return np.swapaxes(np.trace(curv.R13, axis1=-4, axis2=-2), -1, -2)


def curvature_commutator(R13: np.ndarray, J: np.ndarray) -> np.ndarray:
    """[R(X, Y), J_a][..., a, l, k, i, j] of R13[..., l, k, i, j] and J[..., a, k, j]."""
    d, points, shape = J.shape[-1], R13.shape[:-4], J.shape[:-1] + R13.shape[-3:]
    # R J_a: J_a^T against the k slot of R[l, k, (ij)]; J_a R: J_a against R[l, (kij)]
    RJ = np.swapaxes(J, -1, -2)[..., None, :, :] @ R13.reshape(points + (1, d, d, d * d))
    return RJ.reshape(shape) - (J @ R13.reshape(points + (1, d, d ** 3))).reshape(shape)


def _cyclic3(arr: np.ndarray) -> np.ndarray:
    """Cyclic sum over the first three of four tensor slots."""
    return arr + _shifted(arr, 1, 2, 0, 3) + _shifted(arr, 2, 0, 1, 3)


def _swap(arr: np.ndarray) -> np.ndarray:
    """The transpose of the last two slots."""
    return np.swapaxes(arr, -1, -2)


# ---------------------------------------------------------------------------
# identity records: each reads a context ``struct.at(x)`` on a point array
# and returns one residual per point
# ---------------------------------------------------------------------------

def sp1_curvature_residuals(ctx) -> dict:
    """Residuals of the curvature/sp(1) relations.

    ``eq11``: [R(X,Y), J_a] = (rho_c(X,Y) J_b - rho_b(X,Y) J_c) / n.
    ``eq12``: rho_a = n (d omega_a + omega_b ^ omega_c); the factor n
    makes the relation consistent with eq11 for every n.
    """
    n = ctx.struct.n
    J, rho = ctx.J, ctx.rho
    # lie and rhs, a (3, d, d, d, d) stack per point, are the largest arrays
    # of a sample context: combined in place, and dropped before eq12
    lie = curvature_commutator(ctx.curv.R13, J)
    rhs = np.einsum("...aij,...alk->...alkij", rho[..., CYC_C, :, :], J[..., CYC_B, :, :])
    rhs -= np.einsum("...aij,...alk->...alkij", rho[..., CYC_B, :, :], J[..., CYC_C, :, :])
    rhs /= n
    lie -= rhs
    del rhs
    eq11 = ctx.residual(lie)
    del lie

    omegas = ctx.omega
    # one stencil of the three sp(1) forms
    d_omega = antisymmetrized_gradient(
        np.moveaxis(ctx.derivative("omega"), -3, -2), degree=1)
    wedge_bc = wedge_arrays(omegas[..., CYC_B, :], omegas[..., CYC_C, :], stack=omegas.ndim - 1)
    return {"eq11": eq11, "eq12": ctx.residual(rho - n * (d_omega + wedge_bc))}


def bianchi_and_symmetry_residuals(ctx) -> dict:
    """First Bianchi, the dT expansion, the Levi-Civita comparison, the
    curvature pair-swap formula, the two-derivative comparison, and the
    skew part of the Ricci tensor against the coclosedness of T."""
    nab = ctx.nabla_T
    gtt = ctx.gTT
    R4 = ctx.curv.R4

    cyc_nab = _cyclic3(nab)
    cyc_gtt = _cyclic3(gtt)

    # dT = cyclic(nabla T) - (nabla_U T)(X,Y,Z) + 2 cyclic g(T,T)
    nab_u = _shifted(nab, 1, 2, 3, 0)
    eq13 = ctx.residual(ctx.dT - (cyc_nab - nab_u + 2.0 * cyc_gtt))

    # first Bianchi: cyclic R = cyclic(nabla T + g(T,T))
    eq14 = ctx.residual(_cyclic3(R4) - (cyc_nab + cyc_gtt))

    # Levi-Civita curvature from the torsion one
    predicted_Rg = (
        R4
        - 0.5 * nab
        + 0.5 * _shifted(nab, 1, 0, 2, 3)
        - 0.5 * gtt
        - 0.25 * _shifted(gtt, 1, 2, 0, 3)
        - 0.25 * _shifted(gtt, 2, 0, 1, 3)
    )
    eq15 = ctx.residual(ctx.curv_g.R4 - predicted_Rg)
    del predicted_Rg

    # pair-swap defect D(X,Y,Z,U) = R(X,Y,Z,U) - R(Z,U,X,Y)
    D = R4 - _shifted(R4, 2, 3, 0, 1)
    predicted_D = 0.5 * (
        nab                              # (nabla_X T)(Y, Z, U)
        - _shifted(nab, 1, 0, 2, 3)      # (nabla_Y T)(X, Z, U)
        - _shifted(nab, 2, 3, 0, 1)      # (nabla_Z T)(U, X, Y)
        + _shifted(nab, 2, 3, 1, 0)      # (nabla_U T)(Z, X, Y)
    )
    tir1 = ctx.residual(D - predicted_D)
    del D, predicted_D

    # nabla^g T = nabla T + cyclic g(T,T) / 2
    sof = ctx.residual(ctx.nabla_g_T - (nab + 0.5 * cyc_gtt))

    # Ric(X,Y) - Ric(Y,X) = -delta T(X,Y)
    delta_T = trace_codifferential(ctx.nabla_g_T, ctx.ginv)
    remark3 = ctx.residual(ctx.Ric - _swap(ctx.Ric) + delta_T)

    return {"eq13": eq13, "eq14": eq14, "eq15": eq15,
            "tir1": tir1, "sof": sof, "remark3": remark3}


def trace_identity_residuals(ctx) -> dict:
    """The two curvature trace identities plus the proportionality probe.

    ``ti20`` holds for every n; ``eq22`` needs n >= 2.  ``eq27_lambda`` /
    ``eq27_fit`` report the least-squares proportionality rho_a(X, J_a Y)
    ~ lambda g -- meaningful when the torsion is parallel and dT has the
    balanced type.
    """
    n = ctx.struct.n
    P, dTa_j, nTa_j = ctx.P, ctx.dTa_J, ctx.nabla_Ta_J
    ric, g = ctx.Ric[..., None, :, :], ctx.g[..., None, :, :]   # against the stack
    lhs = n * P + P[..., CYC_B, :, :] + P[..., CYC_C, :, :]
    rhs = -n * ric + (n / 4.0) * dTa_j + (n / 2.0) * nTa_j
    out = {"ti20": ctx.residual(lhs - rhs)}
    if n >= 2:
        rhs = (
            -(n * (n - 1.0) / (n + 2.0)) * ric
            + (n / (4.0 * (n + 2.0))) * (
                (n + 1.0) * dTa_j - dTa_j[..., CYC_B, :, :] - dTa_j[..., CYC_C, :, :])
            + (n / (2.0 * (n + 2.0))) * (
                (n + 1.0) * nTa_j - nTa_j[..., CYC_B, :, :] - nTa_j[..., CYC_C, :, :])
        )
        out["eq22"] = ctx.residual((n - 1.0) * P - rhs)

    lam = np.sum(P * g, axis=(-3, -2, -1)) / (3.0 * np.sum(ctx.g * ctx.g, axis=(-2, -1)))
    out["eq27_lambda"] = lam
    out["eq27_fit"] = ctx.residual(P - lam[..., None, None, None] * g)
    return out


def dT_trace_equalities(ctx) -> dict:
    """Trace consequences of a (2,2)-type dT: equality of the three traces
    and their (1,1)-form property."""
    dTa_j = ctx.dTa_J
    return {"eq24": ctx.residual(dTa_j - dTa_j[..., CYC_B, :, :]),
            "eq24_prime": ctx.residual(dTa_j + _swap(ctx.J) @ ctx.dTa)}


# ---------------------------------------------------------------------------
# dimension 4
# ---------------------------------------------------------------------------

def _require_dim4(ctx, what: str) -> None:
    if ctx.struct.n != 1:
        raise DimensionError(f"{what} live in dimension 4")


def dim4_einstein_suite(ctx) -> dict:
    """The dimension-4 curvature trace identities and Einstein deviations."""
    _require_dim4(ctx, "the Einstein-like identities")
    K, g = ctx.sum_P, ctx.g

    # K = -Ric + nabla^g t - (delta t / 2) g
    eq567 = ctx.residual(K + ctx.Ric - ctx.nabla_g_t + 0.5 * ctx.delta_t[..., None, None] * g)

    # Skew(Ric) = (1/4) sum_i dt(e_i, J_a e_i) F_a + (1/2) dt(J_a ., J_a .)
    skew_ric = 0.5 * (ctx.Ric - _swap(ctx.Ric))
    dt = ctx.dt[..., None, :, :]     # against the stack
    s = frame_trace_pair(dt, ctx.ginv, ctx.J)[..., None, None]
    dt_jj = _swap(ctx.J) @ dt @ ctx.J
    eq568 = ctx.residual(skew_ric[..., None, :, :] - (0.25 * s * ctx.F + 0.5 * dt_jj))

    # Ric^g = Sym(Ric) + (|t|^2 g - t (x) t) / 2
    sym_ric = 0.5 * (ctx.Ric + _swap(ctx.Ric))
    eq569 = ctx.residual(ctx.Ric_g - sym_ric - 0.5 * ctx.t_square)

    scal = np.sum(ctx.ginv * ctx.Ric, axis=(-2, -1))[..., None, None]
    scal_k = np.sum(ctx.ginv * K, axis=(-2, -1))[..., None, None]

    return {
        "eq5.67": eq567,
        "eq5.68": eq568,
        "eq5.69": eq569,
        "einstein_deviation": ctx.residual(sym_ric - (scal / 4.0) * g),
        "sp1_einstein_deviation": ctx.residual(ctx.sym_sum_P - (scal_k / 4.0) * g),
    }


def weyl_correspondence(ctx) -> dict:
    """Residuals tying the dimension-4 structure to its Weyl geometry.

    ``qw``: the Weyl connection ``ctx.gamma_w`` satisfies nabla^W g + t (x) g = 0.
    ``qkw_sym``: Sym(Ric^W) + Sym(K) = 0, the pointwise form of the
    equivalence between the two Einstein-type conditions.
    ``wzl1``: the explicit formula for Sym(Ric^W).
    """
    _require_dim4(ctx, "the Weyl correspondence")
    gamma_w, g, t = ctx.gamma_w, ctx.g, ctx.t
    nabla_w_g = covariant_derivative_array(gamma_w, "dd", g, ctx.dg)
    qw = ctx.residual(nabla_w_g + t[..., :, None, None] * g[..., None, :, :])

    ric_w = ricci_tensor(curvature_tensor(gamma_w, ctx.derivative("gamma_w"), g))
    sym_ric_w = 0.5 * (ric_w + _swap(ric_w))
    qkw_sym = ctx.residual(sym_ric_w + ctx.sym_sum_P)

    sym_nabla_t = 0.5 * (ctx.nabla_g_t + _swap(ctx.nabla_g_t))
    wzl1 = ctx.residual(
        sym_ric_w
        - (ctx.Ric_g - sym_nabla_t - 0.5 * ctx.t_square
           + 0.5 * ctx.delta_t[..., None, None] * g))

    return {"qw": qw, "qkw_sym": qkw_sym, "wzl1": wzl1}
