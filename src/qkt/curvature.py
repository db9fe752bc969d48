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
    trace_codifferential,
    wedge_arrays,
)


@dataclass(frozen=True)
class CurvatureValue:
    """Curvature arrays at some points: (1,3) components and the (0,4) lowering."""

    R13: np.ndarray   # R13[..., l, k, i, j]
    R4: np.ndarray    # R4[..., X, Y, Z, V]

    def pair_antisymmetry(self) -> tuple[float, float]:
        first = float(np.max(np.abs(self.R4 + np.swapaxes(self.R4, -4, -3))))
        last = float(np.max(np.abs(self.R4 + np.swapaxes(self.R4, -2, -1))))
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
    quad_i = np.einsum("...lim,...mjk->...lkij", gamma, gamma)
    quad_j = np.einsum("...ljm,...mik->...lkij", gamma, gamma)
    R13 = term_i - term_j + quad_i - quad_j
    R4 = np.einsum("...lkij,...lv->...ijkv", R13, g)
    return CurvatureValue(R13=R13, R4=R4)


def ricci_forms(curv: CurvatureValue, ginv: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The three Ricci 2-forms rho[..., a, X, Y] of a curvature value."""
    return 0.5 * frame_trace_pair(curv.R4[..., None, :, :, :, :], ginv, J)


def ricci_tensor(curv: CurvatureValue) -> np.ndarray:
    """Ric[..., X, Y] as the pure (1,3) trace (valid for non-metric connections too)."""
    return np.einsum("...akaj->...jk", curv.R13)


def _cyclic3(arr: np.ndarray) -> np.ndarray:
    """Cyclic sum over the first three of four tensor slots."""
    return arr + arr.transpose(1, 2, 0, 3) + arr.transpose(2, 0, 1, 3)


# ---------------------------------------------------------------------------
# identity records: each reads one single-point context ``struct.at(p)``
# ---------------------------------------------------------------------------

def sp1_curvature_residuals(ctx) -> dict:
    """Residuals of the curvature/sp(1) relations.

    ``eq11``: [R(X,Y), J_a] = (rho_c(X,Y) J_b - rho_b(X,Y) J_c) / n.
    ``eq12``: rho_a = n (d omega_a + omega_b ^ omega_c); the factor n
    makes the relation consistent with eq11 for every n.
    """
    n = ctx.struct.n
    R13, J, rho = ctx.curv.R13, ctx.J, ctx.rho
    lie = np.einsum("lmij,amk->alkij", R13, J) - np.einsum("alm,mkij->alkij", J, R13)
    rhs = (np.einsum("aij,alk->alkij", rho[CYC_C], J[CYC_B])
           - np.einsum("aij,alk->alkij", rho[CYC_B], J[CYC_C])) / n
    eq11 = float(np.max(np.abs(lie - rhs)))

    omegas = ctx.omega
    # one stencil of the three sp(1) forms
    d_omega = antisymmetrized_gradient(np.moveaxis(ctx.derivative("omega", True), 0, 1), degree=1)
    wedge_bc = wedge_arrays(omegas[CYC_B], omegas[CYC_C], stack=1)
    eq12 = float(np.max(np.abs(rho - n * (d_omega + wedge_bc))))
    return {"eq11": eq11, "eq12": eq12}


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
    nab_u = nab.transpose(1, 2, 3, 0)
    eq13 = float(np.max(np.abs(ctx.dT - (cyc_nab - nab_u + 2.0 * cyc_gtt))))

    # first Bianchi: cyclic R = cyclic(nabla T + g(T,T))
    eq14 = float(np.max(np.abs(_cyclic3(R4) - (cyc_nab + cyc_gtt))))

    # Levi-Civita curvature from the torsion one
    predicted_Rg = (
        R4
        - 0.5 * nab
        + 0.5 * nab.transpose(1, 0, 2, 3)
        - 0.5 * gtt
        - 0.25 * gtt.transpose(1, 2, 0, 3)
        - 0.25 * gtt.transpose(2, 0, 1, 3)
    )
    eq15 = float(np.max(np.abs(ctx.curv_g.R4 - predicted_Rg)))

    # pair-swap defect D(X,Y,Z,U) = R(X,Y,Z,U) - R(Z,U,X,Y)
    D = R4 - R4.transpose(2, 3, 0, 1)
    predicted_D = 0.5 * (
        nab                            # (nabla_X T)(Y, Z, U)
        - nab.transpose(1, 0, 2, 3)    # (nabla_Y T)(X, Z, U)
        - nab.transpose(2, 3, 0, 1)    # (nabla_Z T)(U, X, Y)
        + nab.transpose(2, 3, 1, 0)    # (nabla_U T)(Z, X, Y)
    )
    tir1 = float(np.max(np.abs(D - predicted_D)))

    # nabla^g T = nabla T + cyclic g(T,T) / 2
    sof = float(np.max(np.abs(ctx.nabla_g_T - (nab + 0.5 * cyc_gtt))))

    # Ric(X,Y) - Ric(Y,X) = -delta T(X,Y)
    delta_T = trace_codifferential(ctx.nabla_g_T, ctx.ginv)
    remark3 = float(np.max(np.abs(ctx.Ric - ctx.Ric.T + delta_T)))

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
    lhs = n * P + P[CYC_B] + P[CYC_C]
    rhs = -n * ctx.Ric + (n / 4.0) * dTa_j + (n / 2.0) * nTa_j
    out = {"ti20": float(np.max(np.abs(lhs - rhs)))}
    if n >= 2:
        rhs = (
            -(n * (n - 1.0) / (n + 2.0)) * ctx.Ric
            + (n / (4.0 * (n + 2.0))) * (
                (n + 1.0) * dTa_j - dTa_j[CYC_B] - dTa_j[CYC_C])
            + (n / (2.0 * (n + 2.0))) * (
                (n + 1.0) * nTa_j - nTa_j[CYC_B] - nTa_j[CYC_C])
        )
        out["eq22"] = float(np.max(np.abs((n - 1.0) * P - rhs)))

    lam = float(np.einsum("axy,xy->", P, ctx.g) / (3.0 * np.einsum("xy,xy->", ctx.g, ctx.g)))
    fit = float(np.max(np.abs(P - lam * ctx.g[None, :, :])))
    out["eq27_lambda"] = lam
    out["eq27_fit"] = fit
    return out


def dT_trace_equalities(ctx) -> dict:
    """Trace consequences of a (2,2)-type dT: equality of the three traces
    and their (1,1)-form property."""
    dTa_j = ctx.dTa_J
    eq24 = float(np.max(np.abs(dTa_j - dTa_j[CYC_B])))
    eq24p = float(np.max(np.abs(dTa_j + np.swapaxes(ctx.J, 1, 2) @ ctx.dTa)))
    return {"eq24": eq24, "eq24_prime": eq24p}


# ---------------------------------------------------------------------------
# dimension 4
# ---------------------------------------------------------------------------

def _require_dim4(ctx, what: str) -> None:
    if ctx.struct.n != 1:
        raise DimensionError(f"{what} live in dimension 4")


def dim4_einstein_suite(ctx) -> dict:
    """The dimension-4 curvature trace identities and Einstein deviations."""
    _require_dim4(ctx, "the Einstein-like identities")
    K, g, t = ctx.sum_P, ctx.g, ctx.t

    # K = -Ric + nabla^g t - (delta t / 2) g
    eq567 = float(np.max(np.abs(
        K + ctx.Ric - ctx.nabla_g_t + 0.5 * ctx.delta_t * g)))

    # Skew(Ric) = (1/4) sum_i dt(e_i, J_a e_i) F_a + (1/2) dt(J_a ., J_a .)
    skew_ric = 0.5 * (ctx.Ric - ctx.Ric.T)
    s = frame_trace_pair(ctx.dt[None], ctx.ginv, ctx.J)[:, None, None]
    dt_jj = np.swapaxes(ctx.J, 1, 2) @ ctx.dt @ ctx.J
    eq568 = float(np.max(np.abs(skew_ric - (0.25 * s * ctx.F + 0.5 * dt_jj))))

    # Ric^g = Sym(Ric) + (|t|^2 g - t (x) t) / 2
    sym_ric = 0.5 * (ctx.Ric + ctx.Ric.T)
    eq569 = float(np.max(np.abs(
        ctx.Ric_g - sym_ric - 0.5 * (ctx.t_norm2 * g - np.outer(t, t)))))

    scal = float(np.einsum("jk,jk->", ctx.ginv, ctx.Ric))
    scal_k = float(np.einsum("jk,jk->", ctx.ginv, K))
    einstein_dev = float(np.max(np.abs(sym_ric - (scal / 4.0) * g)))
    sp1_einstein_dev = float(np.max(np.abs(ctx.sym_sum_P - (scal_k / 4.0) * g)))

    return {
        "eq5.67": eq567,
        "eq5.68": eq568,
        "eq5.69": eq569,
        "einstein_deviation": einstein_dev,
        "sp1_einstein_deviation": sp1_einstein_dev,
    }


def weyl_correspondence(ctx) -> dict:
    """Residuals tying the dimension-4 structure to its Weyl geometry.

    ``qw``: the Weyl connection ``ctx.gamma_w`` satisfies nabla^W g + t (x) g = 0.
    ``qkw_sym``: Sym(Ric^W) + Sym(K) = 0, the pointwise form of the
    equivalence between the two Einstein-type conditions.
    ``wzl1``: the explicit formula for Sym(Ric^W).
    ``einstein_weyl_deviation``: |Sym(Ric^W) - (tr Sym(Ric^W) / 4) g|.
    """
    _require_dim4(ctx, "the Weyl correspondence")
    gamma_w, g, t = ctx.gamma_w, ctx.g, ctx.t
    nabla_w_g = covariant_derivative_array(gamma_w, "dd", g, ctx.dg)
    qw = float(np.max(np.abs(nabla_w_g + np.einsum("i,jk->ijk", t, g))))

    ric_w = ricci_tensor(curvature_tensor(gamma_w, ctx.derivative("gamma_w", True), g))
    sym_ric_w = 0.5 * (ric_w + ric_w.T)
    qkw_sym = float(np.max(np.abs(sym_ric_w + ctx.sym_sum_P)))

    sym_nabla_t = 0.5 * (ctx.nabla_g_t + ctx.nabla_g_t.T)
    wzl1 = float(np.max(np.abs(
        sym_ric_w
        - (ctx.Ric_g - sym_nabla_t - 0.5 * (ctx.t_norm2 * g - np.outer(t, t))
           + 0.5 * ctx.delta_t * g))))

    trace_w = float(np.einsum("jk,jk->", ctx.ginv, sym_ric_w))
    ew_dev = float(np.max(np.abs(sym_ric_w - (trace_w / 4.0) * g)))

    return {"qw": qw, "qkw_sym": qkw_sym, "wzl1": wzl1,
            "einstein_weyl_deviation": ew_dev}
