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

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError
from .qkt_connection import QKTStructure, torsion_one_forms
from .quaternionic import CYC_B, CYC_C, frame_trace_pair
from .tensor_core import (
    ConnectionField,
    FDScheme,
    TensorField,
    antisymmetrized_gradient,
    covariant_derivative_array,
    gradient,
    levi_civita,
    levi_civita_field,
    trace_codifferential,
    wedge_arrays,
)


@dataclass(frozen=True)
class CurvatureValue:
    """Curvature arrays at a point: (1,3) components and the (0,4) lowering."""

    R13: np.ndarray   # R13[l, k, i, j]
    R4: np.ndarray    # R4[X, Y, Z, V]

    def pair_antisymmetry(self) -> tuple[float, float]:
        first = float(np.max(np.abs(self.R4 + np.swapaxes(self.R4, 0, 1))))
        last = float(np.max(np.abs(self.R4 + np.swapaxes(self.R4, 2, 3))))
        return first, last


@dataclass(frozen=True)
class RicciData:
    """The curvature traces of a dimension-4 structure (K only for n = 1)."""

    rho: np.ndarray          # (3, d, d) Ricci forms
    Ric: np.ndarray          # (d, d), torsion connection
    Ric_g: np.ndarray        # (d, d), Levi-Civita
    Scal: float
    K: np.ndarray | None     # (d, d) sp(1) trace, n = 1 only
    Scal_K: float | None


def curvature_tensor(conn: ConnectionField,
                     metric: Callable[[np.ndarray], np.ndarray],
                     p: np.ndarray,
                     scheme: FDScheme) -> CurvatureValue:
    """Curvature of a connection field by differencing its coefficients."""
    gamma = conn(p)
    dG = gradient(conn.func, p, scheme, nested=conn.nested)  # dG[a, l, i, j]
    term_i = dG.transpose(1, 3, 0, 2)   # d_i Gamma[l, j, k] -> [l, k, i, j]
    term_j = dG.transpose(1, 3, 2, 0)   # d_j Gamma[l, i, k] -> [l, k, i, j]
    quad_i = np.einsum("lim,mjk->lkij", gamma, gamma)
    quad_j = np.einsum("ljm,mik->lkij", gamma, gamma)
    R13 = term_i - term_j + quad_i - quad_j
    g = np.asarray(metric(p), dtype=float)
    R4 = np.einsum("lkij,lv->ijkv", R13, g)
    return CurvatureValue(R13=R13, R4=R4)


def ricci_forms(curv: CurvatureValue,
                hyper,
                metric: Callable[[np.ndarray], np.ndarray],
                p: np.ndarray) -> np.ndarray:
    """The three Ricci 2-forms rho[a, X, Y] of a curvature value."""
    ginv = np.linalg.inv(np.asarray(metric(p), dtype=float))
    return 0.5 * frame_trace_pair(curv.R4[None], ginv, hyper.matrices(p))


def ricci_tensor(curv: CurvatureValue) -> np.ndarray:
    """Ric[X, Y] as the pure (1,3) trace (valid for non-metric connections too)."""
    return np.einsum("akaj->jk", curv.R13)


# ---------------------------------------------------------------------------
# per-point evaluation context
# ---------------------------------------------------------------------------

class _CurvatureContext:
    """Lazy shared quantities for the curvature identities at one point."""

    def __init__(self, struct: QKTStructure, p: np.ndarray, scheme: FDScheme):
        # held weakly: contexts live in struct.caches, and a cycle would keep
        # every cached array alive until a full garbage-collection pass
        self.struct = weakref.proxy(struct)
        self.p = np.asarray(p, dtype=float)
        self.scheme = scheme
        self._vals: dict = {}

    def _get(self, name: str, compute):
        if name not in self._vals:
            self._vals[name] = compute()
        return self._vals[name]

    @property
    def g(self):
        return self._get("g", lambda: self.struct.metric_at(self.p))

    @property
    def ginv(self):
        return self._get("ginv", lambda: np.linalg.inv(self.g))

    @property
    def J(self):
        return self._get("J", lambda: self.struct.data.hyper.matrices(self.p))

    @property
    def F(self):
        return self._get("F", lambda: self.g @ self.J)

    @property
    def T(self):
        return self._get("T", lambda: self.struct.torsion(self.p))

    @property
    def curv(self) -> CurvatureValue:
        return self._get("curv", lambda: curvature_tensor(
            self.struct.connection, self.struct.data.patch.metric,
            self.p, self.scheme))

    @property
    def curv_g(self) -> CurvatureValue:
        return self._get("curv_g", lambda: curvature_tensor(
            levi_civita_field(self.struct.patch, self.scheme),
            self.struct.data.patch.metric, self.p, self.scheme))

    @property
    def rho(self):
        return self._get("rho", lambda: ricci_forms(
            self.curv, self.struct.data.hyper, self.struct.data.patch.metric, self.p))

    @property
    def Ric(self):
        return self._get("Ric", lambda: ricci_tensor(self.curv))

    @property
    def Ric_g(self):
        return self._get("Ric_g", lambda: ricci_tensor(self.curv_g))

    @property
    def gamma_g(self):
        return self._get("gamma_g", lambda: levi_civita(
            self.struct.data.patch.metric, self.p, self.scheme))

    def _nabla(self, gamma, field, grad):
        return covariant_derivative_array(gamma, field, self.p, self.scheme, grad=grad)

    def _torsion_derivatives(self) -> dict:
        """dT, nabla T and nabla^g T, computed together from one stencil of T."""

        def compute():
            T = self.struct.torsion
            grad = gradient(T.func, self.p, self.scheme, nested=T.nested)
            field = TensorField("ddd", T.func, T.nested)
            return {"dT4": antisymmetrized_gradient(grad),
                    "nabla_T": self._nabla(self.struct.connection(self.p), field, grad),
                    "nabla_g_T": self._nabla(self.gamma_g, field, grad)}

        return self._get("T_derivatives", compute)

    @property
    def nabla_T(self):
        """(nabla_X T)(Y, Z, U) under the torsion connection."""
        return self._torsion_derivatives()["nabla_T"]

    @property
    def nabla_g_T(self):
        """(nabla^g_X T)(Y, Z, U) under Levi-Civita."""
        return self._torsion_derivatives()["nabla_g_T"]

    @property
    def dT4(self):
        return self._torsion_derivatives()["dT4"]

    @property
    def gTT(self):
        """gTT[x,y,z,u] = g(T(X,Y), T(Z,U))."""
        d = self.struct.dim
        return self._get("gTT", lambda: (self.T.reshape(d * d, d) @ self.ginv
                                         @ self.T.reshape(d * d, d).T).reshape((d,) * 4))

    @property
    def P(self):
        """P[a, x, y] = rho_a(X, J_a Y)."""
        return self._get("P", lambda: self.rho @ self.J)

    @property
    def dTa(self):
        """dTa[a, x, y] = sum_i dT(X, Y, e_i, J_a e_i)."""
        return self._get("dTa", lambda: frame_trace_pair(self.dT4[None], self.ginv, self.J))

    @property
    def nabla_Ta(self):
        """nabla_Ta[a, x, y] = sum_i (nabla_X T)(Y, e_i, J_a e_i)."""
        return self._get("nabla_Ta", lambda: frame_trace_pair(
            self.nabla_T[None], self.ginv, self.J))

    @property
    def t(self):
        return self._get("t", lambda: torsion_one_forms(self.struct, self.p)[3])

    @property
    def grad_t(self):
        """The one stencil of the torsion 1-form behind dt, nabla t and nabla^g t."""
        return self._get("grad_t", lambda: gradient(
            self.struct.torsion_one_form_field().func, self.p, self.scheme, nested=True))

    def nabla_t(self, gamma):
        """(nabla_X t)(Y) as a (d, d) matrix under the connection ``gamma``."""
        return self._nabla(gamma, TensorField("d", self.struct.torsion_one_form_field().func,
                                              nested=True), self.grad_t)

    @property
    def nabla_g_t(self):
        """(nabla^g_X t)(Y) as a (d, d) matrix."""
        return self._get("nabla_g_t", lambda: self.nabla_t(self.gamma_g))

    @property
    def delta_t(self) -> float:
        return self._get("delta_t", lambda: float(
            -np.einsum("ab,ab->", self.ginv, self.nabla_g_t)))

    @property
    def dt(self):
        return self._get("dt", lambda: antisymmetrized_gradient(self.grad_t))


def _context(struct: QKTStructure, p: np.ndarray, scheme: FDScheme | None) -> _CurvatureContext:
    scheme = scheme or struct.scheme
    key = (np.asarray(p, dtype=float).tobytes(), scheme)
    store = struct.caches.setdefault("curvature_ctx", {})
    if key not in store:
        store[key] = _CurvatureContext(struct, p, scheme)
    return store[key]


def _cyclic3(arr: np.ndarray) -> np.ndarray:
    """Cyclic sum over the first three of four tensor slots."""
    return arr + arr.transpose(1, 2, 0, 3) + arr.transpose(2, 0, 1, 3)


# ---------------------------------------------------------------------------
# identity records
# ---------------------------------------------------------------------------

def sp1_curvature_residuals(struct: QKTStructure,
                            p: np.ndarray,
                            scheme: FDScheme | None = None) -> dict:
    """Residuals of the curvature/sp(1) relations.

    ``eq11``: [R(X,Y), J_a] = (rho_c(X,Y) J_b - rho_b(X,Y) J_c) / n.
    ``eq12``: rho_a = n (d omega_a + omega_b ^ omega_c); the factor n
    makes the relation consistent with eq11 for every n.
    """
    ctx = _context(struct, p, scheme)
    n = struct.n
    R13, J, rho = ctx.curv.R13, ctx.J, ctx.rho
    lie = np.einsum("lmij,amk->alkij", R13, J) - np.einsum("alm,mkij->alkij", J, R13)
    rhs = (np.einsum("aij,alk->alkij", rho[CYC_C], J[CYC_B])
           - np.einsum("aij,alk->alkij", rho[CYC_B], J[CYC_C])) / n
    eq11 = float(np.max(np.abs(lie - rhs)))

    omega_bundle = struct.caches["omega_bundle"]
    omegas, _ = omega_bundle(p)
    # one stencil of the three sp(1) forms
    grad = gradient(lambda q: omega_bundle(q)[0], p, scheme or struct.scheme, nested=True)
    d_omega = antisymmetrized_gradient(np.moveaxis(grad, 0, 1), degree=1)
    wedge_bc = wedge_arrays(omegas[CYC_B], omegas[CYC_C], stack=1)
    eq12 = float(np.max(np.abs(rho - n * (d_omega + wedge_bc))))
    return {"eq11": eq11, "eq12": eq12}


def bianchi_and_symmetry_residuals(struct: QKTStructure,
                                   p: np.ndarray,
                                   scheme: FDScheme | None = None) -> dict:
    """First Bianchi, the dT expansion, the Levi-Civita comparison, the
    curvature pair-swap formula, the two-derivative comparison, and the
    skew part of the Ricci tensor against the coclosedness of T."""
    ctx = _context(struct, p, scheme)
    scheme_eff = scheme or struct.scheme
    nab = ctx.nabla_T
    gtt = ctx.gTT
    R4 = ctx.curv.R4

    cyc_nab = _cyclic3(nab)
    cyc_gtt = _cyclic3(gtt)

    # dT = cyclic(nabla T) - (nabla_U T)(X,Y,Z) + 2 cyclic g(T,T)
    nab_u = nab.transpose(1, 2, 3, 0)
    eq13 = float(np.max(np.abs(ctx.dT4 - (cyc_nab - nab_u + 2.0 * cyc_gtt))))

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


def trace_identity_residuals(struct: QKTStructure,
                             p: np.ndarray,
                             scheme: FDScheme | None = None) -> dict:
    """The two curvature trace identities plus the proportionality probe.

    ``ti20`` holds for every n; ``eq22`` needs n >= 2.  ``eq27_lambda`` /
    ``eq27_fit`` report the least-squares proportionality rho_a(X, J_a Y)
    ~ lambda g -- meaningful when the torsion is parallel and dT has the
    balanced type.
    """
    ctx = _context(struct, p, scheme)
    n = struct.n
    P, dTa, nTa = ctx.P, ctx.dTa, ctx.nabla_Ta

    dTa_j = dTa @ ctx.J
    nTa_j = nTa @ ctx.J

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


def dT_trace_equalities(struct: QKTStructure,
                        p: np.ndarray,
                        scheme: FDScheme | None = None) -> dict:
    """Trace consequences of a (2,2)-type dT: equality of the three traces
    and their (1,1)-form property."""
    ctx = _context(struct, p, scheme)
    dTa_j = ctx.dTa @ ctx.J
    eq24 = float(np.max(np.abs(dTa_j - dTa_j[CYC_B])))
    eq24p = float(np.max(np.abs(dTa_j + np.swapaxes(ctx.J, 1, 2) @ ctx.dTa)))
    return {"eq24": eq24, "eq24_prime": eq24p}


# ---------------------------------------------------------------------------
# dimension 4
# ---------------------------------------------------------------------------

def ricci_data(struct: QKTStructure, p: np.ndarray, scheme: FDScheme | None = None) -> RicciData:
    ctx = _context(struct, p, scheme)
    scal = float(np.einsum("jk,jk->", ctx.ginv, ctx.Ric))
    K = None
    scal_k = None
    if struct.n == 1:
        K = ctx.P.sum(axis=0)
        scal_k = float(np.einsum("jk,jk->", ctx.ginv, K))
    return RicciData(rho=ctx.rho, Ric=ctx.Ric, Ric_g=ctx.Ric_g, Scal=scal,
                     K=K, Scal_K=scal_k)


def dim4_einstein_suite(struct: QKTStructure,
                        p: np.ndarray,
                        scheme: FDScheme | None = None) -> dict:
    """The dimension-4 curvature trace identities and Einstein deviations."""
    if struct.n != 1:
        raise DimensionError("the Einstein-like identities live in dimension 4")
    ctx = _context(struct, p, scheme)
    K = ctx.P.sum(axis=0)
    g = ctx.g

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
    t = ctx.t
    t_norm2 = float(t @ ctx.ginv @ t)
    eq569 = float(np.max(np.abs(
        ctx.Ric_g - sym_ric - 0.5 * (t_norm2 * g - np.outer(t, t)))))

    scal = float(np.einsum("jk,jk->", ctx.ginv, ctx.Ric))
    scal_k = float(np.einsum("jk,jk->", ctx.ginv, K))
    einstein_dev = float(np.max(np.abs(sym_ric - (scal / 4.0) * g)))
    sym_K = 0.5 * (K + K.T)
    sp1_einstein_dev = float(np.max(np.abs(sym_K - (scal_k / 4.0) * g)))

    return {
        "eq5.67": eq567,
        "eq5.68": eq568,
        "eq5.69": eq569,
        "einstein_deviation": einstein_dev,
        "sp1_einstein_deviation": sp1_einstein_dev,
        "scal": scal,
        "scal_K": scal_k,
    }


def weyl_connection_field(struct: QKTStructure, scheme: FDScheme) -> ConnectionField:
    """The torsion-free connection with nabla g = -t (x) g built from t."""

    def gamma_w(p, _struct=struct, _scheme=scheme):
        g = _struct.metric_at(p)
        ginv = np.linalg.inv(g)
        gamma = levi_civita(_struct.data.patch.metric, p, _scheme)
        t = torsion_one_forms(_struct, p)[3]
        t_up = ginv @ t
        eye = np.eye(_struct.dim)
        return (
            gamma
            + 0.5 * np.einsum("i,lj->lij", t, eye)
            + 0.5 * np.einsum("j,li->lij", t, eye)
            - 0.5 * np.einsum("ij,l->lij", g, t_up)
        )

    return ConnectionField(gamma_w, nested=True)


def weyl_correspondence(struct: QKTStructure,
                        p: np.ndarray,
                        scheme: FDScheme | None = None) -> dict:
    """Residuals tying the dimension-4 structure to its Weyl geometry.

    ``qw``: the built connection satisfies nabla^W g + t (x) g = 0.
    ``qkw_sym``: Sym(Ric^W) + Sym(K) = 0, the pointwise form of the
    equivalence between the two Einstein-type conditions.
    ``wzl1``: the explicit formula for Sym(Ric^W).
    ``einstein_weyl_deviation``: |Sym(Ric^W) - (tr Sym(Ric^W) / 4) g|.
    """
    if struct.n != 1:
        raise DimensionError("the Weyl correspondence lives in dimension 4")
    ctx = _context(struct, p, scheme)
    scheme_eff = scheme or struct.scheme
    conn_w = weyl_connection_field(struct, scheme_eff)

    gamma_w = conn_w(p)
    g = ctx.g
    dg = gradient(struct.data.patch.metric, p, scheme_eff)
    nabla_w_g = (
        dg
        - np.einsum("mij,mk->ijk", gamma_w, g)
        - np.einsum("mik,jm->ijk", gamma_w, g)
    )
    qw = float(np.max(np.abs(nabla_w_g + np.einsum("i,jk->ijk", ctx.t, g))))

    curv_w = curvature_tensor(conn_w, struct.data.patch.metric, p, scheme_eff)
    ric_w = ricci_tensor(curv_w)
    sym_ric_w = 0.5 * (ric_w + ric_w.T)
    K = ctx.P.sum(axis=0)
    sym_K = 0.5 * (K + K.T)
    qkw_sym = float(np.max(np.abs(sym_ric_w + sym_K)))

    t = ctx.t
    t_norm2 = float(t @ ctx.ginv @ t)
    sym_nabla_t = 0.5 * (ctx.nabla_g_t + ctx.nabla_g_t.T)
    wzl1 = float(np.max(np.abs(
        sym_ric_w
        - (ctx.Ric_g - sym_nabla_t - 0.5 * (t_norm2 * g - np.outer(t, t))
           + 0.5 * ctx.delta_t * g))))

    trace_w = float(np.einsum("jk,jk->", ctx.ginv, sym_ric_w))
    ew_dev = float(np.max(np.abs(sym_ric_w - (trace_w / 4.0) * g)))

    return {"qw": qw, "qkw_sym": qkw_sym, "wzl1": wzl1,
            "einstein_weyl_deviation": ew_dev}
