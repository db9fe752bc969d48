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
from .quaternionic import CYCLIC, frame_trace_pair
from .tensor_core import (
    ConnectionField,
    FDScheme,
    TensorField,
    codifferential,
    covariant_derivative_array,
    exterior_derivative,
    gradient,
    levi_civita,
    levi_civita_field,
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
    J = hyper.matrices(p)
    return np.stack([
        0.5 * frame_trace_pair(curv.R4, ginv, J[a]) for a in range(3)
    ])


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
        return self._get("F", lambda: np.stack([self.g @ self.J[a] for a in range(3)]))

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
    def nabla_T(self):
        """(nabla_X T)(Y, Z, U) under the torsion connection."""
        return self._get("nabla_T", lambda: covariant_derivative_array(
            self.struct.connection(self.p),
            TensorField("ddd", self.struct.torsion.func, self.struct.torsion.nested),
            self.p, self.scheme))

    @property
    def nabla_g_T(self):
        """(nabla^g_X T)(Y, Z, U) under Levi-Civita."""
        return self._get("nabla_g_T", lambda: covariant_derivative_array(
            levi_civita(self.struct.data.patch.metric, self.p, self.scheme),
            TensorField("ddd", self.struct.torsion.func, self.struct.torsion.nested),
            self.p, self.scheme))

    @property
    def dT4(self):
        return self._get("dT4", lambda: exterior_derivative(
            self.struct.torsion, self.scheme)(self.p))

    @property
    def gTT(self):
        """gTT[x,y,z,u] = g(T(X,Y), T(Z,U))."""
        d = self.struct.dim
        return self._get("gTT", lambda: (self.T.reshape(d * d, d) @ self.ginv
                                         @ self.T.reshape(d * d, d).T).reshape((d,) * 4))

    @property
    def P(self):
        """P[a, x, y] = rho_a(X, J_a Y)."""
        return self._get("P", lambda: np.stack([
            np.einsum("xm,my->xy", self.rho[a], self.J[a]) for a in range(3)
        ]))

    @property
    def dTa(self):
        """dTa[a, x, y] = sum_i dT(X, Y, e_i, J_a e_i)."""
        return self._get("dTa", lambda: np.stack([
            frame_trace_pair(self.dT4, self.ginv, self.J[a]) for a in range(3)
        ]))

    @property
    def nabla_Ta(self):
        """nabla_Ta[a, x, y] = sum_i (nabla_X T)(Y, e_i, J_a e_i)."""
        return self._get("nabla_Ta", lambda: np.stack([
            frame_trace_pair(self.nabla_T, self.ginv, self.J[a]) for a in range(3)
        ]))

    @property
    def t(self):
        return self._get("t", lambda: torsion_one_forms(self.struct, self.p)[3])

    @property
    def nabla_g_t(self):
        """(nabla^g_X t)(Y) as a (d, d) matrix."""
        return self._get("nabla_g_t", lambda: covariant_derivative_array(
            levi_civita(self.struct.data.patch.metric, self.p, self.scheme),
            TensorField("d", self.struct.torsion_one_form_field().func, nested=True),
            self.p, self.scheme))

    @property
    def delta_t(self) -> float:
        return self._get("delta_t", lambda: float(
            -np.einsum("ab,ab->", self.ginv, self.nabla_g_t)))

    @property
    def dt(self):
        return self._get("dt", lambda: exterior_derivative(
            self.struct.torsion_one_form_field(), self.scheme)(self.p))


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
    eq11 = 0.0
    R13 = ctx.curv.R13
    for a, b, c in CYCLIC:
        lie = np.einsum("lmij,mk->lkij", R13, ctx.J[a]) \
            - np.einsum("lm,mkij->lkij", ctx.J[a], R13)
        rhs = (np.einsum("ij,lk->lkij", ctx.rho[c], ctx.J[b])
               - np.einsum("ij,lk->lkij", ctx.rho[b], ctx.J[c])) / n
        eq11 = max(eq11, float(np.max(np.abs(lie - rhs))))

    omegas, _ = struct.caches["omega_bundle"](p)
    scheme_eff = scheme or struct.scheme
    eq12 = 0.0
    for a, b, c in CYCLIC:
        omega_field = struct.sp1_forms[a]
        d_omega = exterior_derivative(omega_field, scheme_eff)(p)
        wedge_bc = np.outer(omegas[b], omegas[c]) - np.outer(omegas[c], omegas[b])
        eq12 = max(eq12, float(np.max(np.abs(
            ctx.rho[a] - n * (d_omega + wedge_bc)))))
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
    delta_T = codifferential(struct.torsion, struct.data.patch.metric, p, scheme_eff)
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

    dTa_j = np.stack([dTa[a] @ ctx.J[a] for a in range(3)])
    nTa_j = np.stack([nTa[a] @ ctx.J[a] for a in range(3)])

    ti20 = 0.0
    for a, b, c in CYCLIC:
        lhs = n * P[a] + P[b] + P[c]
        rhs = -n * ctx.Ric + (n / 4.0) * dTa_j[a] + (n / 2.0) * nTa_j[a]
        ti20 = max(ti20, float(np.max(np.abs(lhs - rhs))))

    out = {"ti20": ti20}
    if n >= 2:
        eq22 = 0.0
        for a, b, c in CYCLIC:
            lhs = (n - 1.0) * P[a]
            rhs = (
                -(n * (n - 1.0) / (n + 2.0)) * ctx.Ric
                + (n / (4.0 * (n + 2.0))) * (
                    (n + 1.0) * dTa_j[a] - dTa_j[b] - dTa_j[c])
                + (n / (2.0 * (n + 2.0))) * (
                    (n + 1.0) * nTa_j[a] - nTa_j[b] - nTa_j[c])
            )
            eq22 = max(eq22, float(np.max(np.abs(lhs - rhs))))
        out["eq22"] = eq22

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
    dTa_j = np.stack([ctx.dTa[a] @ ctx.J[a] for a in range(3)])
    eq24 = max(
        float(np.max(np.abs(dTa_j[i] - dTa_j[j])))
        for i in range(3) for j in range(i + 1, 3)
    )
    eq24p = max(
        float(np.max(np.abs(dTa_j[a] + ctx.J[a].T @ ctx.dTa[a])))
        for a in range(3)
    )
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
    eq568 = 0.0
    for a in range(3):
        s_a = float(frame_trace_pair(ctx.dt, ctx.ginv, ctx.J[a]))
        dt_jj = ctx.J[a].T @ ctx.dt @ ctx.J[a]
        predicted = 0.25 * s_a * ctx.F[a] + 0.5 * dt_jj
        eq568 = max(eq568, float(np.max(np.abs(skew_ric - predicted))))

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
