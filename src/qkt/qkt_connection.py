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

Every quantity of a built structure is a layer of a :class:`QKTContext`,
the lazy evaluation context that ``QKTStructure.at(x)`` returns for one
point array ``x``.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curvature import CurvatureValue, curvature_tensor, ricci_forms, ricci_tensor
from .errors import DimensionError, NotQKTError
from .quaternionic import (
    CYC_A,
    CYC_B,
    CYC_C,
    CYCLIC,
    ConstantHypercomplexField,
    HypercomplexField,
    QuaternionicHermitianData,
    dT_type22_residual,
    frame_trace_pair,
    j_apply_form,
    j_apply_oneform,
    project_plus_3form,
    quaternionic_residuals,
    torsion_02_part,
)
from .tensor_core import (
    ConformalMetric,
    ConnectionField,
    ConstantForm,
    ConstantMetric,
    CoordinatePatch,
    FDScheme,
    FormField,
    antisymmetrized_gradient,
    christoffel,
    covariant_derivative_array,
    fold,
    gradient,
    hodge_star_array,
    require_nondegenerate,
    stencil,
    trace_codifferential,
    validate_metric,
    wedge_arrays,
    worst,
)

DEFAULT_EXISTENCE_TOL = 1e-4
ALGEBRA_TOL = 1e-8


# ---------------------------------------------------------------------------
# the evaluation context
# ---------------------------------------------------------------------------

def _read_only(value):
    """``value`` with every array in it behind a read-only view."""
    if isinstance(value, np.ndarray):
        value = value.view()
        value.flags.writeable = False
    elif isinstance(value, tuple):
        value = tuple(_read_only(item) for item in value)
    elif isinstance(value, dict):
        value = types.MappingProxyType({key: _read_only(item) for key, item in value.items()})
    elif isinstance(value, CurvatureValue):
        value = CurvatureValue(R13=_read_only(value.R13), R4=_read_only(value.R4))
    return value


def _layer(compute):
    """A context layer: computed on first read, then kept and handed out read-only."""

    @functools.wraps(compute)
    def read_only(ctx):
        return _read_only(compute(ctx))

    return functools.cached_property(read_only)


class QKTContext:
    """The layers of one structure on one point array ``x`` (..., d).

    Each layer has one definition below, is computed on first read and is
    kept, read-only, for the life of the context.  A quantity that more than
    one identity record reads (in ``qkt.qkt_connection``, ``qkt.conformal``,
    ``qkt.curvature`` or ``qkt.suite``) is a layer here, never a second
    formula in a record.  The metric is g = f g_0: for a
    :class:`ConformalMetric` the factor f is evaluated once per point array,
    and for any other metric f = 1 and g_0 = g.  A derivative differences
    a layer of one of two stencil sub-contexts, each built at most once: at
    step ``h`` for g, F_a, f (and a torsion built without finite
    differences), at step ``h2`` for the torsion, Gamma, t, the sp(1) forms
    and everything else built from finite differences.  Every layer takes a
    leading point axis; the identity records read single-point contexts.
    """

    def __init__(self, struct: QKTStructure, x: np.ndarray, scheme: FDScheme):
        x = np.asarray(x, dtype=float).view()
        x.flags.writeable = False
        vars(self).update(struct=struct, x=x, scheme=scheme)

    def __setattr__(self, name, value):
        raise AttributeError(f"context layer {name!r} is read-only")

    @functools.cached_property
    def _stencil_h(self) -> "QKTContext":
        return QKTContext(self.struct, stencil(self.x, self.scheme.h), self.scheme)

    @functools.cached_property
    def _stencil_h2(self) -> "QKTContext":
        return QKTContext(self.struct, stencil(self.x, self.scheme.h2), self.scheme)

    def derivative(self, layer: str, nested: bool) -> np.ndarray:
        """The gradient of ``layer`` at x, step h2 when ``nested``, else h.

        One :func:`gradient` call; its field returns the layer of the stencil
        sub-context, which sits on the very stencil array ``gradient`` builds.
        On a constant structure every layer is the same at every point, so
        the gradient is exact zeros, without a stencil.
        """
        if self.struct.constant:
            shape, points = np.shape(getattr(self, layer)), self.x.ndim - 1
            return np.zeros(shape[:points] + self.x.shape[-1:] + shape[points:])
        sub = self._stencil_h2 if nested else self._stencil_h
        return gradient(lambda _: getattr(sub, layer), self.x, self.scheme, nested)

    # -- metric and hypercomplex data -------------------------------------

    @_layer
    def f(self):
        """The factor of a conformal metric g = f g_0; ones for any other metric."""
        metric = self.struct.patch.metric
        if isinstance(metric, ConformalMetric):
            return metric.factor.value(self.x)
        return np.ones(self.x.shape[:-1])

    @_layer
    def g0(self):
        """The base metric of a conformal metric g = f g_0; g itself for any other metric."""
        metric = self.struct.patch.metric
        if isinstance(metric, ConformalMetric):
            return np.asarray(metric.base(self.x), dtype=float)
        return self.struct.data.metric_at(self.x)

    @_layer
    def g(self):
        """The metric f g_0."""
        return ConformalMetric.scale(self.f, self.g0)

    @_layer
    def ginv(self):
        return np.linalg.inv(self.g)

    @_layer
    def J(self):
        """J[..., alpha, k, j]."""
        return self.struct.data.hyper.matrices(self.x)

    @_layer
    def F(self):
        """The Kaehler forms F[..., alpha] = g J_alpha."""
        return self.g[..., None, :, :] @ self.J

    @property
    def _g_and_F(self):
        return np.concatenate([self.g[..., None, :, :], self.F], axis=-3)

    @_layer
    def _d_g_and_F(self):
        """d g and d F_a from one stencil: [..., a, 0] = d_a g, [..., a, 1:] = d_a F."""
        return self.derivative("_g_and_F", nested=False)

    @property
    def dg(self):
        """dg[..., a, i, j] = d_a g_ij."""
        return self._d_g_and_F[..., 0, :, :]

    @_layer
    def dJ(self):
        """dJ[..., i, alpha] = d_i J_alpha."""
        return self.struct.data.hyper.gradient(self.x, self.scheme)

    @_layer
    def df(self):
        """df[..., a] = d_a f, from the same stencil as g."""
        return self.derivative("f", nested=False)

    @_layer
    def df_wedge_F(self):
        """(J_a df) ^ F_a[..., a] with the Kaehler forms F_a = g_0 J_a of the base
        metric; their sum is what the torsion gains under g_0 -> f g_0."""
        J = self.J
        return wedge_arrays(j_apply_oneform(J, self.df[..., None, :]),
                            self.g0[..., None, :, :] @ J, stack=J.ndim - 2)

    @_layer
    def gamma_g(self):
        """Christoffel symbols of g; exact zeros for a constant metric."""
        if isinstance(self.struct.patch.metric, ConstantMetric):
            return np.zeros(self.g.shape[:-2] + self.g.shape[-1:] * 3)
        require_nondegenerate(self.g, self.x)
        return christoffel(self.ginv, self.dg)

    # -- first order ------------------------------------------------------

    @_layer
    def bundle(self):
        return _section2_bundle(self)

    @_layer
    def T(self):
        """The torsion 3-form, from the structure's torsion rule."""
        return self.struct.torsion_rule(self)

    @_layer
    def T12(self):
        """The torsion as a (1,2) tensor T12[..., k, i, j]."""
        return np.einsum("...ijm,...mk->...kij", self.T, self.ginv)

    @_layer
    def Gamma(self):
        """The torsion connection nabla^g + T/2."""
        return self.gamma_g + 0.5 * np.einsum("...ijm,...ml->...lij", self.T, self.ginv)

    @_layer
    def nabla_J(self):
        """nabla_J[..., i, alpha, k, j] = (nabla_i J_alpha)[k, j] under the torsion connection."""
        # gamma_dir[..., i] = Gamma[..., :, i, :]: nabla_i J_a = d_i J_a + [Gamma_i, J_a]
        gamma_dir = np.swapaxes(self.Gamma, -3, -2)[..., None, :, :]
        J_i = self.J[..., None, :, :, :]
        nabla_j = gamma_dir @ J_i
        nabla_j += self.dJ
        nabla_j -= J_i @ gamma_dir
        return nabla_j

    @_layer
    def sp1(self):
        """(omega[..., alpha], eq1 residual) from nabla J_a."""
        return _extract_sp1(self.J, self.nabla_J)

    @property
    def omega(self):
        return self.sp1[0]

    @property
    def eq1(self):
        return self.sp1[1]

    @_layer
    def auxiliary(self):
        """(A, C): A_a = omega_b + J_a omega_c and C_a = omega_b - J_a omega_c."""
        omegas = self.omega
        omega_b = omegas[..., CYC_B, :]
        J_omega = j_apply_oneform(self.J, omegas[..., CYC_C, :])
        return omega_b + J_omega, omega_b - J_omega

    @_layer
    def t_alpha(self):
        """The torsion traces t_alpha[..., alpha]."""
        return -0.5 * frame_trace_pair(self.T[..., None, :, :, :], self.ginv, self.J)

    @_layer
    def t_images(self):
        """J_a t_a[..., alpha]."""
        return j_apply_oneform(self.J, self.t_alpha)

    @_layer
    def t(self):
        """The torsion 1-form, the mean of the J_a t_a."""
        return self.t_images.mean(axis=-2)

    @_layer
    def t_wedge_F(self):
        """t_a ^ F_a[..., alpha]."""
        return wedge_arrays(self.t_alpha, self.F, stack=self.t_alpha.ndim - 1)

    @_layer
    def lchkt_candidates(self):
        """theta_a - J_b theta_{a,c}, closed on locally conformally HKT structures."""
        bundle = self.bundle
        J, cross = bundle["J"], bundle["theta_cross"]
        return bundle["theta"] - j_apply_oneform(J[..., CYC_B, :, :], cross[..., CYC_A, CYC_C, :])

    @_layer
    def lee_differences(self):
        """A_a = J_b (theta_c - theta_b), the difference 1-forms of the Lee forms."""
        J, theta = self.J, self.bundle["theta"]
        return j_apply_oneform(J[..., CYC_B, :, :], theta[..., CYC_C, :] - theta[..., CYC_B, :])

    # -- derivatives of the torsion and its 1-form ----------------------------

    @_layer
    def _grad_T(self):
        return self.derivative("T", self.struct.nested_torsion)

    @_layer
    def dT(self):
        return antisymmetrized_gradient(self._grad_T, degree=3)

    @_layer
    def nabla_T(self):
        """(nabla_X T)(Y, Z, U) under the torsion connection."""
        return covariant_derivative_array(self.Gamma, "ddd", self.T, self._grad_T)

    @_layer
    def nabla_g_T(self):
        """(nabla^g_X T)(Y, Z, U) under Levi-Civita."""
        return covariant_derivative_array(self.gamma_g, "ddd", self.T, self._grad_T)

    @_layer
    def _grad_t(self):
        return self.derivative("t", nested=True)

    @_layer
    def dt(self):
        return antisymmetrized_gradient(self._grad_t, degree=1)

    @_layer
    def nabla_t(self):
        """(nabla_X t)(Y) under the torsion connection."""
        return covariant_derivative_array(self.Gamma, "d", self.t, self._grad_t)

    @_layer
    def nabla_g_t(self):
        """(nabla^g_X t)(Y) under Levi-Civita."""
        return covariant_derivative_array(self.gamma_g, "d", self.t, self._grad_t)

    @_layer
    def delta_t(self):
        return -np.einsum("...ab,...ab->...", self.ginv, self.nabla_g_t)

    # -- curvature --------------------------------------------------------

    @_layer
    def curv(self) -> CurvatureValue:
        return curvature_tensor(self.Gamma, self.derivative("Gamma", True), self.g)

    @_layer
    def curv_g(self) -> CurvatureValue:
        return curvature_tensor(self.gamma_g, self.derivative("gamma_g", True), self.g)

    @_layer
    def rho(self):
        return ricci_forms(self.curv, self.ginv, self.J)

    @_layer
    def Ric(self):
        return ricci_tensor(self.curv)

    @_layer
    def Ric_g(self):
        return ricci_tensor(self.curv_g)

    @_layer
    def gTT(self):
        """gTT[..., x, y, z, u] = g(T(X,Y), T(Z,U))."""
        d, points = self.x.shape[-1], self.x.shape[:-1]
        flat = self.T.reshape(points + (d * d, d))
        return (flat @ self.ginv @ np.swapaxes(flat, -1, -2)).reshape(points + (d,) * 4)

    @_layer
    def P(self):
        """P[..., a, x, y] = rho_a(X, J_a Y)."""
        return self.rho @ self.J

    @_layer
    def dTa(self):
        """dTa[..., a, x, y] = sum_i dT(X, Y, e_i, J_a e_i)."""
        return frame_trace_pair(self.dT[..., None, :, :, :, :], self.ginv, self.J)

    @_layer
    def dTa_J(self):
        """dTa_J[..., a, x, y] = sum_i dT(X, J_a Y, e_i, J_a e_i)."""
        return self.dTa @ self.J

    @_layer
    def nabla_Ta_J(self):
        """nabla_Ta_J[..., a, z, x] = sum_i (nabla_Z T)(J_a X, e_i, J_a e_i)."""
        return frame_trace_pair(self.nabla_T[..., None, :, :, :, :], self.ginv, self.J) @ self.J

    @_layer
    def sum_P(self):
        """The dimension-4 tensor K = sum_a P_a (not the bundle's 1-forms K_a)."""
        return self.P.sum(axis=-3)

    @_layer
    def sym_sum_P(self):
        """Sym K, the symmetric part of :attr:`sum_P`."""
        return 0.5 * (self.sum_P + np.swapaxes(self.sum_P, -1, -2))

    @_layer
    def t_norm2(self):
        """|t|^2 = g^{-1}(t, t)."""
        return (self.t[..., None, :] @ self.ginv @ self.t[..., :, None])[..., 0, 0]

    @_layer
    def gamma_w(self):
        """The torsion-free Weyl connection with nabla g = -t (x) g."""
        t_up = (self.ginv @ self.t[..., None])[..., 0]
        eye = np.eye(self.x.shape[-1])
        return (
            self.gamma_g
            + 0.5 * np.einsum("...i,lj->...lij", self.t, eye)
            + 0.5 * np.einsum("...j,li->...lij", self.t, eye)
            - 0.5 * np.einsum("...ij,...l->...lij", self.g, t_up)
        )


# ---------------------------------------------------------------------------
# pointwise first-order bundle
# ---------------------------------------------------------------------------

def _section2_bundle(ctx: QKTContext) -> dict:
    """All first-order objects needed by the torsion formula at the points ``ctx.x``.

    Every quantity carries the point axes first, then the quaternionic index;
    the two residuals are per point.
    """
    g, ginv, J, F = ctx.g, ctx.ginv, ctx.J, ctx.F
    n = ctx.struct.n
    # the one stencil of g and the stacked F serves Gamma^g, dF and nabla^g F
    grad_f = ctx._d_g_and_F[..., 1:, :, :]
    # Lee forms theta_a = (delta F_a) o J_a
    nabla_f = covariant_derivative_array(ctx.gamma_g, "dd", F, grad_f)
    theta = -j_apply_oneform(J, trace_codifferential(nabla_f, ginv, degree=2))
    dF = antisymmetrized_gradient(np.moveaxis(grad_f, -4, -3), degree=2)
    # the 3-form arrays of a stencil batch are the largest temporaries: drop each when done
    del nabla_f
    # twisted derivatives d_a F_a and their (1,2)+(2,1) parts
    dcF_plus = project_plus_3form(j_apply_form(J, dF), J)
    dF_plus = project_plus_3form(dF, J)
    del dF
    # cross Lee forms theta[a, b](X) = -1/2 sum_i dF_a^+(X, e_i, J_b e_i)
    theta_cross = -0.5 * frame_trace_pair(dF_plus[..., None, :, :, :], ginv, J[..., None, :, :, :])
    del dF_plus

    bundle = {
        "g": g, "J": J, "F": F,
        "theta": theta, "theta_cross": theta_cross, "dcF_plus": dcF_plus,
    }

    if n >= 2:
        K = (j_apply_oneform(J[..., CYC_B, :, :], theta)
             + theta_cross[..., CYC_A, CYC_C, :]) / (1.0 - n)
        bundle["K"] = K

        stack = K.ndim - 1
        JK = j_apply_oneform(J, K)
        F_b, F_c = F[..., CYC_B, :, :], F[..., CYC_C, :, :]
        K_Fb = wedge_arrays(K, F_b, stack=stack)
        versions = dcF_plus - 0.5 * (wedge_arrays(JK, F_c, stack=stack) + K_Fb)
        bundle["torsion"] = versions.sum(axis=-4) / 3.0
        slots = (-4, -3, -2, -1)
        bundle["alpha_agreement"] = np.max(np.abs(versions - versions[..., CYC_B, :, :, :]),
                                           axis=slots)
        del versions

        # the existence defect, accumulated in place over K ^ F_b
        rhs = K_Fb
        rhs -= wedge_arrays(JK[..., CYC_B, :], F, stack=stack)
        rhs -= wedge_arrays(K[..., CYC_B, :] - JK, F_c, stack=stack)
        rhs *= 0.5
        defect = dcF_plus - dcF_plus[..., CYC_B, :, :, :]
        defect -= rhs
        bundle["existence"] = np.max(np.abs(defect), axis=slots)

    return bundle


def _extract_sp1(J: np.ndarray, nabla_j: np.ndarray):
    """Solve nabla J_a = -omega_b (x) J_c + omega_c (x) J_b for the omegas.

    ``J`` and ``nabla_j[..., i, a, k, j]`` = (nabla_i J_a)[k, j] carry the
    same point axes.  Each omega is recovered from both equations containing
    it; the returned per-point residual tracks the worst least-squares
    defect and the worst disagreement between the two recoveries.
    """
    dim = J.shape[-1]
    points = J.shape[:-3]
    # per cyclic triple (a, b, c): design [-J_c, J_b] with one column per
    # direction on the right, solved through the stacked 2x2 normal equations
    # (general, since the columns are orthogonal only for a compatible triple)
    flat = J.reshape(points + (3, dim * dim))
    design = np.stack([-flat[..., CYC_C, :], flat[..., CYC_B, :]], axis=-1)
    rhs = np.moveaxis(nabla_j.reshape(points + (dim, 3, dim * dim)), -3, -1)  # [..., a, kj, i]
    design_t = np.swapaxes(design, -1, -2)
    coeffs = np.linalg.solve(design_t @ design, design_t @ rhs)  # [..., a, 2, i]
    defect = design @ coeffs
    defect -= rhs
    residual = np.max(np.abs(defect, out=defect), axis=(-3, -2, -1))
    # omega_k comes from the triple with b = k and the triple with c = k
    from_b, from_c = coeffs[..., CYC_C, 0, :], coeffs[..., CYC_B, 1, :]
    omegas = (from_b + from_c) / 2.0
    residual = np.maximum(residual, np.max(np.abs(from_b - from_c), axis=(-2, -1)))
    return omegas, residual


# ---------------------------------------------------------------------------
# the structure object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QKTStructure:
    """A built torsion connection: its data, scheme and kind, and the rule
    that computes the torsion from a context.  Every quantity is evaluated
    through :meth:`at`; nothing is cached on the structure."""

    data: QuaternionicHermitianData
    scheme: FDScheme
    kind: str
    torsion_rule: Callable[[QKTContext], np.ndarray]
    nested_torsion: bool = True     # T is differenced at h2, else at h

    # perfbench/layertrace.py's Tracer.cache_sizes() reads per-structure
    # caches here; a structure keeps none, so the mapping stays empty
    caches = types.MappingProxyType({})

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.data.dim

    @property
    def patch(self) -> CoordinatePatch:
        return self.data.patch

    @property
    def constant(self) -> bool:
        """Constant metric and triple, and the torsion built from them (and a
        constant 1-form in dimension 4) alone: every layer is the same at
        every point."""
        rule = self.torsion_rule
        return (isinstance(self.patch.metric, ConstantMetric)
                and isinstance(self.data.hyper, ConstantHypercomplexField)
                and (rule is _bundle_torsion
                     or (isinstance(rule, functools.partial) and rule.func is _dual_torsion
                         and isinstance(rule.args[0], ConstantForm))))

    def at(self, x: np.ndarray, scheme: FDScheme | None = None) -> QKTContext:
        """The lazy evaluation context of this structure on the point array ``x``."""
        return QKTContext(self, x, scheme or self.scheme)

    @property
    def torsion(self) -> FormField:
        return FormField(3, lambda q: self.at(q).T, nested=self.nested_torsion)

    @property
    def connection(self) -> ConnectionField:
        return ConnectionField(lambda q: self.at(q).Gamma, nested=True)

    def bundle_at(self, p: np.ndarray):
        """The first-order bundle at the points ``p``."""
        return self.at(p).bundle


def _bundle_torsion(ctx: QKTContext) -> np.ndarray:
    return ctx.bundle["torsion"]


def _dual_torsion(t_form: FormField, ctx: QKTContext) -> np.ndarray:
    """The dimension-4 torsion: the Hodge dual of the 1-form ``t_form``."""
    return hodge_star_array(t_form(ctx.x), ctx.g, ctx.struct.patch.orientation)


def existence_residual(data: QuaternionicHermitianData,
                       p: np.ndarray,
                       scheme: FDScheme) -> float:
    """Worst defect of the pairwise compatibility condition at the points ``p``."""
    if data.n < 2:
        raise DimensionError("the existence condition applies to n >= 2 only")
    data.patch.require_interior(p, scheme.margin)
    return worst(QKTStructure(data, scheme, "generic", _bundle_torsion).at(p).bundle["existence"])


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _check_algebra(ctx: QKTContext) -> dict:
    """Validate the metric at the context's points; the quaternionic residuals there."""
    validate_metric(ctx.g, ctx.x)
    return quaternionic_residuals(ctx.g, ctx.J)


def build_qkt(data: QuaternionicHermitianData,
              scheme: FDScheme,
              existence_tol: float = DEFAULT_EXISTENCE_TOL,
              check_points: Sequence[np.ndarray] | None = None) -> QKTStructure:
    """Build the unique torsion connection on a 4n-dimensional patch, n >= 2."""
    if data.n < 2:
        raise DimensionError("build_qkt needs n >= 2; use build_qkt_dim4 for n = 1")
    if check_points is None:
        check_points = [data.patch.center()]
    for p in check_points:
        data.patch.require_interior(p, scheme.margin)

    struct = QKTStructure(data, scheme, "generic", _bundle_torsion)
    # all check points in one context
    ctx = struct.at(np.array(check_points, dtype=float))
    residuals = _check_algebra(ctx)
    worst_alg = worst(residuals["algebra"], residuals["square"], residuals["hermitian"])
    worst_exist = worst(ctx.bundle["existence"])
    if not (worst_alg <= ALGEBRA_TOL and worst_exist <= existence_tol):
        err = NotQKTError(
            f"no compatible torsion connection: existence residual "
            f"{worst_exist:.3e} (tolerance {existence_tol:.1e}), quaternionic "
            f"algebra residual {worst_alg:.3e}",
            residual=worst(worst_exist, worst_alg),
        )
        err.details = {"eq4": worst_exist, "algebra": worst_alg}
        raise err
    return struct


def build_qkt_dim4(patch: CoordinatePatch,
                   hyper: HypercomplexField,
                   t_form: FormField,
                   scheme: FDScheme) -> QKTStructure:
    """Build the dimension-4 structure with torsion the Hodge dual of ``t_form``."""
    if patch.n != 1:
        raise DimensionError("build_qkt_dim4 needs n = 1")
    struct = QKTStructure(QuaternionicHermitianData(patch, hyper), scheme, "dim4",
                          functools.partial(_dual_torsion, t_form), nested_torsion=t_form.nested)
    residuals = _check_algebra(struct.at(patch.center()))
    if not worst(residuals["algebra"], residuals["square"], residuals["hermitian"]) <= ALGEBRA_TOL:
        err = NotQKTError(
            f"hypercomplex triple incompatible with the metric: "
            f"algebra residual {residuals['algebra']:.3e}",
            residual=residuals["algebra"],
        )
        err.details = {"algebra": residuals["algebra"]}
        raise err
    return struct


# ---------------------------------------------------------------------------
# derived quantities, each read off a single-point context
# ---------------------------------------------------------------------------

def torsion_one_forms(struct: QKTStructure, p: np.ndarray):
    """(t_1, t_2, t_3, t): the torsion traces and their common J-image."""
    ctx = struct.at(p)
    t_alpha = ctx.t_alpha
    return t_alpha[..., 0, :], t_alpha[..., 1, :], t_alpha[..., 2, :], ctx.t


def torsion_one_form_spread(ctx: QKTContext) -> float:
    """max_{a,b} |J_a t_a - J_b t_b| -- zero when the torsion is pure."""
    images = ctx.t_images
    return float(np.max(np.abs(images - images[CYC_B])))


def c7_residual(ctx: QKTContext) -> float | None:
    """Defect of the closed formula for the sp(1) forms; None for n = 1."""
    n = ctx.struct.n
    if n < 2:
        return None
    bundle = ctx.bundle
    theta, cross, J = bundle["theta"], bundle["theta_cross"], bundle["J"]
    closed_form = 0.5 * j_apply_oneform(
        J[CYC_B], theta[CYC_C] - theta[CYC_B] + theta / (1.0 - n)
    ) + cross[CYC_A, CYC_C] / (2.0 * (1.0 - n))
    return float(np.max(np.abs(closed_form - ctx.omega[CYC_B])))


def nijenhuis_via_connection(ctx: QKTContext, alpha: int) -> np.ndarray:
    """Nijenhuis tensor rebuilt from the Lee-form difference 1-forms."""
    a, b, c = CYCLIC[alpha]
    J = ctx.J
    A = ctx.lee_differences[a]
    JA = j_apply_oneform(J[a], A)
    Jb, Jc = J[b], J[c]
    return (
        np.einsum("j,ki->kij", A, Jb)
        - np.einsum("i,kj->kij", A, Jb)
        - np.einsum("j,ki->kij", JA, Jc)
        + np.einsum("i,kj->kij", JA, Jc)
    )


def structure_invariant_residuals(ctx: QKTContext) -> dict:
    """Defining invariants of the built structure at one point."""
    T = ctx.T
    skew = worst(np.max(np.abs(T + np.swapaxes(T, 0, 1))),
                 np.max(np.abs(T + np.swapaxes(T, 1, 2))))
    metricity = float(np.max(np.abs(covariant_derivative_array(ctx.Gamma, "dd", ctx.g, ctx.dg))))
    purity = float(np.max(np.abs(torsion_02_part(ctx.T12[None], ctx.J))))
    quat = quaternionic_residuals(ctx.g, ctx.J)
    return {
        "torsion_skew": skew,
        "metricity": metricity,
        "torsion_purity": purity,
        "eq1": ctx.eq1,
        "quaternionic": worst(quat["square"], quat["algebra"]),
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
    parallel_torsion_residual: float
    is_strong: bool
    strong_residual: float
    dT_type22_residual: float

    @classmethod
    def of(cls, residuals: dict, first_order_tol: float = 1e-5,
           curvature_tol: float = 1e-4) -> "Classification":
        """The flags from the worst :func:`classification_residuals` over sample points."""
        hkt = residuals.get("hkt")
        integ, parallel, strong = (residuals.get(key, 0.0)
                                   for key in ("integrable", "parallel", "strong"))
        return cls(
            is_hkt=(hkt <= first_order_tol) if hkt is not None else None,
            hkt_residual=hkt,
            is_integrable=integ <= first_order_tol,
            integrable_residual=integ,
            is_parallel_torsion=parallel <= curvature_tol,
            parallel_torsion_residual=parallel,
            is_strong=strong <= curvature_tol,
            strong_residual=strong,
            dT_type22_residual=residuals.get("dT_type22", 0.0),
        )


def classification_residuals(ctx: QKTContext) -> dict:
    """The residuals behind the structure flags at one point."""
    bundle = ctx.bundle
    theta = bundle["theta"]
    out = {
        "integrable": np.max(np.abs(theta - theta[CYC_B])),
        "parallel": np.max(np.abs(ctx.nabla_T)),
        "strong": np.max(np.abs(ctx.dT)),
        "dT_type22": dT_type22_residual(ctx.dT, ctx.J),
    }
    if ctx.struct.n >= 2:
        # theta_a - J_b theta_{c,a} over the cyclic triples
        J, cross = bundle["J"], bundle["theta_cross"]
        out["hkt"] = np.max(np.abs(theta - j_apply_oneform(J[CYC_B], cross[CYC_C, CYC_A])))
    return out


def classify(struct: QKTStructure,
             points: Sequence[np.ndarray],
             scheme: FDScheme | None = None,
             first_order_tol: float = 1e-5,
             curvature_tol: float = 1e-4) -> Classification:
    """Structure flags with their witnessing residuals over sample points."""
    residuals = {"hkt": 0.0} if struct.n >= 2 else {}
    for p in points:
        fold(residuals, classification_residuals(struct.at(p, scheme)))
    return Classification.of(residuals, first_order_tol, curvature_tol)
