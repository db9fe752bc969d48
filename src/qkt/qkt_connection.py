"""Construction of the metric quaternionic connection with skew torsion.

For n >= 2 the connection is assembled pointwise from the compatibility
data of the three Kaehler forms: the candidate torsion is

    T = (d_a F_a)^+ - (J_a K_a ^ F_c + K_a ^ F_b) / 2,

with K_a = (J_b theta_a + theta_{a,c}) / (1 - n), and the construction is
accepted only if the three alpha-versions agree; expanded, their
disagreement is the existence condition relating the (1,2)+(2,1) parts
of the twisted derivatives.  In dimension 4 the torsion is instead the
Hodge dual of a freely chosen 1-form, the structure's ``t_form``.  Either
way the connection is nabla^g + T/2 and the sp(1) connection 1-forms are
recovered by solving nabla J_a = -omega_b (x) J_c + omega_c (x) J_b
pointwise.

A :class:`QKTStructure` is the one record of a structure: the patch with
its metric, the triple, the scheme, the torsion rule and, in dimension 4,
the 1-form.  Every quantity of a built structure is a layer of a :class:`QKTContext`,
the lazy evaluation context that ``QKTStructure.at(x)`` returns for one
point array ``x``.  Sample points are evaluated in chunks
(:func:`point_chunks`), one context per chunk.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .curvature import CurvatureValue, curvature_tensor, ricci_forms, ricci_tensor
from .errors import DimensionError, InputError, NotQKTError
from .quaternionic import (
    CYC_A,
    CYC_B,
    CYC_C,
    ConstantHypercomplexField,
    HypercomplexField,
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

EXISTENCE_TOL = 1e-4
ALGEBRA_TOL = 1e-8
# the classification flags: first-order residuals (hkt, integrable) and the
# residuals of the derivatives of the torsion (parallel, strong)
FIRST_ORDER_TOL = 1e-5
CURVATURE_TOL = 1e-4

# Sample points are evaluated in chunks, one context per chunk.  A context's
# largest arrays are rank-4 tensors on the nested stencils of its points,
# (2d)^2 d^4 elements per sample point.  A chunk takes as many points as keep
# those elements within CHUNK_ELEMENTS, and at least one: ten points at d = 4,
# one point at d >= 8.  On a 20-point hopf_local run a chunk of ten raised the
# peak memory by 0.4 MB over one point per context, a chunk of twenty by 2.2 MB.
CHUNK_ELEMENTS = 10 * (2 * 4) ** 2 * 4 ** 4


def chunk_length(dim: int) -> int:
    """Sample points per context in dimension ``dim``."""
    return max(1, CHUNK_ELEMENTS // ((2 * dim) ** 2 * dim ** 4))


def point_chunks(points) -> Iterator[np.ndarray]:
    """The rows of the (P, d) point array ``points`` in consecutive (c, d) chunks
    of at most :func:`chunk_length` points."""
    points = np.asarray(points, dtype=float)
    step = chunk_length(points.shape[-1])
    for start in range(0, len(points), step):
        yield points[start:start + step]


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
    and for any other metric f = 1 and g_0 = g.  The first-order data of
    the torsion formula are separate layers: theta, theta_cross and
    dcF_plus (the last two from one dF), K, and the one eq4/eq5 defect
    ``existence``, so a stencil sub-context that reads T never computes the
    defect.  A derivative differences a layer of one of two stencil
    sub-contexts, each built at most once, at the structure's scheme
    (:meth:`derivative` picks the step).  Every layer takes
    leading point axes, and so does every identity record: the suite opens
    one context per chunk of sample points, and a record returns one
    residual per point (:meth:`residual`).
    """

    def __init__(self, struct: QKTStructure, x: np.ndarray):
        x = np.asarray(x, dtype=float).view()
        x.flags.writeable = False
        vars(self).update(struct=struct, x=x)

    def __setattr__(self, name, value):
        raise AttributeError(f"context layer {name!r} is read-only")

    @functools.cached_property
    def _stencil_h(self) -> "QKTContext":
        return QKTContext(self.struct, stencil(self.x, self.struct.scheme.h))

    @functools.cached_property
    def _stencil_h2(self) -> "QKTContext":
        return QKTContext(self.struct, stencil(self.x, self.struct.scheme.h2))

    @functools.cached_property
    def base(self) -> "QKTContext":
        """The context of the structure on the base metric g_0 (``struct.base``)
        at the same points: the one that the rescaled torsion rule and the
        conformal laws both read."""
        return self.struct.base.at(self.x)

    def residual(self, *arrays) -> np.ndarray:
        """Per point of x, the largest |entry| of ``arrays`` beyond the point axes; NaN wins."""
        points = self.x.shape[:-1]
        return functools.reduce(np.maximum, (
            np.max(np.abs(arr).reshape(points + (-1,)), axis=-1) for arr in arrays))

    def derivative(self, layer: str) -> np.ndarray:
        """The gradient of ``layer`` at x.

        The step is h for the layers evaluated without finite differences
        (``_g_and_F``, ``f``, and ``T`` when it is the dual of an analytic
        ``t_form``: :attr:`QKTStructure.nested_torsion`) and h2 for every
        other layer.  One :func:`gradient` call; its field returns the layer
        of the stencil sub-context, which sits on the very stencil array
        ``gradient`` builds.  On a constant structure every layer is the same
        at every point, so the gradient is exact zeros, without a stencil.
        """
        if self.struct.constant:
            shape, points = np.shape(getattr(self, layer)), self.x.ndim - 1
            return np.zeros(shape[:points] + self.x.shape[-1:] + shape[points:])
        nested = layer not in ("_g_and_F", "f") and (layer != "T" or self.struct.nested_torsion)
        sub = self._stencil_h2 if nested else self._stencil_h
        return gradient(lambda _: getattr(sub, layer), self.x, self.struct.scheme, nested)

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
        return self.struct.patch.metric_at(self.x)

    @_layer
    def g(self):
        """The metric f g_0."""
        return ConformalMetric.scale(self.f, self.g0)

    @_layer
    def ginv(self):
        return np.linalg.inv(self.g)

    @_layer
    def vol(self):
        """sqrt(det g), the volume-form factor of the Hodge star."""
        return np.sqrt(np.linalg.det(self.g))

    @_layer
    def J(self):
        """J[..., alpha, k, j]."""
        return self.struct.hyper.matrices(self.x)

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
        return self.derivative("_g_and_F")

    @property
    def dg(self):
        """dg[..., a, i, j] = d_a g_ij."""
        return self._d_g_and_F[..., 0, :, :]

    @_layer
    def dJ(self):
        """dJ[..., i, alpha] = d_i J_alpha."""
        return self.struct.hyper.gradient(self.x, self.struct.scheme)

    @_layer
    def df(self):
        """df[..., a] = d_a f, from the same stencil as g."""
        return self.derivative("f")

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
    def theta(self):
        """The Lee forms theta[..., a] = (delta F_a) o J_a."""
        # the one stencil of g and the stacked F serves Gamma^g, dF and nabla^g F
        nabla_f = covariant_derivative_array(self.gamma_g, "dd", self.F,
                                             self._d_g_and_F[..., 1:, :, :])
        return -j_apply_oneform(self.J, trace_codifferential(nabla_f, self.ginv, degree=2))

    @_layer
    def _dF_plus_parts(self):
        """(theta_cross, dcF_plus) from one dF."""
        J = self.J
        dF = antisymmetrized_gradient(np.moveaxis(self._d_g_and_F[..., 1:, :, :], -4, -3),
                                      degree=2)
        # the 3-form arrays of a stencil batch are the largest temporaries: drop each when done
        dcF_plus = project_plus_3form(j_apply_form(J, dF), J)
        dF_plus = project_plus_3form(dF, J)
        del dF
        theta_cross = -0.5 * frame_trace_pair(dF_plus[..., None, :, :, :], self.ginv,
                                              J[..., None, :, :, :])
        return theta_cross, dcF_plus

    @property
    def theta_cross(self):
        """The cross Lee forms theta_cross[..., a, b](X) = -1/2 sum_i dF_a^+(X, e_i, J_b e_i)."""
        return self._dF_plus_parts[0]

    @property
    def dcF_plus(self):
        """The (1,2)+(2,1) parts of the twisted derivatives d_a F_a."""
        return self._dF_plus_parts[1]

    @_layer
    def K(self):
        """The compatibility 1-forms K[..., a] = (J_b theta_a + theta_{a,c}) / (1 - n);
        None for n = 1."""
        n = self.struct.n
        if n < 2:
            return None
        return (j_apply_oneform(self.J[..., CYC_B, :, :], self.theta)
                + self.theta_cross[..., CYC_A, CYC_C, :]) / (1.0 - n)

    @_layer
    def existence(self):
        """Per point, the worst disagreement V_a - V_b of the three
        alpha-versions of the torsion; None for n = 1.

        It is the eq5 agreement and, expanded term by term, the defect of the
        existence condition (eq4) relating the d_a F_a^+: the connection
        exists exactly when the versions agree.
        """
        if self.struct.n < 2:
            return None
        versions = _alpha_versions(self)
        return np.max(np.abs(versions - versions[..., CYC_B, :, :, :]), axis=(-4, -3, -2, -1))

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
        return self.gamma_g + 0.5 * self.T12

    @_layer
    def nabla_J(self):
        """nabla_J[..., alpha, i, k, j] = (nabla_i J_alpha)[k, j] under the torsion connection."""
        return covariant_derivative_array(self.Gamma, "ud", self.J, self.dJ)

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
        return self.theta - j_apply_oneform(self.J[..., CYC_B, :, :],
                                            self.theta_cross[..., CYC_A, CYC_C, :])

    @_layer
    def lee_differences(self):
        """A_a = J_b (theta_c - theta_b), the difference 1-forms of the Lee forms."""
        J, theta = self.J, self.theta
        return j_apply_oneform(J[..., CYC_B, :, :], theta[..., CYC_C, :] - theta[..., CYC_B, :])

    # -- derivatives of the torsion and its 1-form ----------------------------

    @_layer
    def _grad_T(self):
        return self.derivative("T")

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
        return self.derivative("t")

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
        return trace_codifferential(self.nabla_g_t, self.ginv)

    # -- curvature --------------------------------------------------------

    @_layer
    def curv(self) -> CurvatureValue:
        return curvature_tensor(self.Gamma, self.derivative("Gamma"), self.g)

    @_layer
    def curv_g(self) -> CurvatureValue:
        return curvature_tensor(self.gamma_g, self.derivative("gamma_g"), self.g)

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
    def t_square(self):
        """|t|^2 g - t (x) t, with |t|^2 = g^{-1}(t, t)."""
        t = self.t
        norm2 = (t[..., None, :] @ self.ginv @ t[..., :, None])[..., 0, 0]
        return norm2[..., None, None] * self.g - t[..., :, None] * t[..., None, :]

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
# pointwise first-order quantities
# ---------------------------------------------------------------------------

def _alpha_versions(ctx: QKTContext) -> np.ndarray:
    """The three alpha-versions d_a F_a^+ - (J_a K_a ^ F_c + K_a ^ F_b) / 2 of
    the torsion, stacked after the point axes; n >= 2."""
    K, F = ctx.K, ctx.F
    stack = K.ndim - 1
    return ctx.dcF_plus - 0.5 * (
        wedge_arrays(j_apply_oneform(ctx.J, K), F[..., CYC_C, :, :], stack=stack)
        + wedge_arrays(K, F[..., CYC_B, :, :], stack=stack))


def _extract_sp1(J: np.ndarray, nabla_j: np.ndarray):
    """Solve nabla J_a = -omega_b (x) J_c + omega_c (x) J_b for the omegas.

    ``J`` and ``nabla_j[..., a, i, k, j]`` = (nabla_i J_a)[k, j] carry the
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
    rhs = np.swapaxes(nabla_j.reshape(points + (3, dim, dim * dim)), -2, -1)  # [..., a, kj, i]
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
    """A torsion connection, in one record: the metric on its patch, the
    quaternionic triple, the scheme, the rule that computes the torsion from
    a context and, in dimension 4, the 1-form ``t_form``.  Every quantity is
    evaluated through :meth:`at`; nothing is cached on the structure.  A
    step of the scheme that does not move the patch box's largest coordinate
    is an :class:`InputError`."""

    patch: CoordinatePatch
    hyper: HypercomplexField
    scheme: FDScheme
    torsion_rule: Callable[[QKTContext], np.ndarray]
    # dimension 4: the freely chosen 1-form whose Hodge dual is the torsion
    t_form: FormField | None = None
    # the structure on the base metric g_0 of a conformal metric f g_0, on the
    # same triple: what the conformal laws compare against, and what a
    # rescaled structure's torsion rule transports
    base: QKTStructure | None = None

    # perfbench/layertrace.py's Tracer.cache_sizes() reads per-structure
    # caches here; a structure keeps none, so the mapping stays empty
    caches = types.MappingProxyType({})

    def __post_init__(self):
        # a step that leaves the largest coordinate unmoved makes every
        # difference exactly 0, and every row would pass
        top = float(np.max(np.abs([self.patch.lo, self.patch.hi])))
        for step in (self.scheme.h, self.scheme.h2):
            if top + step == top or top - step == top:
                raise InputError(f"finite-difference step {step!r} does not move the "
                                 f"largest |coordinate| {top!r} of the patch box")

    @property
    def n(self) -> int:
        return self.patch.n

    @property
    def nested_torsion(self) -> bool:
        """T is differenced at h2, unless it is the dual of a 1-form evaluated
        without finite differences: then at h."""
        return self.t_form is None or self.t_form.nested

    @property
    def constant(self) -> bool:
        """Constant metric and triple, and the torsion built from them (and a
        constant 1-form in dimension 4) alone: every layer is the same at
        every point."""
        return (isinstance(self.patch.metric, ConstantMetric)
                and isinstance(self.hyper, ConstantHypercomplexField)
                and (self.torsion_rule is _bundle_torsion
                     or (self.torsion_rule is _dual_torsion
                         and isinstance(self.t_form, ConstantForm))))

    def at(self, x: np.ndarray) -> QKTContext:
        """The lazy evaluation context of this structure on the point array ``x``."""
        return QKTContext(self, x)

    # an alias of at() that only perfbench/layertrace.py names; ROADMAP item 1
    # deletes it together with the tracer's wrappers
    def bundle_at(self, p: np.ndarray) -> QKTContext:
        return self.at(p)


def _bundle_torsion(ctx: QKTContext) -> np.ndarray:
    """The torsion for n >= 2: the mean of the three alpha-versions."""
    return _alpha_versions(ctx).sum(axis=-4) / 3.0


def _dual_torsion(ctx: QKTContext) -> np.ndarray:
    """The dimension-4 torsion: the Hodge dual of the structure's 1-form ``t_form``."""
    return hodge_star_array(ctx.struct.t_form(ctx.x), ctx.ginv, ctx.vol)


def existence_residual(patch: CoordinatePatch,
                       hyper: HypercomplexField,
                       p: np.ndarray,
                       scheme: FDScheme) -> float:
    """Worst defect of the pairwise compatibility condition at the points ``p``."""
    if patch.n < 2:
        raise DimensionError("the existence condition applies to n >= 2 only")
    patch.require_interior(p, scheme.margin)
    struct = QKTStructure(patch, hyper, scheme, _bundle_torsion)
    points = np.reshape(p, (-1, patch.dim))
    return worst(*(struct.at(chunk).existence for chunk in point_chunks(points)))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _check_algebra(ctx: QKTContext) -> float:
    """Validate the metric at the context's points; the worst quaternionic
    residual there."""
    validate_metric(ctx.g, ctx.x)
    residuals = quaternionic_residuals(ctx.g, ctx.J)
    return worst(residuals["algebra"], residuals["square"], residuals["hermitian"])


def build_qkt(patch: CoordinatePatch,
              hyper: HypercomplexField,
              scheme: FDScheme,
              check_points: Sequence[np.ndarray] | None = None) -> QKTStructure:
    """Build the unique torsion connection on a 4n-dimensional patch, n >= 2."""
    if patch.n < 2:
        raise DimensionError("build_qkt needs n >= 2; use build_qkt_dim4 for n = 1")
    if check_points is None:
        check_points = [patch.center()]
    for p in check_points:
        patch.require_interior(p, scheme.margin)

    struct = QKTStructure(patch, hyper, scheme, _bundle_torsion)
    # all check points in one context
    ctx = struct.at(np.array(check_points, dtype=float))
    worst_alg = _check_algebra(ctx)
    worst_exist = worst(ctx.existence)
    if not (worst_alg <= ALGEBRA_TOL and worst_exist <= EXISTENCE_TOL):
        raise NotQKTError(
            f"no compatible torsion connection: existence residual "
            f"{worst_exist:.3e} (tolerance {EXISTENCE_TOL:.1e}), quaternionic "
            f"algebra residual {worst_alg:.3e}",
            residual=worst(worst_exist, worst_alg),
            details={"eq4": worst_exist, "algebra": worst_alg},
        )
    return struct


def build_qkt_dim4(patch: CoordinatePatch,
                   hyper: HypercomplexField,
                   t_form: FormField,
                   scheme: FDScheme) -> QKTStructure:
    """Build the dimension-4 structure with torsion the Hodge dual of ``t_form``."""
    if patch.n != 1:
        raise DimensionError("build_qkt_dim4 needs n = 1")
    struct = QKTStructure(patch, hyper, scheme, _dual_torsion, t_form=t_form)
    worst_alg = _check_algebra(struct.at(patch.center()))
    if not worst_alg <= ALGEBRA_TOL:
        raise NotQKTError(
            f"hypercomplex triple incompatible with the metric: "
            f"quaternionic algebra residual {worst_alg:.3e}",
            residual=worst_alg,
            details={"algebra": worst_alg},
        )
    return struct


# ---------------------------------------------------------------------------
# derived quantities: identity records, one residual per point of a context
# ---------------------------------------------------------------------------

def torsion_one_forms(struct: QKTStructure, p: np.ndarray):
    """(t_1, t_2, t_3, t): the torsion traces and their common J-image."""
    ctx = struct.at(p)
    t_alpha = ctx.t_alpha
    return t_alpha[..., 0, :], t_alpha[..., 1, :], t_alpha[..., 2, :], ctx.t


def torsion_one_form_spread(ctx: QKTContext) -> np.ndarray:
    """max_{a,b} |J_a t_a - J_b t_b| -- zero when the torsion is pure."""
    images = ctx.t_images
    return ctx.residual(images - images[..., CYC_B, :])


def c7_residual(ctx: QKTContext) -> np.ndarray | None:
    """Defect of the closed formula for the sp(1) forms; None for n = 1."""
    if ctx.struct.n < 2:
        return None
    # omega_b = (A_a + K_a) / 2
    return ctx.residual(0.5 * (ctx.lee_differences + ctx.K) - ctx.omega[..., CYC_B, :])


def nijenhuis_via_connection(ctx: QKTContext) -> np.ndarray:
    """The three Nijenhuis tensors N[..., a, k, i, j], rebuilt from the Lee-form
    difference 1-forms."""
    J = ctx.J
    A = ctx.lee_differences
    JA = j_apply_oneform(J, A)
    Jb, Jc = J[..., CYC_B, :, :], J[..., CYC_C, :, :]
    return (
        np.einsum("...j,...ki->...kij", A, Jb)
        - np.einsum("...i,...kj->...kij", A, Jb)
        - np.einsum("...j,...ki->...kij", JA, Jc)
        + np.einsum("...i,...kj->...kij", JA, Jc)
    )


def structure_invariant_residuals(ctx: QKTContext) -> dict:
    """Defining invariants of the built structure, per point."""
    T = ctx.T
    quat = quaternionic_residuals(ctx.g, ctx.J)
    return {
        "torsion_skew": ctx.residual(T + np.swapaxes(T, -3, -2), T + np.swapaxes(T, -2, -1)),
        "metricity": ctx.residual(covariant_derivative_array(ctx.Gamma, "dd", ctx.g, ctx.dg)),
        "torsion_purity": ctx.residual(torsion_02_part(ctx.T12[..., None, :, :, :], ctx.J)),
        "eq1": ctx.eq1,
        "quaternionic": np.maximum(quat["square"], quat["algebra"]),
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
    def of(cls, residuals: dict) -> "Classification":
        """The flags from the worst :func:`classification_residuals` over sample points."""
        hkt = residuals.get("hkt")
        integ, parallel, strong = (residuals.get(key, 0.0)
                                   for key in ("integrable", "parallel", "strong"))
        return cls(
            is_hkt=(hkt <= FIRST_ORDER_TOL) if hkt is not None else None,
            hkt_residual=hkt,
            is_integrable=integ <= FIRST_ORDER_TOL,
            integrable_residual=integ,
            is_parallel_torsion=parallel <= CURVATURE_TOL,
            parallel_torsion_residual=parallel,
            is_strong=strong <= CURVATURE_TOL,
            strong_residual=strong,
            dT_type22_residual=residuals.get("dT_type22", 0.0),
        )


def classification_residuals(ctx: QKTContext) -> dict:
    """The residuals behind the structure flags, per point."""
    theta = ctx.theta
    out = {
        "integrable": ctx.residual(theta - theta[..., CYC_B, :]),
        "parallel": ctx.residual(ctx.nabla_T),
        "strong": ctx.residual(ctx.dT),
        "dT_type22": dT_type22_residual(ctx.dT, ctx.J),
    }
    if ctx.struct.n >= 2:
        # theta_a - J_b theta_{c,a} over the cyclic triples
        cross_ca = ctx.theta_cross[..., CYC_C, CYC_A, :]
        out["hkt"] = ctx.residual(theta - j_apply_oneform(ctx.J[..., CYC_B, :, :], cross_ca))
    return out


def classify(struct: QKTStructure, points: Sequence[np.ndarray]) -> Classification:
    """Structure flags with their witnessing residuals over sample points,
    one context per chunk of points."""
    residuals = {"hkt": 0.0} if struct.n >= 2 else {}
    for chunk in point_chunks(points):
        fold(residuals, classification_residuals(struct.at(chunk)))
    return Classification.of(residuals)
