"""Construction of the metric quaternionic connection with skew torsion.

For n >= 2 the connection is assembled pointwise from the compatibility
data of the three Kaehler forms: the candidate torsion is

    T = (d_a F_a)^+ - (J_a K_a ^ F_c + K_a ^ F_b) / 2,

with K_a = (J_b theta_a + theta_{a,c}) / (1 - n), and the construction is
accepted only if the three alpha-versions agree; expanded, their
disagreement is the existence condition relating the (1,2)+(2,1) parts
of the twisted derivatives, so the torsion is fixed by (g, Q).  In
dimension 4 it is the Hodge dual of a freely chosen 1-form, the
structure's ``t_form``, or a ``base`` structure's torsion transported to
f g.  Either way the connection is nabla^g + T/2 and the sp(1) connection
1-forms are recovered by solving nabla J_a = -omega_b (x) J_c + omega_c
(x) J_b pointwise, from normal equations contracted before nabla J_a is
expanded; the Lee forms are likewise traced from dF_a, without nabla^g F_a.
The 3-forms of the first-order layer, d_a F_a^+ and the three
alpha-versions, are packed over the sorted triples by one kernel
(``tensor_core.shuffle_sum_packed``) and projected and twisted by the
triple's packed maps (``quaternionic.packed_maps``); the torsion is the
versions' mean, unpacked once.

A :class:`QKTStructure` is the one record of a structure: the patch with
its metric, the triple, the scheme and, in dimension 4, the 1-form or the
conformal base that fix the torsion.  Every quantity of a built structure
is a layer of a :class:`QKTContext`, the lazy evaluation context that
``QKTStructure.at(x)`` returns for one point array ``x``.  Sample points
are evaluated in chunks (:func:`point_chunks`), one context per chunk, and
each context differences its step-h2 layers in one pass over stencil
slices of its points (:func:`slice_length`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

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
    j_apply_oneform,
    packed_maps,
    quaternionic_residuals,
    skew_bracket,
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
    lambda3,
    raise_last,
    require_nondegenerate,
    shuffle_sum_packed,
    stencil,
    trace_codifferential,
    unpack_3form,
    validate_metric,
    wedge_arrays,
    worst,
)

EXISTENCE_TOL = 1e-4
ALGEBRA_TOL = 1e-8
CHECK_POINTS = 3   # the first sample points of a run that the build check reads
# the classification flags: first-order residuals (hkt, integrable) and the
# residuals of the derivatives of the torsion (parallel, strong)
FIRST_ORDER_TOL = 1e-5
CURVATURE_TOL = 1e-4

# One budget of CHUNK_ELEMENTS float64 elements caps what a context holds at
# once, counted per sample point (measured on the benchmark's conformal_flat
# n = 2 and hopf_local runs, Python 3.11, numpy 2.4):
#   * a sample context keeps about 16 d^4 elements per point: its rank-4 layers
#     (R and R^g with their lowerings, nabla T, nabla^g T, dT, g(T, T)) and the
#     kept step-h2 gradients (of T, Gamma, Gamma^g and, in dimension 4,
#     Gamma^W); 13-15 d^4 at d = 8 and 20 d^4 at d = 4, where the rank-3 layers
#     weigh more.  So a context takes 40 points at d = 4 and 2 at d = 8;
#   * a stencil slice of its step-h2 pass is budgeted at 64 d^4 elements per
#     point: a stencil context on 2d points, each with the transient dF (3 d^3),
#     Gamma, T and its other rank-3 layers; d_aF_a^+ and the alpha-versions are
#     packed, and there is no nabla F_a and no nabla J_a.  A slice's traced peak
#     is 19 d^4 per point at d = 8 and 27 d^4 at d = 4; the budget is a bound
#     with more than twice that room, and it sets the slice lengths below.
# The pass runs before the context's rank-4 layers exist, beside its
# first-order layers and the gradients it keeps, about 8 d^4 per point, so
# its slices take what those leave: 7 points beside a 20-point context at
# d = 4, and 1 point (at least one) at d = 8.
CHUNK_ELEMENTS = 10 * 64 * 4 ** 4


def chunk_length(dim: int) -> int:
    """Sample points per context in dimension ``dim``."""
    return max(1, CHUNK_ELEMENTS // (16 * dim ** 4))


def slice_length(dim: int, points: int) -> int:
    """Sample points per stencil slice of the step-h2 pass of a context on
    ``points`` sample points in dimension ``dim``."""
    return max(1, (CHUNK_ELEMENTS - points * 8 * dim ** 4) // (64 * dim ** 4))


def point_chunks(points) -> Iterator[np.ndarray]:
    """The rows of the (P, d) point array ``points`` in consecutive (c, d) chunks
    of at most :func:`chunk_length` points, one (d,) point as one row; no points
    is an :class:`InputError`, not a residual of 0.0."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise InputError(f"no sample points (shape {points.shape})")
    points = np.atleast_2d(points)
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


# The layers a context may difference at step h2, on stencils of its points
# (Gamma^W is read in dimension 4 only); :attr:`QKTStructure.nested_layers`
# drops those differenced at h, constant ones and a constant triple's omega.
NESTED_LAYERS = ("T", "t", "Gamma", "gamma_g", "omega", "lchkt_candidates", "gamma_w")


class QKTContext:
    """The layers of one structure on one point array ``x`` (..., d).

    Each layer has one definition below, is computed on first read and is
    kept, read-only, for the life of the context.  A quantity that more than
    one identity record reads (in ``qkt.qkt_connection``, ``qkt.conformal``,
    ``qkt.curvature`` or ``qkt.suite``) is a layer here, never a second
    formula in a record.  The metric is g = f g_0: for a
    :class:`ConformalMetric` the factor f is evaluated once per point array,
    and for any other metric f = 1 and g_0 = g.  Every derivative is a
    :meth:`derivative`.  The first-order data of the torsion formula are
    separate layers: theta, theta_cross and dcF_plus (one layer, from one dF
    that it drops), K, the alpha-versions that T averages and the one eq4/eq5
    defect ``existence`` that compares them, so a stencil context that reads
    T never computes the defect.

    The step-h2 layers (:attr:`QKTStructure.nested_layers`) come from one
    pass over the points in stencil slices (:attr:`_nested_gradients`), so a
    context keeps their gradients and no step-h2 stencil; no stencil context
    makes a step-h2 read, so none runs a pass.  The step-h stencil context
    of the pointwise layers is kept.  Every layer
    takes leading point axes, and so does every identity record: the suite
    opens one context per chunk of sample points, all of them reading one
    :attr:`base` context of a constant base, and a record returns one
    residual per point (:meth:`residual`).
    """

    def __init__(self, struct: QKTStructure, x: np.ndarray, base: QKTContext | None = None):
        x = np.asarray(x, dtype=float).view()
        x.flags.writeable = False
        vars(self).update(struct=struct, x=x)
        if base is not None:
            vars(self)["base"] = base

    def __setattr__(self, name, value):
        raise AttributeError(f"context layer {name!r} is read-only")

    def _on_stencil(self, points: np.ndarray, h: float) -> "QKTContext":
        shared = self.struct.base is not None and self.struct.base.constant
        return QKTContext(self.struct, stencil(points, h), self.base if shared else None)

    @functools.cached_property
    def _stencil_h(self) -> "QKTContext":
        return self._on_stencil(self.x, self.struct.scheme.h)

    @functools.cached_property
    def base(self) -> "QKTContext":
        """The context of ``struct.base`` that the rescaled torsion (n = 1) and
        the conformal laws read.  A constant base's sits at one point, its layers
        broadcast against x, and the stencil contexts share it; any other
        base's sits at x, and its first step-h2 read (the conformal laws' dt)
        differences every step-h2 layer of the base, on points already checked."""
        base = self.struct.base
        if base.constant:
            return base.at(self.x.reshape(-1, self.x.shape[-1])[0])
        return QKTContext(base, self.x)

    def residual(self, *arrays) -> np.ndarray:
        """Per point of x, the largest |entry| of ``arrays`` beyond the point axes; NaN wins."""
        points = self.x.shape[:-1]
        return functools.reduce(np.maximum, (
            np.max(np.abs(arr).reshape(points + (-1,)), axis=-1) for arr in arrays))

    def derivative(self, layer: str) -> np.ndarray:
        """The gradient of ``layer`` at x, [..., a, *value] = d_a layer.

        A layer that is the same at every point
        (:meth:`QKTStructure.constant_layer`) gives exact zeros, one read-only
        broadcast, without a stencil.  The pointwise layers ``f``, ``g0`` and
        ``J`` (and ``T`` when it is the dual of a ``t_form`` evaluated without
        finite differences: :attr:`QKTStructure.nested_torsion`) take one
        :func:`gradient` call at step h, on the kept step-h stencil context.
        For a constant triple, d omega is :func:`_sp1_solve` of d Gamma, since
        the solve is linear in Gamma there.  Every other layer of
        :data:`NESTED_LAYERS` is differenced at step h2 in the context's one
        pass, together with the structure's other step-h2 layers
        (:attr:`QKTStructure.nested_layers`); any other layer, or one that the
        structure does not difference at h2, is a ``LookupError``, never a
        stencil of its own.  dg and dF follow from the pointwise layers by the
        product rule, so a nested stencil evaluates nothing else.
        """
        if self.struct.constant_layer(layer):
            shape, points = np.shape(getattr(self, layer)), self.x.ndim - 1
            return np.broadcast_to(0.0, shape[:points] + self.x.shape[-1:] + shape[points:])
        if layer in ("f", "g0", "J") or (layer == "T" and not self.struct.nested_torsion):
            sub = self._stencil_h
            return gradient(lambda _: getattr(sub, layer), self.x, self.struct.scheme)
        if layer == "omega" and self.struct.constant_layer("J"):
            # the derivative axis as one more point axis
            return _sp1_solve(self.J[..., None, :, :, :], self.derivative("Gamma"))[0]
        layers = self.struct.nested_layers
        if layer not in layers:
            raise LookupError(f"layer {layer!r} is not among the step-h2 layers {layers} "
                              f"of this structure")
        return self._nested_gradients[layers.index(layer)]

    @_layer
    def _nested_gradients(self):
        """The step-h2 gradients of :attr:`QKTStructure.nested_layers`, in that
        order, from one pass over the points in stencil slices of
        :func:`slice_length` points: one :func:`gradient` call per slice, whose
        field reads every step-h2 layer off the slice's stencil context, which
        is dropped before the next slice."""
        layers, scheme, d = self.struct.nested_layers, self.struct.scheme, self.x.shape[-1]
        points = self.x.reshape(-1, d)
        step = slice_length(d, len(points))
        slices = []
        for start in range(0, len(points), step):
            p = points[start:start + step]
            sub = self._on_stencil(p, scheme.h2)
            slices.append(gradient(lambda _: tuple(getattr(sub, layer) for layer in layers),
                                   p, scheme, True))
            del sub
        return tuple((parts[0] if len(parts) == 1 else np.concatenate(parts))
                     .reshape(self.x.shape[:-1] + parts[0].shape[1:]) for parts in zip(*slices))

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
        """g^{-1} = g_0^{-1} / f, a constant g_0 inverted once (:class:`ConstantMetric`)."""
        metric = self.struct.patch.metric
        base = metric.base if isinstance(metric, ConformalMetric) else metric
        inverse = base.inverse if isinstance(base, ConstantMetric) else np.linalg.inv(self.g0)
        return inverse / self.f[..., None, None]

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

    @_layer
    def df(self):
        """df[..., a] = d_a f."""
        return self.derivative("f")

    @_layer
    def dg(self):
        """dg[..., a, i, j] = d_a g_ij, by the product rule df (x) g_0 + f dg_0, the
        second term for a varying g_0 only."""
        dg = self.df[..., :, None, None] * self.g0[..., None, :, :]
        if not self.struct.constant_layer("g0"):
            dg += self.f[..., None, None, None] * self.derivative("g0")
        return dg

    @_layer
    def dJ(self):
        """dJ[..., i, alpha] = d_i J_alpha."""
        return self.derivative("J")

    def _dF(self) -> np.ndarray:
        """dF[..., alpha, a, i, j] = d_a (F_alpha)_ij, by the product rule
        (d_a g) J_alpha + g d_a J_alpha: one matmul of dg against each J, and
        the second term for a varying triple only.  Not a layer: each call
        computes it afresh."""
        J, d, points = self.J, self.x.shape[-1], self.x.shape[:-1]
        dF = (self.dg.reshape(points + (1, d * d, d)) @ J).reshape(points + (3, d, d, d))
        if not self.struct.constant_layer("J"):
            dF += np.swapaxes(self.g[..., None, None, :, :] @ self.dJ, -4, -3)
        return dF

    @_layer
    def df_wedge_F(self):
        """(J_a df) ^ F_a[..., a], packed (:func:`shuffle_sum_packed` of their outer
        product), with the Kaehler forms F_a = g_0 J_a of the base metric; their
        sum is what the torsion gains under g_0 -> f g_0."""
        ones = j_apply_oneform(self.J, self.df[..., None, :])[..., :, None, None]
        return shuffle_sum_packed(ones * (self.g0[..., None, :, :] @ self.J)[..., None, :, :])

    @_layer
    def gamma_g(self):
        """Christoffel symbols of g; exact zeros for a constant metric."""
        if isinstance(self.struct.patch.metric, ConstantMetric):
            return np.zeros(self.g.shape[:-2] + self.g.shape[-1:] * 3)
        require_nondegenerate(self.g, self.x)
        return christoffel(self.ginv, self.dg)

    # -- first order ------------------------------------------------------

    @_layer
    def _dF_parts(self):
        """(theta, theta_cross, dcF_plus) from one dF, dropped when done: the Lee
        forms are traced from it, and the d F_a packed (:func:`shuffle_sum_packed`),
        projected and twisted by the triple's :func:`packed_maps`, a constant
        triple's built once."""
        J, ginv, gamma, F = self.J, self.ginv, self.gamma_g, self.F
        d, points = J.shape[-1], J.shape[:-3]
        dF = self._dF()
        # delta F_a = -(g^ij d_i F_a(e_j) - F_a(v) - Gamma^m_ik (g^-1 F_a)^i_m), v^m = g^ij Gamma^m_ij
        weights = ginv.reshape(points + (d * d, 1))
        delta = np.swapaxes(gamma.reshape(points + (d, d * d)) @ weights, -1, -2)[..., None, :, :] @ F
        delta += np.swapaxes(ginv[..., None, :, :] @ F, -1, -2).reshape(points + (3, 1, d * d)) \
            @ gamma.reshape(points + (1, d * d, d))
        delta -= ginv.reshape(points + (1, 1, d * d)) @ dF.reshape(points + (3, d * d, d))
        theta = (delta @ J)[..., 0, :]
        psi = shuffle_sum_packed(dF)   # the packed d F_a, from the gradients of the F_a
        del dF
        plus, twisted = (self.struct.hyper.maps if self.struct.constant_layer("J")
                         else packed_maps(J))
        dF_plus = _apply_packed(psi, plus)
        # theta_cross[a, b](X) = -1/2 sum_{i<j} dF_a^+(X, e_i, e_j) (W_b - W_b^T)_ij with
        # W_b = g^-1 J_b^T: W[..., i, b, j] from one matmul, signed entries gathered per (t, b, X)
        weights = (ginv @ np.moveaxis(np.swapaxes(J, -1, -2), -3, -2).reshape(points + (d, 3 * d))
                   ).reshape(points + (d, 3, d))
        weights -= np.swapaxes(weights, -3, -1)
        weights = np.concatenate([-0.5 * weights, 0.5 * weights], axis=-1).reshape(points + (-1,))
        weights = np.take(weights, _cross_trace_table(d), axis=-1).reshape(points + (-1, 3 * d))
        theta_cross = (dF_plus @ weights).reshape(points + (3, 3, d))
        return theta, theta_cross, _apply_packed(psi, twisted)

    @property
    def theta(self):
        """The Lee forms theta[..., a] = (delta F_a) o J_a."""
        return self._dF_parts[0]

    @property
    def theta_cross(self):
        """The cross Lee forms theta_cross[..., a, b](X) = -1/2 sum_i dF_a^+(X, e_i, J_b e_i)."""
        return self._dF_parts[1]

    @property
    def dcF_plus(self):
        """The (1,2)+(2,1) parts of the twisted derivatives d_a F_a, packed:
        dcF_plus[..., a, t] over the sorted triples t of :func:`lambda3`."""
        return self._dF_parts[2]

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
    def _alpha_versions(self):
        """The alpha-versions V_a = d_aF_a^+ - (J_a K_a ^ F_c + K_a ^ F_b) / 2 of
        the torsion, packed [..., a, t]; None for n = 1.  One matmul sums each
        version's two outer products, and :func:`shuffle_sum_packed` packs them."""
        K, F = self.K, self.F
        if K is None:
            return None
        d, points = K.shape[-1], K.shape[:-2]
        ones = np.stack([j_apply_oneform(self.J, K), K], axis=-1)               # [..., a, x, 2]
        twos = np.stack([F[..., CYC_C, :, :], F[..., CYC_B, :, :]], axis=-3)   # [..., a, 2, i, j]
        outer = ones @ twos.reshape(points + (3, 2, d * d))
        return self.dcF_plus - 0.5 * shuffle_sum_packed(outer.reshape(points + (3, d, d, d)))

    @_layer
    def existence(self):
        """Per point, the worst disagreement V_a - V_b of the three
        alpha-versions of the torsion; None for n = 1.

        It is the eq5 agreement and, expanded term by term, the defect of the
        existence condition (eq4) relating the d_a F_a^+: the connection
        exists exactly when the versions agree, and T is then their common value.
        """
        if self.struct.n < 2:
            return None
        # packed: a dense 3-form holds the same entries, with signs, and zeros
        versions = self._alpha_versions
        return np.max(np.abs(versions - versions[..., CYC_B, :]), axis=(-2, -1))

    @_layer
    def T(self):
        """The torsion 3-form, as the record fixes it: the bundle torsion for n >= 2;
        for n = 1 the rescaled torsion of a ``base``, else the dual of ``t_form``."""
        if self.struct.n >= 2:
            return _bundle_torsion(self)
        return _dual_torsion(self) if self.struct.base is None else _rescaled_torsion(self)

    @_layer
    def T12(self):
        """The torsion as a (1,2) tensor T12[..., k, i, j]."""
        return raise_last(np.swapaxes(self.ginv, -1, -2), self.T)

    @_layer
    def T02(self):
        """The (0,2) parts T02[..., a, k, i, j] of the (1,2) torsion with respect to each J_a."""
        return torsion_02_part(self.T12[..., None, :, :, :], self.J)

    @_layer
    def Gamma(self):
        """The torsion connection nabla^g + T/2."""
        return self.gamma_g + 0.5 * self.T12

    @_layer
    def nabla_J(self):
        """nabla_J[..., alpha, i, k, j] = (nabla_i J_alpha)[k, j] under the torsion
        connection; only eq1 and eq2 read it."""
        return covariant_derivative_array(self.Gamma, "ud", self.J, self.dJ)

    @_layer
    def _sp1(self):
        """(omega, coefficients) of :func:`_sp1_solve`, without nabla J."""
        return _sp1_solve(self.J, self.Gamma, None if self.struct.constant_layer("J") else self.dJ)

    @property
    def omega(self):
        """The sp(1) connection 1-forms omega[..., alpha]."""
        return self._sp1[0]

    @_layer
    def eq1(self):
        """Per point, the worst least-squares defect of nabla J_a = -omega_b (x) J_c
        + omega_c (x) J_b and the worst disagreement of the two recoveries of each omega."""
        J, coeffs = self.J, self._sp1[1]
        design = np.stack([-J[..., CYC_C, :, :], J[..., CYC_B, :, :]], axis=-3)   # [..., a, s, k, j]
        defect = np.swapaxes(coeffs, -1, -2) @ design.reshape(coeffs.shape[:-1] + (-1,))
        defect -= self.nabla_J.reshape(defect.shape)
        return np.maximum(np.max(np.abs(defect, out=defect), axis=(-3, -2, -1)), np.max(
            np.abs(coeffs[..., CYC_C, 0, :] - coeffs[..., CYC_B, 1, :]), axis=(-2, -1)))

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

@functools.cache
def _cross_trace_table(d: int) -> np.ndarray:
    """The d-only gather [t, b, X] of theta_{a,b} (:meth:`QKTContext._dF_parts`): the
    rest_s = (i, j) entry of W[..., i, b, j] at X = first_s (:func:`lambda3`) from [-W/2, W/2],
    the half picked by the sign (+, -, +)_s, and the exact zero W[0, b, 0] where X is not in t."""
    tables = lambda3(d)
    i, j = np.divmod(tables.rest, d)
    b = np.arange(3)
    traced = np.zeros((tables.size, 3, d), dtype=np.intp) + b[:, None] * 2 * d
    traced[np.arange(tables.size)[:, None], b, tables.first[..., None]] = (
        (i[..., None] * 3 + b) * 2 * d + j[..., None] + d * (np.arange(3) == 1)[:, None, None])
    return traced


def _apply_packed(packed: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """packed[..., a, t] @ maps[..., a, :, :]: maps shared by every point (a
    constant triple's) as three matmuls over all the points, else one per point."""
    if maps.ndim > 3:
        return (packed[..., None, :] @ maps)[..., 0, :]
    lead = packed.shape[:-2]
    out = np.moveaxis(packed, -2, 0).reshape(3, -1, packed.shape[-1]) @ maps
    return np.moveaxis(out.reshape((3,) + lead + out.shape[-1:]), 0, -2)


def _sp1_solve(J: np.ndarray, gamma: np.ndarray, dJ: np.ndarray | None = None):
    """The one sp(1) solve: (omega[..., alpha], coefficients[..., a, 2, i]) of
    nabla_i J_a = d_i J_a + [Gamma_i, J_a], (Gamma_i)^k_m = gamma[..., k, i, m],
    fitted by least squares on D = (-J_c, J_b) per cyclic (a, b, c); without
    the dJ term when ``dJ`` is None.  The normal equations are
    contracted before expanding: D^T nabla J_a = D^T dJ_a + <Gamma, D J_a^T -
    J_a^T D>, a general 2x2 system (the columns are orthogonal only for a
    compatible triple).  omega_k is the mean of its recoveries from b = k and
    c = k.  Axes of ``gamma`` ahead of J's broadcast."""
    d = J.shape[-1]
    design = np.stack([-J[..., CYC_C, :, :], J[..., CYC_B, :, :]], axis=-3)   # [..., a, s, k, m]
    J_t = np.swapaxes(J, -1, -2)[..., :, None, :, :]
    pairs = (design @ J_t - J_t @ design).reshape(J.shape[:-3] + (6, d * d))
    rhs = pairs @ np.swapaxes(gamma, -2, -1).reshape(gamma.shape[:-3] + (d * d, d))
    rhs = rhs.reshape(rhs.shape[:-2] + (3, 2, d))
    design = design.reshape(J.shape[:-3] + (3, 2, d * d))
    if dJ is not None:
        rhs += design @ np.moveaxis(dJ.reshape(dJ.shape[:-4] + (d, 3, d * d)), -3, -1)
    coeffs = np.linalg.solve(design @ np.swapaxes(design, -1, -2), rhs)
    return (coeffs[..., CYC_C, 0, :] + coeffs[..., CYC_B, 1, :]) / 2.0, coeffs


# ---------------------------------------------------------------------------
# the structure object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QKTStructure:
    """A torsion connection, in one record: the metric on its patch, the
    quaternionic triple, the scheme and, in dimension 4, the 1-form ``t_form``
    or the ``base`` whose torsion is transported (:attr:`QKTContext.T`).  For
    n >= 2 the torsion follows from (g, Q) alone, so a ``t_form`` there, or
    beside a ``base``, is a :class:`DimensionError`; n = 1 with neither gets
    the zero 1-form.  Every quantity is evaluated through :meth:`at`; nothing
    is cached on the structure.  A step of the scheme that does not move the
    patch box's largest coordinate is an :class:`InputError`."""

    patch: CoordinatePatch
    hyper: HypercomplexField
    scheme: FDScheme
    # dimension 4: the freely chosen 1-form whose Hodge dual is the torsion
    t_form: FormField | None = None
    # the structure on the base metric g_0 of a conformal metric f g_0, on the
    # same triple: what the conformal laws compare against, and, for n = 1,
    # whose torsion the rescaled structure's transports
    base: QKTStructure | None = None

    def __post_init__(self):
        if self.t_form is not None and (self.n >= 2 or self.base is not None):
            where = f"n = {self.n}" if self.n >= 2 else "a structure with a conformal base"
            raise DimensionError(f"a torsion 1-form is for n = 1 without a base only, not {where}")
        if self.t_form is None and self.base is None and self.n == 1:
            object.__setattr__(self, "t_form", ConstantForm(1, np.zeros(4)))
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
        """Constant metric and triple, no 1-form or a constant one, and no base or
        a constant one: every layer is the same at every point."""
        return (isinstance(self.patch.metric, ConstantMetric)
                and isinstance(self.hyper, ConstantHypercomplexField)
                and (self.t_form is None or isinstance(self.t_form, ConstantForm))
                and (self.base is None or self.base.constant))

    def constant_layer(self, layer: str) -> bool:
        """Whether the context layer ``layer`` is the same at every point: f of a
        metric that is not a :class:`ConformalMetric`, g0 of a constant (base)
        metric, J of a constant triple, and every layer of a constant structure."""
        metric = self.patch.metric
        conformal = isinstance(metric, ConformalMetric)
        pointwise = {"f": not conformal,
                     "g0": isinstance(metric.base if conformal else metric, ConstantMetric),
                     "J": isinstance(self.hyper, ConstantHypercomplexField)}
        return self.constant or pointwise.get(layer, False)

    @property
    def nested_layers(self) -> tuple:
        """The layers that every context of this structure differences at step
        h2, in one pass, whatever reads them: :data:`NESTED_LAYERS` without
        Gamma^W when n >= 2, without the torsion when it is differenced at h
        (:attr:`nested_torsion`), without omega for a constant triple (see
        :meth:`QKTContext.derivative`), and without the layers that are the
        same at every point (all of them on a constant structure)."""
        if self.constant:
            return ()
        # a list, not a generator: every step-h2 request reads this
        return tuple([layer for layer in NESTED_LAYERS
                      if (layer != "T" or self.nested_torsion)
                      and (layer != "gamma_w" or self.n == 1)
                      and (layer != "omega" or not self.constant_layer("J"))])

    def at(self, x: np.ndarray, base: QKTContext | None = None) -> QKTContext:
        """The lazy evaluation context of this structure on the point array ``x``;
        ``base``: a context of a constant ``self.base`` to share, as ``run_suite``
        passes it.  The one check of the points a caller opens: none is an
        :class:`InputError`, a wrong last axis a :class:`DimensionError`, a point
        not inside the box shrunk by the scheme's margin a :class:`BoundaryError`."""
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            raise InputError(f"no points (shape {x.shape})")
        self.patch.require_interior(x, self.scheme.margin)
        return QKTContext(self, x, base)

    # an alias of at() that only perfbench/layertrace.py names; ROADMAP item 1
    # deletes it together with the tracer's wrappers
    def bundle_at(self, p: np.ndarray) -> QKTContext:
        return self.at(p)


def _bundle_torsion(ctx: QKTContext) -> np.ndarray:
    """The torsion for n >= 2: the mean of the packed alpha-versions, unpacked once."""
    return unpack_3form(ctx._alpha_versions.sum(axis=-2) / 3.0, ctx.x.shape[-1])


def _dual_torsion(ctx: QKTContext) -> np.ndarray:
    """The dimension-4 torsion: the Hodge dual of the structure's 1-form ``t_form``."""
    return hodge_star_array(ctx.struct.t_form(ctx.x), ctx.ginv, ctx.vol)


def _rescaled_torsion(ctx: QKTContext) -> np.ndarray:
    """T_bar = f T + sum_a (J_a df) ^ F_a, with T read off the base context ``ctx.base``."""
    return ctx.f[..., None, None, None] * ctx.base.T + unpack_3form(ctx.df_wedge_F.sum(axis=-2),
                                                                    ctx.x.shape[-1])


def existence_residual(patch: CoordinatePatch,
                       hyper: HypercomplexField,
                       p: np.ndarray,
                       scheme: FDScheme) -> float:
    """Worst defect of the pairwise compatibility condition at the points ``p``, checked
    by :meth:`QKTStructure.at`, one context per chunk of points; n >= 2."""
    if patch.n < 2:
        raise DimensionError("the existence condition needs n >= 2")
    struct = QKTStructure(patch, hyper, scheme)
    return worst(*(struct.at(chunk).existence for chunk in point_chunks(p)))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _check(*contexts: QKTContext, count: int | None = None) -> QKTStructure:
    """The one check of a built structure, for every n: its structure if the
    contexts on (c, d) point arrays pass at the first ``count`` of their points,
    in order (all by default): a valid metric, the quaternionic identities within
    ALGEBRA_TOL and, for n >= 2, the existence defect within EXISTENCE_TOL.
    Otherwise the :class:`NotQKTError`, with the residual of each check in ``details``."""
    def rows(layer):
        return np.concatenate([getattr(ctx, layer) for ctx in contexts])[:count]

    struct, x, g = contexts[0].struct, rows("x"), rows("g")
    validate_metric(g, x)
    quat = quaternionic_residuals(g, rows("J"))
    alg = worst(quat["algebra"], quat["square"], quat["hermitian"])
    details, message = {}, "hypercomplex triple incompatible with the metric: "
    if struct.n >= 2:
        details["eq4"] = exist = worst(rows("existence"))
        message = (f"no compatible torsion connection: existence residual {exist:.3e} "
                   f"(tolerance {EXISTENCE_TOL:.1e}), ")
    details["algebra"] = alg
    if alg <= ALGEBRA_TOL and details.get("eq4", 0.0) <= EXISTENCE_TOL:
        return struct
    raise NotQKTError(f"{message}quaternionic algebra residual {alg:.3e}",
                      residual=worst(*details.values()), details=details)


def check_at(struct: QKTStructure, check_points=None) -> QKTStructure:
    """``struct`` if it passes :func:`_check` in one context on ``check_points``
    (the patch center by default, one (d,) point as one row), which ``at`` checks."""
    points = struct.patch.center() if check_points is None else check_points
    return _check(struct.at(np.atleast_2d(points)))


def build_qkt(patch: CoordinatePatch,
              hyper: HypercomplexField,
              scheme: FDScheme,
              t_form: FormField | None = None,
              check_points: Sequence[np.ndarray] | None = None) -> QKTStructure:
    """Build the torsion connection on a 4n-dimensional patch, for every n: the
    :class:`QKTStructure` (whose torsion is the dual of ``t_form``, zero by
    default, for n = 1), checked by :func:`check_at` on ``check_points``."""
    return check_at(QKTStructure(patch, hyper, scheme, t_form), check_points)


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
    J, A = ctx.J, ctx.lee_differences
    # N[k, i, j] = W[i, k, j] - W[j, k, i] for W[i, k, j] = (J_a A)_i (J_c)^k_j - A_i (J_b)^k_j
    W = j_apply_oneform(J, A)[..., :, None, None] * J[..., CYC_C, None, :, :]
    W -= A[..., :, None, None] * J[..., CYC_B, None, :, :]
    return skew_bracket(W)


def structure_invariant_residuals(ctx: QKTContext) -> dict:
    """Defining invariants of the built structure, per point."""
    T = ctx.T
    quat = quaternionic_residuals(ctx.g, ctx.J)
    return {
        "torsion_skew": ctx.residual(T + np.swapaxes(T, -3, -2), T + np.swapaxes(T, -2, -1)),
        "metricity": ctx.residual(covariant_derivative_array(ctx.Gamma, "dd", ctx.g, ctx.dg)),
        "torsion_purity": ctx.residual(ctx.T02),
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
