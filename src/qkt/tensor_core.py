"""Coordinate-patch models and finite-difference exterior/tensor calculus.

Everything acts on a single axis-aligned open box in R^{4n} carrying a
metric field.  Derivatives are order-2 central differences; fields that
are themselves assembled from finite differences carry ``nested=True`` so
that a second differentiation automatically switches to the coarser
curvature step ``h2`` (truncation/rounding balance).

Conventions used throughout the package:

* point arrays: a field maps points of shape ``(..., d)`` to values of
  shape ``(..., *value_shape)``; the leading axes are point axes, and a
  single point is the empty batch.  :func:`gradient` evaluates a field
  once, on the ``(..., 2d, d)`` stencil array, and returns
  ``(..., d, *value_shape)``: the derivative axis sits right after the
  point axes;
* evaluation contexts: a built structure evaluates its layers (g, J, the
  Lee and cross Lee forms, K, T, Gamma, the sp(1) forms, the torsion traces,
  the curvature) through ``QKTStructure.at(x)``, one lazy context per point
  array, each layer computed at most once and read-only; a derivative reads
  the layer off contexts on the :func:`stencil` points of a :func:`gradient`
  call, at step h or in the one pass at step h2, each dropped after use.
  Nothing is cached on a structure: dropping a context frees its arrays,
  and ``run_suite`` opens a constant base's context once per call, at one
  point, for every chunk.  A contraction is a reshape and a batched matmul;
* metric ``g[i, j]``; connection coefficients ``Gamma[l, i, j]``, the l-th
  component of the derivative of the j-th coordinate field along the i-th
  direction;
* a k-form is the dense antisymmetric array of its covariant components;
  a packed 3-form is the array of its C(d, 3) components over the sorted
  triples i < j < k (:func:`lambda3`), which the first-order layers keep;
* the wedge carries no 1/k! prefactor: ``(a ^ b)(X,Y,Z) = a(X)b(Y,Z) +
  a(Y)b(Z,X) + a(Z)b(X,Y)`` for a 1-form against a 2-form, and
  ``dx1 ^ dx2`` evaluates to 1 on ``(e1, e2)``;
* the codifferential is ``delta = -sum_i iota_{e_i} nabla^g_{e_i}`` over a
  g-orthonormal frame, computed as the metric trace of the covariant
  derivative;
* the 4-dimensional Hodge star takes ``dx1 ^ dx2 ^ dx3 ^ dx4`` as positive
  on every patch and satisfies ``**`` = (-1)^{k(4-k)}, so it squares to +1
  on even degrees and to -1 on odd degrees.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundaryError,
    DegenerateMetricError,
    DegreeError,
    DimensionError,
    InputError,
)

MIN_METRIC_EIGENVALUE = 1e-8
SYMMETRY_TOL = 1e-12   # largest |g_ij - g_ji| of a valid metric


# ---------------------------------------------------------------------------
# schemes and patches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FDScheme:
    """Central-difference parameters.

    ``h`` differentiates analytically-evaluated fields, ``h2`` differentiates
    fields whose own evaluation already runs finite differences (connection
    coefficients, torsion forms, ...).
    """

    h: float = 1e-4
    h2: float = 1e-3

    def __post_init__(self):
        if not all(math.isfinite(step) and step > 0 for step in (self.h, self.h2)):
            raise InputError("finite-difference steps must be finite and positive")

    def step(self, nested: bool) -> float:
        return self.h2 if nested else self.h

    @property
    def margin(self) -> float:
        """Sampling distance from the boundary needed by nested stencils."""
        return 3.0 * max(self.h, self.h2)

    def halved(self) -> "FDScheme":
        return FDScheme(h=self.h / 2.0, h2=self.h2 / 2.0)


@dataclass(frozen=True)
class CoordinatePatch:
    """An open box in R^{4n} with a metric field."""

    n: int
    lo: np.ndarray
    hi: np.ndarray
    metric: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError(f"quaternionic dimension must be >= 1, got {self.n}")
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != (self.dim,) or hi.shape != (self.dim,):
            raise DimensionError("domain bounds must have length 4n")
        if not np.all(hi > lo):
            raise InputError("domain box must have positive volume")

    @property
    def dim(self) -> int:
        return 4 * self.n

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, p: np.ndarray, margin: float = 0.0) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p > self.lo + margin) and np.all(p < self.hi - margin))

    def require_interior(self, p: np.ndarray, margin: float) -> None:
        if np.shape(p)[-1:] != (self.dim,):
            raise DimensionError(f"points of shape {np.shape(p)} on a "
                                 f"{self.dim}-dimensional patch")
        bad = ~np.all(np.isfinite(p), axis=-1)
        if np.any(bad):
            raise InputError(f"point {first_point(bad, p)} is not finite")
        if not self.contains(p, margin):
            raise BoundaryError(
                f"point {np.asarray(p)} is within {margin} of the domain boundary"
            )

    def metric_at(self, p: np.ndarray) -> np.ndarray:
        g = np.asarray(self.metric(p), dtype=float)
        if g.shape != np.shape(p)[:-1] + (self.dim, self.dim):
            raise DimensionError("metric field returned a wrongly shaped matrix")
        return g


def validate_metric(g: np.ndarray, p: np.ndarray) -> None:
    """Raise DegenerateMetricError unless g (..., d, d) at the points ``p`` is
    finite, symmetric and positive definite."""
    require_nondegenerate(g, p)
    skew = np.max(np.abs(g - np.swapaxes(g, -1, -2)), axis=(-2, -1)) > SYMMETRY_TOL
    if np.any(skew):
        raise DegenerateMetricError(f"metric not symmetric at {first_point(skew, p)}")


def first_point(mask: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The first point of the batch ``p`` (..., d) where ``mask`` (...) holds."""
    p = np.asarray(p, dtype=float)
    return p.reshape(-1, p.shape[-1])[np.flatnonzero(mask)[0]]


def require_nondegenerate(g: np.ndarray, p: np.ndarray, lowest: np.ndarray | None = None) -> None:
    """Raise DegenerateMetricError at the first point where g is not finite or its smallest
    eigenvalue (``lowest``, if given and none of it is) is below MIN_METRIC_EIGENVALUE."""
    bad = ~np.all(np.isfinite(g), axis=(-2, -1))
    if np.any(bad):
        raise DegenerateMetricError(f"metric not finite at {first_point(bad, p)}")
    if lowest is None or not np.all(lowest >= MIN_METRIC_EIGENVALUE):
        lowest = np.linalg.eigvalsh(g)[..., 0]
    bad = lowest < MIN_METRIC_EIGENVALUE
    if np.any(bad):
        raise DegenerateMetricError(
            f"metric closer than {MIN_METRIC_EIGENVALUE} to degenerate at {first_point(bad, p)}")


# ---------------------------------------------------------------------------
# field carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormField:
    """A differential k-form field (antisymmetric covariant components)."""

    degree: int
    func: Callable[[np.ndarray], np.ndarray]
    nested: bool = False

    def __call__(self, p: np.ndarray) -> np.ndarray:
        value = np.asarray(self.func(p), dtype=float)
        rank = value.ndim - (np.ndim(p) - 1)
        if rank != self.degree:
            raise DimensionError(
                f"form of degree {self.degree} evaluated to a rank-{rank} array"
            )
        return value


class ConstantForm(FormField):
    """A form field with the same components at every point; its derivatives
    vanish exactly."""

    def __init__(self, degree: int, components):
        arr = np.asarray(components, dtype=float)
        super().__init__(degree, lambda p: np.broadcast_to(arr, np.shape(p)[:-1] + arr.shape))


def worst(*values) -> float:
    """The largest residual of scalars or per-point arrays; NaN wins, so a failed
    evaluation cannot read as a pass."""
    return float(np.max([np.max(value) for value in values]))


def fold(out: dict, values: dict) -> dict:
    """Fold ``values``, scalars or per-point arrays, into the running maxima ``out``
    (NaN wins); None values are skipped.  One reduction per key, compared as floats."""
    for key, value in values.items():
        if value is not None:
            new, old = float(np.asarray(value).max()), out.get(key, 0.0)
            out[key] = new if new > old or new != new else old
    return out


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def partial_derivative(field: Callable[[np.ndarray], np.ndarray],
                       direction: int,
                       p: np.ndarray,
                       scheme: FDScheme,
                       nested: bool = False) -> np.ndarray:
    """Order-2 central difference of a field along one axis at the points ``p``:
    one slice of :func:`gradient`, from the two points p +- h e_direction only."""
    p = np.asarray(p, dtype=float)
    h = scheme.step(nested)
    step = h * np.eye(p.shape[-1])[direction]
    values = np.asarray(field(p[..., None, :] + np.stack([step, -step])), dtype=float)
    plus, minus = np.moveaxis(values, p.ndim - 1, 0)
    return (plus - minus) / (2.0 * h)


def stencil(p: np.ndarray, h: float) -> np.ndarray:
    """The (..., 2d, d) central-difference points of ``p`` (..., d): p + h e_i, then p - h e_i."""
    p = np.asarray(p, dtype=float)
    return p[..., None, :] + _stencil_offsets(p.shape[-1], h)


@functools.cache
def _stencil_offsets(d: int, h: float) -> np.ndarray:
    """The read-only (2d, d) offsets of :func:`stencil`, built once per (d, h)."""
    offsets = np.concatenate([h * np.eye(d), -h * np.eye(d)])
    offsets.flags.writeable = False
    return offsets


def gradient(field: Callable[[np.ndarray], np.ndarray],
             p: np.ndarray,
             scheme: FDScheme,
             nested: bool = False) -> np.ndarray:
    """All partial derivatives at the points ``p`` (..., d), from one field call.

    The field is evaluated once, on the (..., 2d, d) :func:`stencil` array;
    the result is (..., d, *value_shape), the derivative axis right after
    the point axes.  A field that returns a tuple of arrays gets the tuple
    of their derivatives.
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[-1]
    h = scheme.step(nested)
    head = (slice(None),) * (p.ndim - 1)

    def difference(values):
        values = np.asarray(values, dtype=float)
        out = values[head + (slice(d),)] - values[head + (slice(d, None),)]
        out /= 2.0 * h
        return out

    values = field(stencil(p, h))
    return tuple(map(difference, values)) if isinstance(values, tuple) else difference(values)


# ---------------------------------------------------------------------------
# exterior calculus
# ---------------------------------------------------------------------------

def antisymmetrized_gradient(grad: np.ndarray, degree: int | None = None) -> np.ndarray:
    """d(omega) from the gradient of a k-form, derivative axis first.

    With ``degree`` given, axes ahead of the derivative axis form a stack:
    ``grad[..., a, i_1, ..., i_k]`` holds d_a omega_{i_1..i_k}.
    """
    k = grad.ndim - 1 if degree is None else degree
    out = grad.copy()
    for j in range(1, k + 1):
        out += ((-1.0) ** j) * np.moveaxis(grad, -k - 1, j - k - 1)
    return out


def _perm_sign(perm: Sequence[int]) -> float:
    sign = 1.0
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@functools.lru_cache(maxsize=None)
def _shuffles(p: int, q: int) -> tuple:
    """(sign, transpose axes) of every (p, q) shuffle; outer axis s lands at dest[s]."""
    out = []
    for positions in itertools.combinations(range(p + q), p):
        dest = list(positions) + [ax for ax in range(p + q) if ax not in positions]
        out.append((_perm_sign(dest), tuple(np.argsort(dest))))
    return tuple(out)


def wedge_arrays(a: np.ndarray, b: np.ndarray, stack: int = 0) -> np.ndarray:
    """Wedge of antisymmetric component arrays, shuffle-sum normalization.

    The first ``stack`` axes of both arrays form a stack (numpy broadcasting)
    and are wedged elementwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p, q = a.ndim - stack, b.ndim - stack
    if p == 0 or q == 0:
        return a * b
    outer = a.reshape(a.shape + (1,) * q) \
        * b.reshape(b.shape[:stack] + (1,) * p + b.shape[stack:])
    return shuffle_sum(outer, p, q)


def shuffle_sum(outer: np.ndarray, p: int, q: int) -> np.ndarray:
    """The wedge of a p-form and a q-form from their outer product, or from a
    sum of such products: the signed sum over the (p, q) shuffles of the
    last p + q axes."""
    stack = outer.ndim - p - q
    lead = tuple(range(stack))
    result = np.zeros(outer.shape)
    for sign, axes in _shuffles(p, q):
        term = outer.transpose(lead + tuple(stack + ax for ax in axes))
        if sign > 0:
            result += term
        else:
            result -= term
    return result


# ---------------------------------------------------------------------------
# packed 3-forms: the C(d, 3) components psi[t] = psi[i, j, k] over the sorted
# triples t = (i < j < k), in lexicographic order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lambda3:
    """The index tables of packed 3-forms in dimension ``d``, every one a gather.

    ``unpack`` (d^3): for each flat position, its entry of [packed, 0,
    -packed], so the position of triple t and of its even permutations holds
    t, an odd permutation C(d,3) + 1 + t and a repeated index C(d,3).
    ``first``, ``rest`` (3, C(d,3)): the s-th entry of each triple (``first``
    lists the triples) and the flat (d^2) position of the pair left without
    it, so that the sorted entry of G[x, i, j] - G[i, x, j] + G[j, x, i] is
    sum_s (+, -, +)_s G[first_s, rest_s]: the exterior derivative of a 2-form
    from its gradient, and the wedge of a 1-form with a 2-form.
    ``derivation``: (positions, sources, signs) of the off-diagonal entries of
    :func:`derivation_3form`, and ``diagonal`` the sources of its diagonal.
    """

    unpack: np.ndarray
    first: np.ndarray
    rest: np.ndarray
    derivation: tuple
    diagonal: np.ndarray

    @property
    def size(self) -> int:
        return self.first.shape[-1]


@functools.cache
def lambda3(d: int) -> Lambda3:
    """The :class:`Lambda3` tables of dimension ``d``, built once per process."""
    r = np.arange(d)
    first = np.stack(np.nonzero((r[:, None, None] < r[None, :, None]) & (r[None, :, None] < r)))
    size = first.shape[1]
    rows = np.arange(size)
    i, j, k = first
    rest = np.stack([j * d + k, i * d + k, i * d + j])
    second, third = np.roll(first, -1, axis=0), np.roll(first, -2, axis=0)

    def flat(a, b, c):
        return (a * d + b) * d + c

    unpack = np.full(d ** 3, size)
    unpack[flat(first, second, third)] = rows                   # the even permutations
    unpack[flat(second, first, third)] = size + 1 + rows        # the odd ones
    # the derivation: entry s of triple t replaced by m, landing at place p
    # among the two entries (x < y) left, a cycle of sign (-1)^(s - p)
    x, y = np.divmod(rest, d)
    s, t, m = np.nonzero((r != x[..., None]) & (r != y[..., None]) & (r != first[..., None]))
    x, y = x[s, t], y[s, t]
    p = (m > x).astype(int) + (m > y)
    u = unpack[flat(np.where(p == 0, m, x), np.where(p == 0, x, np.where(p == 1, m, y)),
                    np.where(p == 2, m, y))]
    signs = np.where((s - p) % 2, -1.0, 1.0)
    # transposed, so that packed @ matrix applies it: entry [u, t] holds A[m, t_s]
    derivation = (u * size + t, m * d + first[s, t], signs)
    diagonal = first * (d + 1)                                  # A[t_s, t_s]
    tables = Lambda3(unpack, first, rest, derivation, diagonal)
    for value in (*vars(tables).values(), *derivation):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return tables


def unpack_3form(packed: np.ndarray, d: int) -> np.ndarray:
    """The dense antisymmetric arrays [..., d, d, d] of packed 3-forms
    [..., C(d, 3)]: entries copied with their signs, exact zeros on repeated
    indices; one gather."""
    lead = packed.shape[:-1]
    padded = np.concatenate([packed, np.zeros(lead + (1,)), -packed], axis=-1)
    return np.take(padded, lambda3(d).unpack, axis=-1).reshape(lead + (d,) * 3)


def shuffle_sum_packed(outer: np.ndarray) -> np.ndarray:
    """G[x, i, j] - G[i, x, j] + G[j, x, i] packed [..., C(d, 3)], for G = outer[..., x, i, j]
    antisymmetric in (i, j), by three gathers.  Its two jobs: the wedge (:func:`shuffle_sum`)
    of 1-forms and 2-forms from their outer products, or a sum of them, and d of 2-forms
    from their gradients G[..., x, i, j] = d_x omega_ij (:func:`antisymmetrized_gradient`)."""
    d = outer.shape[-1]
    tables = lambda3(d)
    terms = np.take(outer.reshape(outer.shape[:-3] + (d ** 3,)), tables.first * d * d + tables.rest,
                    axis=-1)
    return terms[..., 0, :] - terms[..., 1, :] + terms[..., 2, :]


def derivation_3form(A: np.ndarray) -> np.ndarray:
    """The derivation of the matrices A[..., d, d] on packed 3-forms, as
    matrices [..., C, C] applied from the right: ``packed @ derivation_3form(A)``
    packs psi(A X, Y, Z) + psi(X, A Y, Z) + psi(X, Y, A Z).  A scatter of A's
    entries, exact for any A."""
    d = A.shape[-1]
    tables = lambda3(d)
    positions, sources, signs = tables.derivation
    size = tables.size
    flat = A.reshape(A.shape[:-2] + (d * d,))
    out = np.zeros(A.shape[:-2] + (size * size,))
    out[..., positions] = np.take(flat, sources, axis=-1) * signs
    out[..., np.arange(size) * (size + 1)] = np.take(flat, tables.diagonal, axis=-1).sum(axis=-2)
    return out.reshape(A.shape[:-2] + (size, size))


def _levi_civita_symbol_4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = _perm_sign(list(perm))
    return eps


EPSILON_4 = _levi_civita_symbol_4()


def hodge_star_array(arr: np.ndarray, ginv: np.ndarray, vol: np.ndarray) -> np.ndarray:
    """Hodge star of k-form component arrays in dimension 4.

    ``ginv`` (..., 4, 4) is the inverse metric and ``vol`` (...) the factor
    sqrt(det g) at the points, their leading axes the point
    axes; ``arr`` carries the same point axes ahead of its k slots.
    """
    if ginv.shape[-2:] != (4, 4):
        raise DimensionError("the Hodge star is implemented for 4n = 4 only")
    arr = np.asarray(arr, dtype=float)
    lead = ginv.ndim - 2
    k = arr.ndim - lead
    if k == 0:
        return (arr * vol)[..., None, None, None, None] * EPSILON_4
    if k > 4:
        raise DegreeError(f"no {k}-forms in dimension 4")
    raised = arr
    for _ in range(k):
        # contract the first slot, new contravariant axis lands at the end;
        # k passes restore the original axis order with all indices raised
        moved = np.moveaxis(raised, lead, -1)
        raised = (moved.reshape(moved.shape[:lead] + (-1, 4)) @ ginv).reshape(moved.shape)
    starred = raised.reshape(raised.shape[:lead] + (-1,)) @ EPSILON_4.reshape(4 ** k, -1)
    vol = np.reshape(vol, np.shape(vol) + (1,) * (4 - k))
    return vol * starred.reshape(starred.shape[:-1] + (4,) * (4 - k)) / math.factorial(k)


# ---------------------------------------------------------------------------
# metric machinery
# ---------------------------------------------------------------------------

class ConstantMetric:
    """A metric field that is the same matrix at every point.

    Every point gets a read-only view of one matrix, inverted once into
    ``inverse``, and the Christoffel symbols vanish exactly, without a stencil.
    ``lowest`` keeps the least eigenvalue, which is f * lowest for f g.
    """

    __slots__ = ("g", "inverse", "lowest")

    def __init__(self, g):
        g = np.array(g, dtype=float)
        self.lowest = np.linalg.eigvalsh(g)[0] if np.all(np.isfinite(g)) else np.nan
        if not self.lowest >= MIN_METRIC_EIGENVALUE:
            raise DegenerateMetricError("constant metric is not finite and positive definite")
        if np.max(np.abs(g - g.T)) > SYMMETRY_TOL:
            raise DegenerateMetricError("constant metric is not symmetric")
        self.g, self.inverse = g, np.linalg.inv(g)
        g.flags.writeable = self.inverse.flags.writeable = False

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.g, np.shape(p)[:-1] + self.g.shape)


class ConformalMetric:
    """The metric f g_0 of a positive conformal factor f and a base metric g_0.

    ``factor.value(p)`` is f at the points ``p``.  An evaluation context
    reads f once per point array and scales g_0 there with :meth:`scale`.
    """

    __slots__ = ("factor", "base")

    def __init__(self, factor, base: Callable[[np.ndarray], np.ndarray]):
        self.factor = factor
        self.base = base

    @staticmethod
    def scale(f: np.ndarray, g0: np.ndarray) -> np.ndarray:
        """f g_0 from the factor values ``f`` (...) and the base metric ``g0`` (..., d, d)."""
        return f[..., None, None] * g0

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return self.scale(self.factor.value(p), np.asarray(self.base(p), dtype=float))


def levi_civita(metric: Callable[[np.ndarray], np.ndarray],
                p: np.ndarray,
                scheme: FDScheme) -> np.ndarray:
    """Christoffel symbols Gamma[..., l, i, j] of the metric field at the points ``p``."""
    if isinstance(metric, ConstantMetric):
        return np.zeros(np.shape(p)[:-1] + metric.g.shape[-1:] * 3)
    g = np.asarray(metric(p), dtype=float)
    require_nondegenerate(g, p)
    return christoffel(np.linalg.inv(g), gradient(metric, p, scheme))


def christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., l, i, j] from g^{-1} and dg[..., a, i, j] = d_a g_ij."""
    lowered = 0.5 * (dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1))
    return raise_last(ginv, lowered)


def raise_last(ginv: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """out[..., l, i, j] = sum_m ginv[..., l, m] arr[..., i, j, m], one matmul."""
    d = ginv.shape[-1]
    out = ginv @ np.swapaxes(arr.reshape(arr.shape[:-3] + (d * d, d)), -1, -2)
    return out.reshape(out.shape[:-1] + (d, d))


def lower_first(arr: np.ndarray, g: np.ndarray) -> np.ndarray:
    """out[..., *rest, m] = sum_l arr[..., l, *rest] g[..., l, m] at the point axes of g."""
    points, d = g.shape[:-2], g.shape[-1]
    out = np.swapaxes(arr.reshape(arr.shape[:len(points)] + (d, -1)), -1, -2) @ g
    return out.reshape(out.shape[:-2] + arr.shape[len(points) + 1:] + (d,))


def covariant_derivative_array(gamma: np.ndarray,
                               signature: str,
                               value: np.ndarray,
                               grad: np.ndarray) -> np.ndarray:
    """Components of nabla(tensor) from its value and :func:`gradient` at some points.

    ``gamma`` (points, d, d, d) is the connection there and ``signature``
    the tensor's index variances ('u' or 'd' per slot).  Value axes between
    the point axes and the slots are a stack; the result is (points, stack,
    derivative, slots).
    """
    pts, d = gamma.ndim - 3, gamma.shape[-1]
    points = gamma.shape[:pts]
    base = np.asarray(value, dtype=float)
    out = np.array(grad, dtype=float)
    lead = base.ndim - pts - len(signature)
    head = list(range(pts))
    # the derivative axis moves behind the stack: (points, stack, derivative, slots)
    out = out.transpose(head + list(range(pts + 1, pts + 1 + lead)) + [pts]
                        + list(range(pts + 1 + lead, out.ndim)))
    # rows (k, a) of Gamma^k_{a m} for an upper slot, (a, j) of Gamma^m_{a j} for a lower one
    rows = {"u": gamma, "d": gamma.transpose(head + [pts + 1, pts + 2, pts])}
    for slot, variance in enumerate(signature):
        if variance not in rows:
            raise ValueError(f"bad variance letter {variance!r}")
        axis = pts + lead + slot
        moved = base.transpose(head + [axis] + [i for i in range(pts, base.ndim) if i != axis])
        term = (rows[variance].reshape(points + (d * d, d)) @ moved.reshape(points + (d, -1))) \
            .reshape(points + (d, d) + moved.shape[pts + 1:])
        # term: points, the two row indices, stack, the other slots
        rest = list(range(pts + 2, term.ndim))
        derivative, index = (pts + 1, pts) if variance == "u" else (pts, pts + 1)
        perm = head + rest[:lead] + [derivative] + rest[lead:lead + slot] + [index] + rest[lead + slot:]
        if variance == "u":
            out += term.transpose(perm)
        else:
            out -= term.transpose(perm)
        # free this slot's term before the next slot computes its own: two live
        # terms of nabla J on a stencil raised the traced peak memory of a
        # d = 8 curvature run by 0.05 MB
        del term
    return out


def trace_codifferential(nabla: np.ndarray,
                         ginv: np.ndarray,
                         degree: int | None = None) -> np.ndarray:
    """delta(omega) from nabla^g omega (points, stack, derivative, slots): minus its metric trace.

    The leading axes of ``ginv`` are the point axes.  Without ``degree``
    there is no stack.
    """
    pts = ginv.ndim - 2
    k = nabla.ndim - pts - 1 if degree is None else degree
    d = ginv.shape[-1]
    lead, rest = nabla.shape[:nabla.ndim - k - 1], nabla.shape[nabla.ndim - k + 1:]
    weights = ginv.reshape(ginv.shape[:-2] + (1,) * (len(lead) - pts) + (1, d * d))
    traced = weights @ nabla.reshape(lead + (d * d, -1))
    return -traced.reshape(lead + rest)
