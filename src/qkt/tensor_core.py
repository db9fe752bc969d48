"""Coordinate-patch models and finite-difference exterior/tensor calculus.

Everything acts on a single axis-aligned open box in R^{4n} carrying a
metric field.  Derivatives are order-2 central differences; fields that
are themselves assembled from finite differences carry ``nested=True`` so
that a second differentiation automatically switches to the coarser
curvature step ``h2`` (truncation/rounding balance).

Conventions used throughout the package:

* metric ``g[i, j]``; connection coefficients ``Gamma[l, i, j]``, the l-th
  component of the derivative of the j-th coordinate field along the i-th
  direction;
* a k-form is the dense antisymmetric array of its covariant components;
* the wedge carries no 1/k! prefactor: ``(a ^ b)(X,Y,Z) = a(X)b(Y,Z) +
  a(Y)b(Z,X) + a(Z)b(X,Y)`` for a 1-form against a 2-form, and
  ``dx1 ^ dx2`` evaluates to 1 on ``(e1, e2)``;
* the codifferential is ``delta = -sum_i iota_{e_i} nabla^g_{e_i}`` over a
  g-orthonormal frame, computed as the metric trace of the covariant
  derivative;
* the 4-dimensional Hodge star satisfies ``**`` = (-1)^{k(4-k)}, so it
  squares to +1 on even degrees and to -1 on odd degrees.
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
)

MIN_METRIC_EIGENVALUE = 1e-8


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
        if self.h <= 0 or self.h2 <= 0:
            raise ValueError("finite-difference steps must be positive")

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
    """An open box in R^{4n} with a metric field and an orientation."""

    n: int
    lo: np.ndarray
    hi: np.ndarray
    metric: Callable[[np.ndarray], np.ndarray]
    orientation: int = 1

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
            raise ValueError("domain box must have positive volume")
        if self.orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")

    @property
    def dim(self) -> int:
        return 4 * self.n

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, p: np.ndarray, margin: float = 0.0) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p > self.lo + margin) and np.all(p < self.hi - margin))

    def require_interior(self, p: np.ndarray, margin: float) -> None:
        if not self.contains(p, margin):
            raise BoundaryError(
                f"point {np.asarray(p)} is within {margin} of the domain boundary"
            )

    def metric_at(self, p: np.ndarray) -> np.ndarray:
        g = np.asarray(self.metric(p), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise DimensionError("metric field returned a wrongly shaped matrix")
        return g

    def validate_metric_at(self, p: np.ndarray) -> None:
        g = self.metric_at(p)
        if np.max(np.abs(g - g.T)) > 1e-12:
            raise DegenerateMetricError(f"metric not symmetric at {p}")
        if np.linalg.eigvalsh(g)[0] < MIN_METRIC_EIGENVALUE:
            raise DegenerateMetricError(
                f"metric closer than {MIN_METRIC_EIGENVALUE} to degenerate at {p}"
            )


# ---------------------------------------------------------------------------
# field carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorFieldValue:
    """Components of a tensor at one point, with declared index variances.

    ``signature`` is a string over {'u', 'd'} (contravariant/covariant),
    one letter per array axis.
    """

    signature: str
    components: np.ndarray
    base_point: np.ndarray

    def __post_init__(self):
        if self.components.ndim != len(self.signature):
            raise DimensionError("array rank does not match the index signature")
        if not np.all(np.isfinite(self.components)):
            raise ValueError("tensor components must be finite")


@dataclass(frozen=True)
class TensorField:
    """A tensor field: index signature plus a point evaluator."""

    signature: str
    func: Callable[[np.ndarray], np.ndarray]
    nested: bool = False

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(p), dtype=float)


@dataclass(frozen=True)
class FormField:
    """A differential k-form field (antisymmetric covariant components)."""

    degree: int
    func: Callable[[np.ndarray], np.ndarray]
    nested: bool = False

    def __call__(self, p: np.ndarray) -> np.ndarray:
        value = np.asarray(self.func(p), dtype=float)
        if value.ndim != self.degree:
            raise DimensionError(
                f"form of degree {self.degree} evaluated to a rank-{value.ndim} array"
            )
        return value


@dataclass(frozen=True)
class ConnectionField:
    """Connection coefficients as a field: p -> Gamma[l, i, j]."""

    func: Callable[[np.ndarray], np.ndarray]
    nested: bool = False

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(p), dtype=float)


def constant_form(degree: int, components) -> FormField:
    arr = np.asarray(components, dtype=float)
    return FormField(degree, lambda p, _a=arr: _a)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def partial_derivative(field: Callable[[np.ndarray], np.ndarray],
                       direction: int,
                       p: np.ndarray,
                       scheme: FDScheme,
                       nested: bool = False) -> np.ndarray:
    """Order-2 central difference of an array-valued field along one axis."""
    h = scheme.step(nested)
    e = np.zeros(len(p))
    e[direction] = h
    plus = np.asarray(field(p + e), dtype=float)
    minus = np.asarray(field(p - e), dtype=float)
    return (plus - minus) / (2.0 * h)


def gradient(field: Callable[[np.ndarray], np.ndarray],
             p: np.ndarray,
             scheme: FDScheme,
             nested: bool = False) -> np.ndarray:
    """Stack of partial derivatives; axis 0 is the derivative direction."""
    return np.stack([
        partial_derivative(field, a, p, scheme, nested) for a in range(len(p))
    ])


# ---------------------------------------------------------------------------
# exterior calculus
# ---------------------------------------------------------------------------

def antisymmetrized_gradient(grad: np.ndarray) -> np.ndarray:
    """d(omega) from the gradient of a k-form, derivative axis first."""
    out = grad.copy()
    for j in range(1, grad.ndim):
        out += ((-1.0) ** j) * np.moveaxis(grad, 0, j)
    return out


def exterior_derivative(omega: FormField, scheme: FDScheme) -> FormField:
    """d(omega); the result's evaluations run finite differences."""

    def d_at(p, _omega=omega, _scheme=scheme):
        k = _omega.degree
        if k >= len(p):
            raise DegreeError(f"cannot raise degree {k} past the dimension {len(p)}")
        return antisymmetrized_gradient(
            gradient(_omega.func, p, _scheme, nested=_omega.nested))

    return FormField(omega.degree + 1, d_at, nested=True)


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


def wedge_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge of antisymmetric component arrays, shuffle-sum normalization."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p, q = a.ndim, b.ndim
    if p == 0 or q == 0:
        return a * b
    outer = np.multiply.outer(a, b)
    result = np.zeros(outer.shape)
    for sign, axes in _shuffles(p, q):
        result += sign * outer.transpose(axes)
    return result


def wedge(a: FormField, b: FormField) -> FormField:
    def wedge_at(p, _a=a, _b=b):
        return wedge_arrays(_a(p), _b(p))

    return FormField(a.degree + b.degree, wedge_at, nested=a.nested or b.nested)


def _levi_civita_symbol_4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = _perm_sign(list(perm))
    return eps


EPSILON_4 = _levi_civita_symbol_4()

_STAR_SPECS = {
    1: "a,abcd->bcd",
    2: "ab,abcd->cd",
    3: "abc,abcd->d",
    4: "abcd,abcd->",
}


def hodge_star_array(arr: np.ndarray, g: np.ndarray, orientation: int = 1) -> np.ndarray:
    """Hodge star of a k-form component array in dimension 4."""
    g = np.asarray(g, dtype=float)
    if g.shape != (4, 4):
        raise DimensionError("the Hodge star is implemented for 4n = 4 only")
    arr = np.asarray(arr, dtype=float)
    k = arr.ndim
    vol = float(orientation) * np.sqrt(np.linalg.det(g))
    if k == 0:
        return float(arr) * vol * EPSILON_4
    if k > 4:
        raise DegreeError(f"no {k}-forms in dimension 4")
    ginv = np.linalg.inv(g)
    raised = arr
    for _ in range(k):
        # contract the leading axis, new contravariant axis lands at the end;
        # k passes restore the original axis order with all indices raised
        raised = np.tensordot(raised, ginv, axes=([0], [0]))
    return vol * np.einsum(_STAR_SPECS[k], raised, EPSILON_4) / math.factorial(k)


def hodge_star_4d(omega: FormField,
                  metric: Callable[[np.ndarray], np.ndarray],
                  orientation: int = 1) -> FormField:
    """Metric/orientation-compatible star of a form field, dimension 4."""

    def star_at(p, _omega=omega, _metric=metric, _ori=orientation):
        return hodge_star_array(_omega(p), np.asarray(_metric(p), dtype=float), _ori)

    return FormField(4 - omega.degree, star_at, nested=omega.nested)


# ---------------------------------------------------------------------------
# metric machinery
# ---------------------------------------------------------------------------

class MemoizedMetric:
    """A metric field that evaluates each point once.

    ``g(p)`` is kept per point and the Christoffel symbols per (point,
    scheme), which :func:`levi_civita` reads through.  Stored arrays are
    read-only, so a caller cannot alter what later callers receive.
    """

    __slots__ = ("func", "_g", "_gamma")

    def __init__(self, func: Callable[[np.ndarray], np.ndarray]):
        self.func = func
        self._g: dict = {}
        self._gamma: dict = {}

    def __call__(self, p: np.ndarray) -> np.ndarray:
        key = np.asarray(p, dtype=float).tobytes()
        g = self._g.get(key)
        if g is None:
            g = np.array(self.func(p), dtype=float)
            g.flags.writeable = False
            self._g[key] = g
        return g


def levi_civita(metric: Callable[[np.ndarray], np.ndarray],
                p: np.ndarray,
                scheme: FDScheme) -> np.ndarray:
    """Christoffel symbols Gamma[l, i, j] of the metric field at ``p``."""
    if isinstance(metric, MemoizedMetric):
        key = (np.asarray(p, dtype=float).tobytes(), scheme)
        gamma = metric._gamma.get(key)
        if gamma is None:
            gamma = _christoffel(metric, p, scheme)
            gamma.flags.writeable = False
            metric._gamma[key] = gamma
        return gamma
    return _christoffel(metric, p, scheme)


def _christoffel(metric: Callable[[np.ndarray], np.ndarray],
                 p: np.ndarray,
                 scheme: FDScheme) -> np.ndarray:
    g = np.asarray(metric(p), dtype=float)
    if np.linalg.eigvalsh(g)[0] < MIN_METRIC_EIGENVALUE:
        raise DegenerateMetricError(f"metric nearly degenerate at {p}")
    ginv = np.linalg.inv(g)
    dg = gradient(metric, p, scheme)  # dg[a, i, j] = d_a g_{ij}
    lowered = 0.5 * (
        dg
        + np.einsum("jim->ijm", dg)
        - np.einsum("mij->ijm", dg)
    )
    return np.einsum("lm,ijm->lij", ginv, lowered)


def levi_civita_field(patch: CoordinatePatch, scheme: FDScheme) -> ConnectionField:
    return ConnectionField(lambda p: levi_civita(patch.metric, p, scheme), nested=True)


def covariant_derivative_array(gamma: np.ndarray,
                               tensor: TensorField,
                               p: np.ndarray,
                               scheme: FDScheme,
                               grad: np.ndarray | None = None) -> np.ndarray:
    """Components of nabla(tensor) at ``p``; derivative axis comes first.

    ``grad`` may supply the tensor's already computed :func:`gradient` at ``p``.
    """
    out = gradient(tensor.func, p, scheme, nested=tensor.nested) if grad is None else grad.copy()
    base = tensor(p)
    for slot, variance in enumerate(tensor.signature):
        if variance == "u":
            # +Gamma^k_{a m} T[..., m at slot, ...]
            term = np.tensordot(gamma, base, axes=([2], [slot]))  # (k, a, rest)
            term = np.moveaxis(term, 1, 0)                        # (a, k, rest)
            out += np.moveaxis(term, 1, slot + 1)
        elif variance == "d":
            # -Gamma^m_{a j} T[..., m at slot, ...]
            term = np.tensordot(gamma, base, axes=([0], [slot]))  # (a, j, rest)
            out -= np.moveaxis(term, 1, slot + 1)
        else:
            raise ValueError(f"bad variance letter {variance!r}")
    return out


def covariant_derivative(conn: ConnectionField,
                         tensor: TensorField,
                         p: np.ndarray,
                         scheme: FDScheme) -> TensorFieldValue:
    """Covariant derivative of a tensor field; new index is covariant, first."""
    arr = covariant_derivative_array(conn(p), tensor, p, scheme)
    return TensorFieldValue("d" + tensor.signature, arr, np.asarray(p, dtype=float))


def orthonormal_frame(g: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
    """Gram-Schmidt of the coordinate basis; column i is the i-th frame vector."""
    g = np.asarray(g, dtype=float)
    if np.linalg.eigvalsh(g)[0] < MIN_METRIC_EIGENVALUE:
        raise DegenerateMetricError(f"metric nearly degenerate at {p}")
    d = g.shape[0]
    frame = np.zeros((d, d))
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        for j in range(i):
            v = v - (frame[:, j] @ g @ v) * frame[:, j]
        frame[:, i] = v / np.sqrt(v @ g @ v)
    return frame


def codifferential(omega: FormField,
                   metric: Callable[[np.ndarray], np.ndarray],
                   p: np.ndarray,
                   scheme: FDScheme) -> np.ndarray:
    """delta(omega) at ``p``: minus the metric trace of nabla^g omega."""
    if omega.degree < 1:
        raise DegreeError("the codifferential needs a form of degree >= 1")
    gamma = levi_civita(metric, p, scheme)
    nabla = covariant_derivative_array(
        gamma, TensorField("d" * omega.degree, omega.func, omega.nested), p, scheme
    )
    ginv = np.linalg.inv(np.asarray(metric(p), dtype=float))
    return -np.tensordot(ginv, nabla, axes=([0, 1], [0, 1]))
