"""Example-manifold constructors and seeded interior sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .conformal import ConformalFactor, conformal_rescale
from .errors import DimensionError, GeometryError, InputError
from .expressions import parse_expression
from .qkt_connection import QKTStructure, build_qkt, build_qkt_dim4
from .quaternionic import build_standard_hypercomplex, rotated_hypercomplex
from .tensor_core import (
    ConformalMetric,
    ConstantForm,
    ConstantMetric,
    CoordinatePatch,
    FDScheme,
    FormField,
)

KINDS = ("flat", "conformal_flat", "dim4_torsion", "hopf_local")

HOPF_FACTOR = "1/(x1^2+x2^2+x3^2+x4^2)"


@dataclass(frozen=True)
class ManifoldSpec:
    """A reproducible description of one example manifold and its sampling."""

    kind: str
    n: int
    f: str | None = None
    t_components: tuple | None = None
    seed: int = 42
    point_count: int = 20
    h: float = 1e-4
    h2: float = 1e-3
    tol_overrides: dict = field(default_factory=dict)
    j2_tilt_degrees: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown manifold kind {self.kind!r}")
        if self.n < 1:
            raise DimensionError(f"quaternionic dimension must be >= 1, got {self.n}")
        if self.kind == "conformal_flat" and self.f is None:
            raise InputError("conformal_flat needs a conformal factor expression --f")
        if self.kind == "dim4_torsion":
            if self.n != 1:
                raise DimensionError("dim4_torsion needs n = 1")
            if self.t_components is None or len(self.t_components) != 4:
                raise InputError("dim4_torsion needs 4 torsion 1-form components --t")
        if self.kind == "hopf_local" and self.n != 1:
            raise DimensionError("hopf_local is a dimension-4 model (n = 1)")
        if not math.isfinite(self.j2_tilt_degrees):
            raise InputError(f"j2_tilt_degrees must be finite, got {self.j2_tilt_degrees!r}")
        if self.point_count < 1:
            raise InputError("point_count must be positive")
        if self.seed < 0:
            # a seed below -1 starts the Halton sequence at an index <= 0,
            # which puts every sample point on the same corner of the box
            raise InputError(f"seed must be >= 0, got {self.seed}")
        self.scheme()

    @property
    def dim(self) -> int:
        return 4 * self.n

    def scheme(self) -> FDScheme:
        return FDScheme(h=self.h, h2=self.h2)

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """The coordinate box of the kind; the hopf_local box excludes the origin."""
        if self.kind == "hopf_local":
            return 0.7 * np.ones(self.dim), 1.3 * np.ones(self.dim)
        return -0.4 * np.ones(self.dim), 0.4 * np.ones(self.dim)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "f": self.f,
            "t_components": list(self.t_components) if self.t_components else None,
            "lo": list(self.box()[0]),
            "hi": list(self.box()[1]),
            "seed": self.seed,
            "point_count": self.point_count,
            "h": self.h,
            "h2": self.h2,
            "tol_overrides": dict(self.tol_overrides),
            "j2_tilt_degrees": self.j2_tilt_degrees,
        }


# ---------------------------------------------------------------------------
# seeded quasi-random interior points
# ---------------------------------------------------------------------------

def _first_primes(count: int) -> list:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _radical_inverse(index: int, base: int) -> float:
    result = 0.0
    scale = 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        result += digit * scale
        scale /= base
    return result


def halton_points(lo: np.ndarray,
                  hi: np.ndarray,
                  count: int,
                  seed: int,
                  margin: float) -> list:
    """Halton points scaled into the margin-shrunk box; the seed offsets the
    start index of the sequence, so runs are reproducible and distinct."""
    lo = np.asarray(lo, dtype=float) + margin
    hi = np.asarray(hi, dtype=float) - margin
    if not np.all(hi > lo):
        raise GeometryError("sampling margin leaves an empty interior")
    dim = len(lo)
    bases = _first_primes(dim)
    start = 100 * (seed + 1)
    points = []
    for k in range(count):
        u = np.array([
            _radical_inverse(start + k, bases[j]) for j in range(dim)
        ])
        points.append(lo + u * (hi - lo))
    return points


def sample_points(spec: ManifoldSpec) -> list:
    lo, hi = spec.box()
    return halton_points(lo, hi, spec.point_count, spec.seed, spec.scheme().margin)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _flat_patch(n: int, lo: np.ndarray, hi: np.ndarray) -> CoordinatePatch:
    return CoordinatePatch(n=n, lo=lo, hi=hi, metric=ConstantMetric(np.eye(4 * n)))


def _hypercomplex(spec: ManifoldSpec):
    if spec.j2_tilt_degrees:
        return rotated_hypercomplex(spec.n, spec.j2_tilt_degrees)
    return build_standard_hypercomplex(spec.n)


def _torsion_form(spec: ManifoldSpec) -> FormField:
    exprs = [parse_expression(text) for text in spec.t_components]

    def t_at(q, _exprs=exprs):
        return np.stack([e(q) for e in _exprs], axis=-1)

    return FormField(1, t_at, nested=False)


def build_flat(spec: ManifoldSpec, check_points: Sequence[np.ndarray] | None = None) -> QKTStructure:
    lo, hi = spec.box()
    scheme = spec.scheme()
    patch = _flat_patch(spec.n, lo, hi)
    hyper = _hypercomplex(spec)
    if spec.n == 1:
        zero = ConstantForm(1, np.zeros(4))
        return build_qkt_dim4(patch, hyper, zero, scheme)
    return build_qkt(patch, hyper, scheme, check_points=check_points)


def build_manifold(spec: ManifoldSpec,
                   check_points: Sequence[np.ndarray] | None = None) -> QKTStructure:
    """Build the structure described by ``spec``; raises NotQKTError when the
    compatibility checks fail (for example under a deliberate J2 tilt)."""
    lo, hi = spec.box()
    scheme = spec.scheme()
    if check_points is None:
        check_points = sample_points(spec)[: min(3, spec.point_count)]

    if spec.kind == "flat":
        return build_flat(spec, check_points)

    if spec.kind == "dim4_torsion":
        patch = _flat_patch(1, lo, hi)
        return build_qkt_dim4(patch, _hypercomplex(spec), _torsion_form(spec), scheme)

    # conformal kinds: the metric f g_0 over the flat patch, with the flat
    # structure on g_0 as the base that the conformal laws compare against
    f_text = HOPF_FACTOR if spec.kind == "hopf_local" else spec.f
    factor = ConformalFactor(parse_expression(f_text))
    if spec.n >= 2:
        flat = _flat_patch(spec.n, lo, hi)
        patch = replace(flat, metric=ConformalMetric(factor, flat.metric))
        struct = build_qkt(patch, _hypercomplex(spec), scheme, check_points=check_points)
        return replace(struct, base=conformal_ingredients(spec))

    return conformal_rescale(conformal_ingredients(spec), factor)


def conformal_ingredients(spec: ManifoldSpec) -> QKTStructure | None:
    """The flat base structure of a conformal kind, the ``base`` of the
    structure that :func:`build_manifold` returns; None for the other kinds."""
    if spec.kind not in ("conformal_flat", "hopf_local"):
        return None
    return build_flat(spec)
