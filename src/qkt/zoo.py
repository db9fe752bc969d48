"""Example-manifold constructors and seeded interior sampling."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .conformal import ConformalFactor, conformal_rescale
from .errors import DimensionError, GeometryError, InputError
from .expressions import parse_expression
from .qkt_connection import CHECK_POINTS, QKTStructure, check_at
from .quaternionic import build_standard_hypercomplex, rotated_hypercomplex
from .tensor_core import ConstantMetric, CoordinatePatch, FDScheme, FormField

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
        # an option the kind ignores would still be recorded in the report's spec
        if self.f is not None and self.kind != "conformal_flat":
            raise InputError(f"{self.kind} takes no conformal factor --f")
        if self.t_components is not None and self.kind != "dim4_torsion":
            raise InputError(f"{self.kind} takes no torsion 1-form components --t")
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
    """The van der Corput radical inverse of one index in one base, its digits lowest first."""
    result, scale = 0.0, 1.0 / base
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
    start = 100 * (seed + 1)
    if start + count - 1 > np.iinfo(np.int64).max:
        # a run's indices stay in int64, so any 64-bit implementation of the sequence replays it
        raise InputError(f"seed {seed} puts the Halton indices past the 64-bit range")
    # a few points of a few coordinates each: a plain loop beats array calls
    bases = _first_primes(len(lo))
    return [lo + np.array([_radical_inverse(index, base) for base in bases]) * (hi - lo)
            for index in range(start, start + count)]


def sample_points(spec: ManifoldSpec) -> list:
    lo, hi = spec.box()
    return halton_points(lo, hi, spec.point_count, spec.seed, spec.scheme().margin)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _hypercomplex(spec: ManifoldSpec):
    if spec.j2_tilt_degrees:
        return rotated_hypercomplex(spec.n, spec.j2_tilt_degrees)
    return build_standard_hypercomplex(spec.n)


def _torsion_form(spec: ManifoldSpec) -> FormField:
    exprs = [parse_expression(text) for text in spec.t_components]

    def t_at(q, _exprs=exprs):
        return np.stack([e(q) for e in _exprs], axis=-1)

    return FormField(1, t_at, nested=False)


def _flat(spec: ManifoldSpec, t_form: FormField | None = None) -> QKTStructure:
    """The unchecked structure on the flat metric over the box of ``spec``; for
    n = 1 with torsion the dual of ``t_form`` (zero by default)."""
    lo, hi = spec.box()
    patch = CoordinatePatch(n=spec.n, lo=lo, hi=hi, metric=_flat_metric(spec.dim))
    return QKTStructure(patch, _hypercomplex(spec), spec.scheme(), t_form)


@functools.cache
def _flat_metric(dim: int) -> ConstantMetric:
    """The flat g_0, one per dimension and process, whose first-order maps are built once."""
    return ConstantMetric(np.eye(dim))


def build_structure(spec: ManifoldSpec) -> QKTStructure:
    """The structure described by ``spec``, unchecked for every n: :func:`build_manifold`
    or ``run_suite`` checks it at sample points."""
    if spec.kind in ("flat", "dim4_torsion"):
        return _flat(spec, _torsion_form(spec) if spec.kind == "dim4_torsion" else None)
    # conformal kinds: the metric f g_0 over the flat patch, with the flat
    # structure on g_0 as the base that the conformal laws compare against
    f_text = HOPF_FACTOR if spec.kind == "hopf_local" else spec.f
    return conformal_rescale(_flat(spec), ConformalFactor(parse_expression(f_text)))


def build_manifold(spec: ManifoldSpec,
                   check_points: Sequence[np.ndarray] | None = None) -> QKTStructure:
    """Build the structure described by ``spec`` and check it in one context on
    ``check_points`` (the first CHECK_POINTS sample points by default); a failed
    check (under a deliberate J2 tilt, for example) raises NotQKTError."""
    points = sample_points(spec)[:CHECK_POINTS] if check_points is None else check_points
    return check_at(build_structure(spec), points)


def conformal_ingredients(spec: ManifoldSpec) -> QKTStructure | None:
    """The flat base structure of a conformal kind, built and checked on its own
    at the patch center; equal to the ``base`` of :func:`build_manifold`'s
    structure.  None for the other kinds."""
    if spec.kind not in ("conformal_flat", "hopf_local"):
        return None
    return check_at(_flat(spec))
