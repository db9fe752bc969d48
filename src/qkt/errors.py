"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all geometric/numeric failures."""


class BoundaryError(GeometryError):
    """A finite-difference stencil would leave the coordinate patch."""


class DimensionError(GeometryError):
    """Operation called outside its valid (quaternionic) dimension."""


class DegenerateMetricError(GeometryError):
    """Metric not positive definite enough to work with (min eigenvalue < 1e-8)."""


class DegreeError(GeometryError):
    """Form degree out of range for the requested operation."""


class InputError(GeometryError, ValueError):
    """A user-supplied setting is out of range (scheme, box, manifold spec, tolerance)."""


class NotQKTError(GeometryError):
    """The compatibility condition for a torsion connection failed.

    Carries the worst residual, to show how badly the candidate structure
    misses the conditions, and each check's residual by name in ``details``
    ("algebra", and "eq4" for n >= 2); the caller counts the points checked.
    """

    def __init__(self, message: str, residual: float, details: dict):
        super().__init__(message)
        self.residual = float(residual)
        self.details = details


class ExpressionError(ValueError):
    """Parse or evaluation failure of a user-supplied expression.

    ``offset`` is the byte offset into the source text for parse errors,
    or ``None`` for evaluation-time failures.
    """

    def __init__(self, message: str, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset
