"""Single-point reference implementations that the tests compare the library with.

Each one computes a quantity by its textbook formula, one structure or one
form at a time, on a single point: the Kaehler forms, the codifferential,
the Lee forms and cross Lee forms from their own stencils, K from them,
the twisted derivative of one 2-form, a Gram-Schmidt frame, the Ricci data
of a structure, and thin field wrappers around the array kernels (tensor
fields, their covariant derivative, the Levi-Civita connection field).
The library computes the same objects stacked and over point arrays.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from qkt.errors import DegenerateMetricError, DegreeError, DimensionError
from qkt.quaternionic import (
    CYCLIC,
    QuaternionicHermitianData,
    frame_trace_pair,
    j_apply_form,
    j_apply_oneform,
    project_plus_3form,
)
from qkt.tensor_core import (
    MIN_METRIC_EIGENVALUE,
    ConnectionField,
    FDScheme,
    FormField,
    covariant_derivative_array,
    exterior_derivative,
    gradient,
    hodge_star_array,
    levi_civita,
    trace_codifferential,
    wedge_arrays,
)


@dataclass(frozen=True)
class TensorField:
    """A tensor field: index signature plus a point evaluator."""

    signature: str
    func: Callable[[np.ndarray], np.ndarray]
    nested: bool = False

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(p), dtype=float)


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



def covariant_derivative(conn: ConnectionField,
                         tensor: TensorField,
                         p: np.ndarray,
                         scheme: FDScheme) -> TensorFieldValue:
    """Covariant derivative of a tensor field; new index is covariant, first."""
    return TensorFieldValue("d" + tensor.signature, nabla_array(conn(p), tensor, p, scheme),
                            np.asarray(p, dtype=float))


def nabla_array(gamma: np.ndarray, tensor: TensorField, p: np.ndarray,
                scheme: FDScheme) -> np.ndarray:
    """nabla(tensor) at ``p`` under the connection ``gamma`` there, from the
    tensor field's own stencil."""
    grad = gradient(tensor.func, p, scheme, nested=tensor.nested)
    return covariant_derivative_array(gamma, tensor.signature, tensor(p), grad)


def levi_civita_field(patch, scheme: FDScheme) -> ConnectionField:
    """The Levi-Civita connection of the patch metric as a field."""
    return ConnectionField(lambda p: levi_civita(patch.metric, p, scheme), nested=True)


def wedge(a: FormField, b: FormField) -> FormField:
    def wedge_at(p, _a=a, _b=b):
        return wedge_arrays(_a(p), _b(p))

    return FormField(a.degree + b.degree, wedge_at, nested=a.nested or b.nested)


def hodge_star_4d(omega: FormField,
                  metric: Callable[[np.ndarray], np.ndarray],
                  orientation: int = 1) -> FormField:
    """Metric/orientation-compatible star of a form field, dimension 4."""

    def star_at(p, _omega=omega, _metric=metric, _ori=orientation):
        return hodge_star_array(_omega(p), np.asarray(_metric(p), dtype=float), _ori)

    return FormField(4 - omega.degree, star_at, nested=omega.nested)


def codifferential(omega: FormField,
                   metric: Callable[[np.ndarray], np.ndarray],
                   p: np.ndarray,
                   scheme: FDScheme) -> np.ndarray:
    """delta(omega) at the points ``p``: minus the metric trace of nabla^g omega."""
    if omega.degree < 1:
        raise DegreeError("the codifferential needs a form of degree >= 1")
    gamma = levi_civita(metric, p, scheme)
    nabla = nabla_array(gamma, TensorField("d" * omega.degree, omega.func, omega.nested), p, scheme)
    ginv = np.linalg.inv(np.asarray(metric(p), dtype=float))
    return trace_codifferential(nabla, ginv, degree=omega.degree)


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


def kaehler_form(data: QuaternionicHermitianData, alpha: int, p: np.ndarray) -> np.ndarray:
    """F_a(X, Y) = g(X, J_a Y) as an antisymmetric matrix."""
    return data.metric_at(p) @ data.j_at(alpha, p)


def kaehler_field(data: QuaternionicHermitianData, alpha: int) -> FormField:
    return FormField(2, lambda p: kaehler_form(data, alpha, p), nested=False)


def lee_form(data: QuaternionicHermitianData,
             alpha: int,
             p: np.ndarray,
             scheme: FDScheme) -> np.ndarray:
    """Lee form theta_a = (delta F_a) o J_a at ``p``."""
    data.patch.require_interior(p, scheme.h)
    delta_f = codifferential(kaehler_field(data, alpha), data.patch.metric, p, scheme)
    return delta_f @ data.j_at(alpha, p)


def cross_lee_form(data: QuaternionicHermitianData,
                   alpha: int,
                   beta: int,
                   p: np.ndarray,
                   scheme: FDScheme) -> np.ndarray:
    """theta_{a,b}(X) = -1/2 sum_i dF_a^+(X, e_i, J_b e_i)."""
    data.patch.require_interior(p, scheme.margin)
    dF = exterior_derivative(kaehler_field(data, alpha), scheme)(p)
    dF_plus = project_plus_3form(dF, data.j_at(alpha, p))
    ginv = np.linalg.inv(data.metric_at(p))
    return -0.5 * frame_trace_pair(dF_plus, ginv, data.j_at(beta, p))


def compute_K(data: QuaternionicHermitianData,
              alpha: int,
              p: np.ndarray,
              scheme: FDScheme) -> np.ndarray:
    """The compatibility 1-form K_a = (J_b theta_a + theta_{a,c}) / (1-n)."""
    if data.n < 2:
        raise DimensionError("K is defined for n >= 2; dimension 4 uses the star path")
    _, b, c = CYCLIC[alpha]
    jb_theta = j_apply_oneform(data.j_at(b, p), lee_form(data, alpha, p, scheme))
    return (jb_theta + cross_lee_form(data, alpha, c, p, scheme)) / (1.0 - data.n)


def dc_3form(data: QuaternionicHermitianData,
             alpha: int,
             two_form: FormField,
             p: np.ndarray,
             scheme: FDScheme) -> np.ndarray:
    """The twisted derivative -(d psi)(J_a ., J_a ., J_a .) of a 2-form field.

    Applied to F_b this yields d_a F_b.
    """
    d_psi = exterior_derivative(two_form, scheme)(p)
    return j_apply_form(data.j_at(alpha, p), d_psi)


@dataclass(frozen=True)
class RicciData:
    """The curvature traces of a dimension-4 structure (K only for n = 1)."""

    rho: np.ndarray          # (3, d, d) Ricci forms
    Ric: np.ndarray          # (d, d), torsion connection
    Ric_g: np.ndarray        # (d, d), Levi-Civita
    Scal: float
    K: np.ndarray | None     # (d, d) sp(1) trace, n = 1 only
    Scal_K: float | None


def ricci_data(ctx) -> RicciData:
    """The Ricci data of a structure at the single-point context ``ctx``."""
    scal = float(np.einsum("jk,jk->", ctx.ginv, ctx.Ric))
    K = None
    scal_k = None
    if ctx.struct.n == 1:
        K = ctx.P.sum(axis=0)
        scal_k = float(np.einsum("jk,jk->", ctx.ginv, K))
    return RicciData(rho=ctx.rho, Ric=ctx.Ric, Ric_g=ctx.Ric_g, Scal=scal,
                     K=K, Scal_K=scal_k)
