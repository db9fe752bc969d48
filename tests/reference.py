"""Single-point reference implementations that the tests compare the library with.

Each one computes a quantity by its textbook formula, one structure or one
form at a time, on a single point: the Kaehler forms, the codifferential,
the Lee forms and cross Lee forms from their own stencils, K from them,
the eq4 existence defect by its own formula, the twisted derivative of one
2-form, a Gram-Schmidt frame, the step-h2 difference of a context layer,
the Ricci data of a structure, the Einstein-Weyl deviation of its Weyl
connection, the first-order and sp(1) layers of a context from the
expanded nabla^g F_a and nabla J_a, the torsion and sp(1) forms as one
least-squares solve of their defining linear system, and thin field wrappers
around the array kernels (tensor fields, the exterior derivative of a form
field, the covariant derivative, the Levi-Civita connection field, the
torsion and connection of a built structure as fields, the Hodge star at
a metric), and an unchecked structure of a patch and a triple for the
helpers to read.  The library computes the same objects stacked and over
point arrays.  At the end: J on pairs of slots with the six-pass type
projector, and the einsum formulas of the contractions that the library
makes as batched matmuls.
"""

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qkt.curvature import curvature_tensor, ricci_tensor
from qkt.errors import DegenerateMetricError, DegreeError, DimensionError
from qkt.qkt_connection import QKTStructure
from qkt.quaternionic import (
    CYC_B,
    CYC_C,
    CYCLIC,
    frame_trace_pair,
    j_apply_form,
    j_apply_oneform,
    project_plus_3form,
)
from qkt.tensor_core import (
    EPSILON_4,
    MIN_METRIC_EIGENVALUE,
    FDScheme,
    FormField,
    antisymmetrized_gradient,
    covariant_derivative_array,
    gradient,
    hodge_star_array,
    lambda3,
    levi_civita,
    raise_last,
    trace_codifferential,
    wedge_arrays,
)
from qkt.zoo import _first_primes


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



def exterior_derivative(omega: FormField, scheme: FDScheme) -> FormField:
    """d(omega); the result's evaluations run finite differences."""

    def d_at(p, _omega=omega, _scheme=scheme):
        k = _omega.degree
        d = np.shape(p)[-1]
        if k >= d:
            raise DegreeError(f"cannot raise degree {k} past the dimension {d}")
        return antisymmetrized_gradient(
            gradient(_omega.func, p, _scheme, nested=_omega.nested), degree=k)

    return FormField(omega.degree + 1, d_at, nested=True)


def torsion_field(struct) -> FormField:
    """The torsion 3-form of a built structure as a field."""
    return FormField(3, lambda q: struct.at(q).T, nested=struct.nested_torsion)


def connection_field(struct) -> TensorField:
    """The torsion connection Gamma[l, i, j] of a built structure as a field."""
    return TensorField("udd", lambda q: struct.at(q).Gamma, nested=True)


def covariant_derivative(conn: TensorField,
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


def levi_civita_field(patch, scheme: FDScheme) -> TensorField:
    """The Levi-Civita connection of the patch metric as a field."""
    return TensorField("udd", lambda p: levi_civita(patch.metric, p, scheme), nested=True)


def wedge(a: FormField, b: FormField) -> FormField:
    def wedge_at(p, _a=a, _b=b):
        return wedge_arrays(_a(p), _b(p))

    return FormField(a.degree + b.degree, wedge_at, nested=a.nested or b.nested)


def hodge_star(arr: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Hodge star of the form components ``arr`` at the metric ``g`` itself."""
    g = np.asarray(g, dtype=float)
    return hodge_star_array(arr, np.linalg.inv(g), np.sqrt(np.linalg.det(g)))


def hodge_star_4d(omega: FormField,
                  metric: Callable[[np.ndarray], np.ndarray]) -> FormField:
    """Metric-compatible star of a form field, dimension 4."""

    def star_at(p, _omega=omega, _metric=metric):
        return hodge_star(_omega(p), _metric(p))

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


def unchecked(patch, hyper) -> QKTStructure:
    """The structure on ``patch`` and ``hyper``, unchecked (zero torsion 1-form
    for n = 1): the patch and triple that the helpers below read, and a fresh
    context on every ``at``."""
    return QKTStructure(patch, hyper, FDScheme())


def nested_difference(struct, x: np.ndarray, layer: str) -> np.ndarray:
    """The step-h2 central difference [..., a, *value] of the context layer
    ``layer`` at the points ``x``, read off a fresh context on their stencil."""
    return gradient(lambda q: getattr(struct.at(q), layer), x, struct.scheme, True)


def varying_base(p: np.ndarray) -> np.ndarray:
    """A base metric that is not constant: (1 + 0.3 sin x2) I + 0.1 p (x) p."""
    dim = np.shape(p)[-1]
    return ((1.0 + 0.3 * np.sin(p[..., 1]))[..., None, None] * np.eye(dim)
            + 0.1 * p[..., :, None] * p[..., None, :])


def j_at(struct, alpha: int, p: np.ndarray) -> np.ndarray:
    """The almost complex structure J_alpha of ``struct`` at the points ``p``."""
    return struct.hyper.matrices(p)[..., alpha, :, :]


def kaehler_form(struct, alpha: int, p: np.ndarray) -> np.ndarray:
    """F_a(X, Y) = g(X, J_a Y) as an antisymmetric matrix."""
    return struct.patch.metric_at(p) @ j_at(struct, alpha, p)


def kaehler_field(struct, alpha: int) -> FormField:
    return FormField(2, lambda p: kaehler_form(struct, alpha, p), nested=False)


def lee_form(struct,
             alpha: int,
             p: np.ndarray,
             scheme: FDScheme) -> np.ndarray:
    """Lee form theta_a = (delta F_a) o J_a at ``p``."""
    struct.patch.require_interior(p, scheme.h)
    delta_f = codifferential(kaehler_field(struct, alpha), struct.patch.metric, p, scheme)
    return delta_f @ j_at(struct, alpha, p)


def cross_lee_form(struct,
                   alpha: int,
                   beta: int,
                   p: np.ndarray,
                   scheme: FDScheme) -> np.ndarray:
    """theta_{a,b}(X) = -1/2 sum_i dF_a^+(X, e_i, J_b e_i)."""
    struct.patch.require_interior(p, scheme.margin)
    dF = exterior_derivative(kaehler_field(struct, alpha), scheme)(p)
    dF_plus = project_plus_3form(dF, j_at(struct, alpha, p))
    ginv = np.linalg.inv(struct.patch.metric_at(p))
    return -0.5 * frame_trace_pair(dF_plus, ginv, j_at(struct, beta, p))


def compute_K(struct,
              alpha: int,
              p: np.ndarray,
              scheme: FDScheme) -> np.ndarray:
    """The compatibility 1-form K_a = (J_b theta_a + theta_{a,c}) / (1-n)."""
    if struct.n < 2:
        raise DimensionError("K is defined for n >= 2; dimension 4 uses the star path")
    _, b, c = CYCLIC[alpha]
    jb_theta = j_apply_oneform(j_at(struct, b, p), lee_form(struct, alpha, p, scheme))
    return (jb_theta + cross_lee_form(struct, alpha, c, p, scheme)) / (1.0 - struct.n)


def pack_3form(arr: np.ndarray) -> np.ndarray:
    """The components [..., C(d, 3)] of arr[..., d, d, d] over the sorted
    triples i < j < k, in the order of ``tensor_core.lambda3``."""
    i, j, k = lambda3(arr.shape[-1]).first
    return arr[..., i, j, k]


def existence_defect(ctx) -> float:
    """The eq4 existence defect at the single-point context ``ctx`` (n >= 2),
    by its own formula: the worst entry of d_a F_a^+ - d_b F_b^+ - (K_a ^ F_b
    - J_b K_b ^ F_a - K_b ^ F_c + J_a K_a ^ F_c) / 2 over the cyclic triples,
    on its sorted components (:func:`pack_3form`), which hold every entry up to
    sign when the F_a are 2-forms, that is for a hermitian metric."""
    K, J, F, dcF_plus = ctx.K, ctx.J, ctx.F, ctx.dcF_plus
    defect = 0.0
    for a, b, c in CYCLIC:
        rhs = (wedge_arrays(K[a], F[b]) - wedge_arrays(j_apply_oneform(J[b], K[b]), F[a])
               - wedge_arrays(K[b], F[c]) + wedge_arrays(j_apply_oneform(J[a], K[a]), F[c]))
        defect = max(defect, np.max(np.abs(dcF_plus[a] - dcF_plus[b] - 0.5 * pack_3form(rhs))))
    return float(defect)


def dc_3form(struct,
             alpha: int,
             two_form: FormField,
             p: np.ndarray,
             scheme: FDScheme) -> np.ndarray:
    """The twisted derivative -(d psi)(J_a ., J_a ., J_a .) of a 2-form field.

    Applied to F_b this yields d_a F_b.
    """
    d_psi = exterior_derivative(two_form, scheme)(p)
    return j_apply_form(j_at(struct, alpha, p), d_psi)


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


def einstein_weyl_deviation(ctx) -> float:
    """|Sym(Ric^W) - (tr Sym(Ric^W) / 4) g| of the Weyl connection ``ctx.gamma_w``
    at the single-point context ``ctx``."""
    ric_w = ricci_tensor(curvature_tensor(ctx.gamma_w, ctx.derivative("gamma_w"), ctx.g))
    sym_ric_w = 0.5 * (ric_w + ric_w.T)
    trace_w = np.einsum("jk,jk->", ctx.ginv, sym_ric_w)
    return float(np.max(np.abs(sym_ric_w - (trace_w / 4.0) * ctx.g)))


# ---------------------------------------------------------------------------
# the first-order and sp(1) layers of a context by their expanded formulas
# ---------------------------------------------------------------------------

def expanded_first_order(ctx) -> tuple:
    """(theta, theta_cross, dcF_plus) of the context ``ctx`` from dF[..., a, alpha]
    with the derivative axis first, theta traced from nabla^g F_a built in full;
    dcF_plus is the dense (..., 3, d, d, d) stack, by the full-array kernels."""
    J, g = ctx.J, ctx.g
    ginv = np.linalg.inv(g)
    dF = ctx.dg[..., :, None, :, :] @ J[..., None, :, :, :]
    if not ctx.struct.constant_layer("J"):
        dF += g[..., None, None, :, :] @ ctx.dJ
    nabla_f = covariant_derivative_array(ctx.gamma_g, "dd", g[..., None, :, :] @ J, dF)
    theta = -j_apply_oneform(J, trace_codifferential(nabla_f, ginv, degree=2))
    dF_plus = project_plus_3form(antisymmetrized_gradient(np.moveaxis(dF, -4, -3), degree=2), J)
    theta_cross = -0.5 * frame_trace_pair(dF_plus[..., None, :, :, :], ginv, J[..., None, :, :, :])
    return theta, theta_cross, j_apply_form(J, dF_plus)


def extract_sp1(J: np.ndarray, nabla_j: np.ndarray) -> tuple:
    """(omega[..., alpha], eq1 residual): nabla J_a = -omega_b (x) J_c + omega_c (x) J_b
    solved by least squares on the expanded nabla_j[..., a, i, k, j] = (nabla_i J_a)[k, j],
    each omega from both equations that contain it; the residual is the worst
    defect of the fit and the worst disagreement of the two recoveries."""
    dim, points = J.shape[-1], J.shape[:-3]
    flat = J.reshape(points + (3, dim * dim))
    design = np.stack([-flat[..., CYC_C, :], flat[..., CYC_B, :]], axis=-1)
    rhs = np.swapaxes(nabla_j.reshape(points + (3, dim, dim * dim)), -2, -1)  # [..., a, kj, i]
    design_t = np.swapaxes(design, -1, -2)
    coeffs = np.linalg.solve(design_t @ design, design_t @ rhs)  # [..., a, 2, i]
    residual = np.max(np.abs(design @ coeffs - rhs), axis=(-3, -2, -1))
    from_b, from_c = coeffs[..., CYC_C, 0, :], coeffs[..., CYC_B, 1, :]
    residual = np.maximum(residual, np.max(np.abs(from_b - from_c), axis=(-2, -1)))
    return (from_b + from_c) / 2.0, residual


def expanded_sp1(ctx) -> tuple:
    """(omega, eq1) of the context ``ctx`` from nabla J_a built in full."""
    return extract_sp1(ctx.J, covariant_derivative_array(ctx.Gamma, "ud", ctx.J, ctx.dJ))


def expanded_d_omega(ctx) -> np.ndarray:
    """d omega[..., a, alpha] of ``ctx``: for a constant triple the solve of the
    expanded [d Gamma, J_a], for a varying one the step-h2 difference of
    :func:`expanded_sp1` on fresh stencil contexts."""
    if not ctx.struct.constant_layer("J"):
        return gradient(lambda q: expanded_sp1(ctx.struct.at(q))[0], ctx.x, ctx.struct.scheme,
                        True)
    grad = ctx.derivative("Gamma")
    J = np.broadcast_to(ctx.J[..., None, :, :, :], grad.shape[:-3] + ctx.J.shape[-3:])
    zero = np.broadcast_to(0.0, J.shape[:-3] + J.shape[-1:] + J.shape[-3:])
    return extract_sp1(J, covariant_derivative_array(grad, "ud", J, zero))[0]


# ---------------------------------------------------------------------------
# the torsion and the sp(1) forms as one linear least-squares solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorsionSolve:
    """The least-squares solution of the torsion system at each point of a context."""

    T: np.ndarray            # (..., d, d, d) the solved 3-form
    omega: np.ndarray        # (..., 3, d) the solved sp(1) forms
    residual: np.ndarray     # (...) the worst |defect| of the solution
    kernel: np.ndarray       # (...) the dimension of the system's null space
    own_defect: np.ndarray   # (...) the worst |defect| of the context's own (T, omega)


def three_form_basis(d: int) -> tuple:
    """(E, index): E[e, i, j, k] the 3-forms e^i ^ e^j ^ e^k over the triples
    i < j < k as skew arrays, and the index arrays (i, j, k) of those triples,
    which read a 3-form's coordinates in that basis."""
    triples = list(itertools.combinations(range(d), 3))
    basis = np.zeros((len(triples), d, d, d))
    # the permutations of three slots in itertools order, with their signs
    for perm, sign in zip(itertools.permutations(range(3)), (1, -1, -1, 1, 1, -1)):
        for e, triple in enumerate(triples):
            basis[(e,) + tuple(triple[i] for i in perm)] = sign
    return basis, tuple(np.array(triples).T)


def solve_torsion(ctx) -> TorsionSolve:
    """Solve nabla^g J_a + [T12/2, J_a] = -omega_b (x) J_c + omega_c (x) J_b for
    (T in Lambda^3, omega) by lstsq at each point of ``ctx``, with nabla^g J and
    the T columns from the library's covariant_derivative_array and raise_last.

    The paper's uniqueness theorem says the null space is 0 for n >= 2, so the
    solution is the context's T and omega; in dimension 4 it is 4 (the free
    1-form t), and only the defect of the context's own pair says anything."""
    d, points = ctx.x.shape[-1], ctx.x.shape[:-1]
    basis, index = three_form_basis(d)
    m = len(basis)
    unit_omega = np.eye(3 * d).reshape(3 * d, 3, d)
    ginv, gamma = ctx.ginv.reshape(-1, d, d), ctx.gamma_g.reshape(-1, d, d, d)
    J = np.broadcast_to(ctx.J, points + (3, d, d)).reshape(-1, 3, d, d)
    dJ = np.broadcast_to(ctx.dJ, points + (d, 3, d, d)).reshape(-1, d, 3, d, d)
    own_T, own_omega = ctx.T.reshape(-1, d, d, d), ctx.omega.reshape(-1, 3 * d)
    out = {key: [] for key in ("T", "omega", "residual", "kernel", "own_defect")}
    for p in range(len(J)):
        # column e: the Gamma-terms of nabla J_a under the connection T12_e / 2
        T12 = raise_last(np.broadcast_to(ginv[p].T, (m, d, d)), basis)
        T_cols = covariant_derivative_array(0.5 * T12, "ud", np.broadcast_to(J[p], (m, 3, d, d)),
                                            np.zeros((m, d, 3, d, d)))
        omega_cols = (unit_omega[:, CYC_C, :, None, None] * J[p][CYC_B][None, :, None]
                      - unit_omega[:, CYC_B, :, None, None] * J[p][CYC_C][None, :, None])
        A = np.concatenate([T_cols.reshape(m, -1), -omega_cols.reshape(3 * d, -1)]).T
        b = -covariant_derivative_array(gamma[p:p + 1], "ud", J[p:p + 1], dJ[p:p + 1]).ravel()
        x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        own = np.concatenate([own_T[p][index], own_omega[p]])
        out["T"].append(np.tensordot(x[:m], basis, axes=1))
        out["omega"].append(x[m:].reshape(3, d))
        out["residual"].append(np.max(np.abs(A @ x - b)))
        out["kernel"].append(A.shape[1] - rank)
        out["own_defect"].append(np.max(np.abs(A @ own - b)))
    return TorsionSolve(**{key: np.reshape(value, points + np.shape(value[0]))
                           for key, value in out.items()})


# ---------------------------------------------------------------------------
# first derivatives of g and F from their products, and Halton points
# ---------------------------------------------------------------------------

def g_and_F_difference(struct, x: np.ndarray) -> tuple:
    """(dg[..., a, i, j], dF[..., alpha, a, i, j]) at the points ``x``: one
    step-h stencil of g and the three F_a = g J_a, stacked and differenced."""

    def g_and_F(q):
        ctx = struct.at(q)
        return np.concatenate([ctx.g[..., None, :, :], ctx.F], axis=-3)

    both = gradient(g_and_F, x, struct.scheme)
    return both[..., 0, :, :], np.swapaxes(both[..., 1:, :, :], -4, -3)


def radical_inverse(index: int, base: int) -> float:
    """The van der Corput radical inverse of one index, its digits lowest first."""
    result = 0.0
    scale = 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        result += digit * scale
        scale /= base
    return result


def halton_points_loop(lo: np.ndarray, hi: np.ndarray, count: int, seed: int,
                       margin: float) -> list:
    """``zoo.halton_points`` by one radical inverse per point and coordinate."""
    lo = np.asarray(lo, dtype=float) + margin
    hi = np.asarray(hi, dtype=float) - margin
    bases = _first_primes(len(lo))
    start = 100 * (seed + 1)
    return [lo + np.array([radical_inverse(start + k, base) for base in bases]) * (hi - lo)
            for k in range(count)]


# ---------------------------------------------------------------------------
# J on pairs of slots, and the six-pass type projector
# ---------------------------------------------------------------------------

def j_apply_pair(J: np.ndarray, arr: np.ndarray, slots: tuple, upper: bool = False) -> np.ndarray:
    """J on slots (i, j), no sign: arr(.., J X_i, .., J X_j, ..); ``upper``: slot i is an upper index."""
    r = arr.ndim - (J.ndim - 2)
    i, j = (arr.ndim - r + slot for slot in slots)
    # the two slots last, J^T (or J) @ x @ J, then the slots back in place
    order = [axis for axis in range(arr.ndim) if axis not in (i, j)] + [i, j]
    J = J.reshape(J.shape[:-2] + (1,) * (r - 2) + J.shape[-2:])
    out = (J if upper else np.swapaxes(J, -1, -2)) @ arr.transpose(order) @ J
    return out.transpose(np.argsort(order))


def project_plus_six_pass(psi: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The (1,2)+(2,1) part of a 3-form, (3 psi + J on each pair of slots) / 4, in six passes."""
    out = 3.0 * psi
    for slots in ((0, 1), (0, 2), (1, 2)):
        out += j_apply_pair(J, psi, slots)
    return 0.25 * out


# ---------------------------------------------------------------------------
# einsum formulas of the library's matmul contractions
# ---------------------------------------------------------------------------

def christoffel_einsum(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    lowered = 0.5 * (dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1))
    return np.einsum("...lm,...ijm->...lij", ginv, lowered)


def torsion_12_einsum(T: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """The (1,2) torsion T12[..., k, i, j] of the 3-form T."""
    return np.einsum("...ijm,...mk->...kij", T, ginv)


def lowered_connection_einsum(gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The connection of the conformal law, lowered: [..., i, j, m]."""
    return np.einsum("...lij,...lm->...ijm", gamma, g)


def curvature_einsum(gamma: np.ndarray, d_gamma: np.ndarray, g: np.ndarray) -> tuple:
    """(R13, R4) of the connection ``gamma`` with gradient ``d_gamma``."""
    R13 = (np.einsum("...iljk->...lkij", d_gamma) - np.einsum("...jlik->...lkij", d_gamma)
           + np.einsum("...lim,...mjk->...lkij", gamma, gamma)
           - np.einsum("...ljm,...mik->...lkij", gamma, gamma))
    return R13, np.einsum("...lkij,...lv->...ijkv", R13, g)


def ricci_einsum(R13: np.ndarray) -> np.ndarray:
    return np.einsum("...akaj->...jk", R13)


def curvature_commutator_einsum(R13: np.ndarray, J: np.ndarray) -> np.ndarray:
    """[R(X, Y), J_a][..., a, l, k, i, j], the eq11 commutator."""
    return (np.einsum("...lmij,...amk->...alkij", R13, J)
            - np.einsum("...alm,...mkij->...alkij", J, R13))


def hodge_star_einsum(arr: np.ndarray, ginv: np.ndarray, vol: np.ndarray, k: int) -> np.ndarray:
    """The dimension-4 star of k-forms: each slot raised, then epsilon contracted."""
    slots = "abcd"[:k]
    raised = arr
    for s in range(k):
        raised = np.einsum(f"...mz,...{slots[:s]}m{slots[s + 1:]}->...{slots[:s]}z{slots[s + 1:]}",
                           ginv, raised)
    vol = np.reshape(vol, np.shape(vol) + (1,) * (4 - k))
    return vol * np.einsum(f"...{slots},abcd->...{'abcd'[k:]}", raised, EPSILON_4) \
        / np.prod(np.arange(1, k + 1))


def nijenhuis_bracket_einsum(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    return (np.einsum("...mi,...mkj->...kij", J, dJ) - np.einsum("...mj,...mki->...kij", J, dJ)
            + np.einsum("...km,...jmi->...kij", J, dJ) - np.einsum("...km,...imj->...kij", J, dJ))


def nijenhuis_eq2_einsum(J: np.ndarray, nab_j: np.ndarray, T12: np.ndarray) -> np.ndarray:
    """4 T^{0,2}_a plus the nabla-J terms of the bracket formula (eq2)."""
    t02 = 0.25 * (T12 - j_apply_pair(J, T12, (1, 2)) + j_apply_pair(J, T12, (0, 1), upper=True)
                  + j_apply_pair(J, T12, (0, 2), upper=True))
    return (4.0 * t02
            + np.einsum("...mi,...mkj->...kij", J, nab_j) - np.einsum("...mj,...mki->...kij", J, nab_j)
            - np.einsum("...jkm,...mi->...kij", nab_j, J) + np.einsum("...ikm,...mj->...kij", nab_j, J))


def nijenhuis_via_connection_einsum(J: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The Nijenhuis tensors rebuilt from the Lee-form difference 1-forms A[..., a]."""
    JA = j_apply_oneform(J, A)
    Jb, Jc = J[..., [1, 2, 0], :, :], J[..., [2, 0, 1], :, :]
    return (np.einsum("...j,...ki->...kij", A, Jb) - np.einsum("...i,...kj->...kij", A, Jb)
            - np.einsum("...j,...ki->...kij", JA, Jc) + np.einsum("...i,...kj->...kij", JA, Jc))
