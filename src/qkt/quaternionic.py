"""Almost hypercomplex structures and their first-order invariants.

Carries the triple of anticommuting almost complex structures, the
associated Kaehler 2-forms F_a(X, Y) = g(X, J_a Y), Lee forms, cross Lee
forms, type projectors for 3-forms and torsion tensors, and the Nijenhuis
tensor computed from coordinate Lie brackets.

The action of an almost complex structure on an r-form is
``(J psi)(X_1, ..., X_r) = (-1)^r psi(J X_1, ..., J X_r)``; on 1-forms in
particular ``(J psi)(X) = -psi(J X)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor_core import (
    CoordinatePatch,
    FDScheme,
    FormField,
    codifferential,
    exterior_derivative,
    gradient,
)

# cyclic permutations (alpha, beta, gamma) of (1, 2, 3), 0-indexed
CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# quaternion action on one coordinate block: J1: e1->e2, e3->e4;
# J2: e1->e3, e2->-e4; J3 = J1 J2: e1->e4, e2->e3  (columns are images)
_J1_BLOCK = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])
_J2_BLOCK = np.array([
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])
_J3_BLOCK = _J1_BLOCK @ _J2_BLOCK


@dataclass(frozen=True)
class HypercomplexField:
    """Three almost complex structure fields J1, J2, J3."""

    funcs: tuple
    nested: bool = False

    def matrices(self, p: np.ndarray) -> np.ndarray:
        """All three structures at ``p``, stacked as J[alpha, k, j]."""
        return np.stack([np.asarray(f(p), dtype=float) for f in self.funcs])

    def matrix(self, alpha: int, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.funcs[alpha](p), dtype=float)


def build_standard_hypercomplex(n: int) -> HypercomplexField:
    """The constant hypercomplex structure of H^n, block-diagonal per quadruple."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    mats = []
    for block in (_J1_BLOCK, _J2_BLOCK, _J3_BLOCK):
        full = np.kron(np.eye(n), block)
        mats.append(full)
    j1, j2, j3 = (np.asarray(m) for m in mats)
    return HypercomplexField(
        funcs=(lambda p, _m=j1: _m, lambda p, _m=j2: _m, lambda p, _m=j3: _m)
    )


def rotated_hypercomplex(n: int, tilt_degrees: float) -> HypercomplexField:
    """Standard structure with J2 conjugated by a rotation; J3 kept.

    A nonzero tilt destroys the quaternionic identity J1 J2 = J3, giving a
    negative control that compatibility checks must detect.
    """
    base = build_standard_hypercomplex(n)
    angle = np.deg2rad(tilt_degrees)
    rot = np.eye(4 * n)
    # rotate in the (e1, e2) plane: this does not commute with J2
    rot[0, 0] = rot[1, 1] = np.cos(angle)
    rot[0, 1] = -np.sin(angle)
    rot[1, 0] = np.sin(angle)
    p0 = np.zeros(4 * n)
    j2 = rot @ base.matrix(1, p0) @ rot.T
    return HypercomplexField(funcs=(base.funcs[0], lambda p, _m=j2: _m, base.funcs[2]))


@dataclass(frozen=True)
class QuaternionicHermitianData:
    """A coordinate patch together with a compatible hypercomplex triple."""

    patch: CoordinatePatch
    hyper: HypercomplexField

    @property
    def n(self) -> int:
        return self.patch.n

    @property
    def dim(self) -> int:
        return self.patch.dim

    def metric_at(self, p: np.ndarray) -> np.ndarray:
        return self.patch.metric_at(p)

    def j_at(self, alpha: int, p: np.ndarray) -> np.ndarray:
        return self.hyper.matrix(alpha, p)


def quaternionic_residuals(data: QuaternionicHermitianData, p: np.ndarray) -> dict:
    """Pointwise defects of the quaternionic and hermitian identities."""
    g = data.metric_at(p)
    J = data.hyper.matrices(p)
    eye = np.eye(data.dim)
    square = max(np.max(np.abs(J[a] @ J[a] + eye)) for a in range(3))
    algebra = max(
        np.max(np.abs(J[a] @ J[b] - J[c])) for a, b, c in CYCLIC
    )
    hermitian = max(np.max(np.abs(J[a].T @ g @ J[a] - g)) for a in range(3))
    return {
        "square": square,
        "algebra": algebra,
        "hermitian": hermitian,
    }


# ---------------------------------------------------------------------------
# forms attached to the structure
# ---------------------------------------------------------------------------

def kaehler_form(data: QuaternionicHermitianData, alpha: int, p: np.ndarray) -> np.ndarray:
    """F_a(X, Y) = g(X, J_a Y) as an antisymmetric matrix."""
    return data.metric_at(p) @ data.j_at(alpha, p)


def kaehler_field(data: QuaternionicHermitianData, alpha: int) -> FormField:
    return FormField(2, lambda p: kaehler_form(data, alpha, p), nested=False)


def j_apply_oneform(J: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(J psi)(X) = -psi(J X)."""
    return -psi @ J


def j_apply_form(J: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """(J psi)(X_1..X_r) = (-1)^r psi(J X_1, ..., J X_r): J on every slot, with sign."""
    out = np.asarray(arr, dtype=float)
    r = out.ndim
    for _ in range(r):
        out = np.tensordot(out, J, axes=([0], [0]))
        # contracting the leading axis appends the new one; r passes restore order
    return ((-1.0) ** r) * out


def j_apply_pair(J: np.ndarray, arr: np.ndarray, slots: tuple, upper: bool = False) -> np.ndarray:
    """J on slots (i, j), no sign: arr(.., J X_i, .., J X_j, ..); ``upper``: slot i is an upper index."""
    x = np.moveaxis(arr, slots, (-2, -1))
    return np.moveaxis((J if upper else J.T) @ x @ J, (-2, -1), slots)


def lee_form(data: QuaternionicHermitianData,
             alpha: int,
             p: np.ndarray,
             scheme: FDScheme) -> np.ndarray:
    """Lee form theta_a = (delta F_a) o J_a at ``p``."""
    data.patch.require_interior(p, scheme.h)
    delta_f = codifferential(kaehler_field(data, alpha), data.patch.metric, p, scheme)
    return delta_f @ data.j_at(alpha, p)


def frame_trace_pair(arr: np.ndarray, ginv: np.ndarray, J: np.ndarray) -> np.ndarray:
    """sum_i arr(..., e_i, J e_i) over a g-orthonormal frame, last two slots."""
    d = J.shape[0]
    return arr.reshape(arr.shape[:-2] + (d * d,)) @ (ginv @ J.T).ravel()


def project_plus_3form(psi: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Projection of a 3-form onto its (1,2)+(2,1) part with respect to J.

    The image satisfies psi(X,Y,Z) = psi(JX,JY,Z) + psi(JX,Y,JZ) + psi(X,JY,JZ)
    exactly; the kernel is the (3,0)+(0,3) part.
    """
    jj = [j_apply_pair(J, psi, slots) for slots in ((0, 1), (0, 2), (1, 2))]
    return 0.25 * (3.0 * psi + jj[0] + jj[1] + jj[2])


def torsion_02_part(T: np.ndarray, J: np.ndarray) -> np.ndarray:
    """(0,2) part of a (1,2) tensor T[k, i, j] with respect to J.

    Computes (T(X,Y) - T(JX,JY) + J T(JX,Y) + J T(X,JY)) / 4.
    """
    t_jj = j_apply_pair(J, T, (1, 2))
    jt_jx = j_apply_pair(J, T, (0, 1), upper=True)
    jt_xj = j_apply_pair(J, T, (0, 2), upper=True)
    return 0.25 * (T - t_jj + jt_jx + jt_xj)


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


def nijenhuis_bracket(data: QuaternionicHermitianData,
                      alpha: int,
                      p: np.ndarray,
                      scheme: FDScheme) -> np.ndarray:
    """Nijenhuis tensor N[k, i, j] of J_a from coordinate Lie brackets."""
    data.patch.require_interior(p, scheme.h)
    jfun = data.hyper.funcs[alpha]
    J = data.j_at(alpha, p)
    dJ = gradient(jfun, p, scheme, nested=data.hyper.nested)  # dJ[a, k, j]
    # For coordinate fields: [JX, JY]^k = J^m_i d_m J^k_j - J^m_j d_m J^k_i,
    # [JX, Y]^k = -d_j J^k_i, [X, JY]^k = d_i J^k_j, [X, Y] = 0.
    return (
        np.einsum("mi,mkj->kij", J, dJ)
        - np.einsum("mj,mki->kij", J, dJ)
        + np.einsum("km,jmi->kij", J, dJ)
        - np.einsum("km,imj->kij", J, dJ)
    )


def dT_type22_residual(data: QuaternionicHermitianData,
                       T_field: FormField,
                       p: np.ndarray,
                       scheme: FDScheme) -> float:
    """Largest defect of the (2,2)-type identity of d(T) over the three J's.

    Zero exactly when dT(X,Y,Z,U) = dT(JX,JY,Z,U) + dT(JX,Y,JZ,U)
    + dT(X,JY,JZ,U) for each structure.
    """
    dT = exterior_derivative(T_field, scheme)(p)
    worst = 0.0
    for a in range(3):
        J = data.j_at(a, p)
        jj = [j_apply_pair(J, dT, slots) for slots in ((0, 1), (0, 2), (1, 2))]
        worst = max(worst, float(np.max(np.abs(dT - jj[0] - jj[1] - jj[2]))))
    return worst
