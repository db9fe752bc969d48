"""Almost hypercomplex structures and their first-order invariants.

Carries the triple of anticommuting almost complex structures, the
kernels that apply them to forms and tensors, type projectors for 3-forms
and torsion tensors, and the Nijenhuis tensor computed from coordinate Lie
brackets.  The Kaehler 2-forms F_a(X, Y) = g(X, J_a Y), their Lee and
cross Lee forms and K_a are layers of the evaluation context in
``qkt_connection`` (``F``, ``theta``, ``theta_cross``, ``K``), and a triple
meets its patch only in ``qkt_connection.QKTStructure``.

The action of an almost complex structure on an r-form is
``(J psi)(X_1, ..., X_r) = (-1)^r psi(J X_1, ..., J X_r)``; on 1-forms in
particular ``(J psi)(X) = -psi(J X)``.

Stack convention of the J kernels: ``J`` may have shape ``(..., d, d)``.
Its leading axes form a stack, and the tensor's leading axes are matched
against them (numpy broadcasting; pass ``T[None]`` to apply three J's to
one tensor).  Tensor slots are addressed from the end, so slot 0 is the
first slot after the stack.  A plain ``(d, d)`` J has an empty stack.
Point axes, when present, lead the stack: ``J[..., alpha, k, j]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

# cyclic permutations (alpha, beta, gamma) of (1, 2, 3), 0-indexed
CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# the same triples as index arrays over a quaternionic stack axis: a, b and c
CYC_A, CYC_B, CYC_C = (list(column) for column in zip(*CYCLIC))

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

    def matrices(self, p: np.ndarray) -> np.ndarray:
        """All three structures at the points ``p``, stacked as J[..., alpha, k, j]."""
        return np.stack([np.asarray(f(p), dtype=float) for f in self.funcs], axis=-3)


@dataclass(frozen=True, init=False)
class ConstantHypercomplexField(HypercomplexField):
    """Three constant structures, held as one read-only stack.

    Every point gets the same stack, and an evaluation context
    differentiates it to exact zeros, without a stencil.
    """

    stack: np.ndarray = field(default=None, repr=False, compare=False)

    def __init__(self, j1, j2, j3):
        stack = np.array([j1, j2, j3], dtype=float)
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "funcs", tuple(
            lambda p, _m=m: np.broadcast_to(_m, np.shape(p)[:-1] + _m.shape) for m in stack))

    def matrices(self, p: np.ndarray) -> np.ndarray:
        points = np.shape(p)[:-1]
        return np.broadcast_to(self.stack, points + self.stack.shape) if points else self.stack


def build_standard_hypercomplex(n: int) -> ConstantHypercomplexField:
    """The constant hypercomplex structure of H^n, block-diagonal per quadruple."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    return ConstantHypercomplexField(
        *(np.kron(np.eye(n), block) for block in (_J1_BLOCK, _J2_BLOCK, _J3_BLOCK)))


def rotated_hypercomplex(n: int, tilt_degrees: float) -> ConstantHypercomplexField:
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
    j2 = rot @ base.stack[1] @ rot.T
    return ConstantHypercomplexField(base.stack[0], j2, base.stack[2])


def quaternionic_residuals(g: np.ndarray, J: np.ndarray) -> dict:
    """Worst defects per point of the quaternionic and hermitian identities of
    J[..., alpha, k, j] against the metric g[..., k, j]."""
    slots = (-3, -2, -1)
    square = np.max(np.abs(J @ J + np.eye(J.shape[-1])), axis=slots)
    algebra = np.max(np.abs(J @ J[..., CYC_B, :, :] - J[..., CYC_C, :, :]), axis=slots)
    hermitian = np.max(np.abs(np.swapaxes(J, -1, -2) @ g[..., None, :, :] @ J
                              - g[..., None, :, :]), axis=slots)
    return {
        "square": square,
        "algebra": algebra,
        "hermitian": hermitian,
    }


# ---------------------------------------------------------------------------
# J kernels
# ---------------------------------------------------------------------------

def j_apply_oneform(J: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(J psi)(X) = -psi(J X); J ``(..., d, d)`` against psi ``(..., d)``."""
    return -((psi[..., None, :] @ J)[..., 0, :])


def j_apply_slot(J: np.ndarray, arr: np.ndarray, slot: int) -> np.ndarray:
    """J on one slot, no sign: arr(.., J X_slot, ..); one matmul and no transpose."""
    d = J.shape[-1]
    r = arr.ndim - (J.ndim - 2)
    head = arr.shape[:arr.ndim - r]
    if slot == r - 1:
        out, tail = arr.reshape(head + (-1, d)) @ J, 2
    else:
        out, tail = np.swapaxes(J, -1, -2)[..., None, :, :] @ arr.reshape(
            head + (d ** slot, d, -1)), 3
    return out.reshape(out.shape[:out.ndim - tail] + (d,) * r)


def j_apply_form(J: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """(J psi)(X_1..X_r) = (-1)^r psi(J X_1, ..., J X_r): J on every slot, with sign."""
    out = np.asarray(arr, dtype=float)
    r = out.ndim - (J.ndim - 2)
    for slot in range(r):
        out = j_apply_slot(J, out, slot)
    return ((-1.0) ** r) * out


def _pair_terms(J: np.ndarray, arr: np.ndarray, first: np.ndarray) -> tuple:
    """(J_1 (J_2 + J_3) arr, J_2 J_3 arr), J_s being J on the s-th of the first three
    slots and ``first`` in its place on the first: the three pairs in four passes."""
    # at most three arrays of the output's size live at once
    third = j_apply_slot(J, arr, 2)
    last = j_apply_slot(J, third, 1)
    third += j_apply_slot(J, arr, 1)
    return j_apply_slot(first, third, 0), last


def frame_trace_pair(arr: np.ndarray, ginv: np.ndarray, J: np.ndarray) -> np.ndarray:
    """sum_i arr(..., e_i, J e_i) over a g-orthonormal frame, last two slots.

    The leading axes of ``arr`` broadcast against a stack of J's:
    ``arr[:, None]`` against ``J[None]`` traces every (tensor, J) pair.
    The leading axes of ``ginv`` are point axes, the first axes of J's stack.
    """
    d = J.shape[-1]
    ginv = ginv.reshape(ginv.shape[:-2] + (1,) * (J.ndim - ginv.ndim) + (d, d))
    weights = ginv @ np.swapaxes(J, -1, -2)
    stack = weights.shape[:-2]
    weights = weights.reshape(stack + (d * d, 1))
    lead, middle = arr.shape[:len(stack)], arr.shape[len(stack):-2]
    traced = arr.reshape(lead + (-1, d * d)) @ weights
    return traced.reshape(np.broadcast_shapes(lead, stack) + middle)


def project_plus_3form(psi: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Projection of a 3-form onto its (1,2)+(2,1) part with respect to J.

    A stack of J's projects the matching stack of 3-forms.

    The image satisfies psi(X,Y,Z) = psi(JX,JY,Z) + psi(JX,Y,JZ) + psi(X,JY,JZ)
    exactly; the kernel is the (3,0)+(0,3) part.  J commutes with the projector.
    """
    out, last = _pair_terms(J, psi, J)
    out += last
    out += 3.0 * psi
    out *= 0.25
    return out


def torsion_02_part(T: np.ndarray, J: np.ndarray) -> np.ndarray:
    """(0,2) part of a (1,2) tensor T[k, i, j] with respect to J.

    Computes (T(X,Y) - T(JX,JY) + J T(JX,Y) + J T(X,JY)) / 4.
    """
    # J^T on the upper slot k acts as J does on a lower slot
    out, last = _pair_terms(J, T, np.swapaxes(J, -1, -2))
    out -= last
    out += T
    out *= 0.25
    return out


def nijenhuis_bracket(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor N[..., k, i, j] of J[..., k, j] from coordinate Lie
    brackets, given its gradient dJ[..., i, k, j] = d_i J[k, j]."""
    # For coordinate fields: [JX, JY]^k = J^m_i d_m J^k_j - J^m_j d_m J^k_i,
    # [JX, Y]^k = -d_j J^k_i, [X, JY]^k = d_i J^k_j, [X, Y] = 0; so N[k, i, j] is
    # W[i, k, j] - W[j, k, i] with W[i, k, j] = J^m_i d_m J^k_j - J^k_m d_i J^m_j
    return skew_bracket(j_apply_slot(J, dJ, 0) - J[..., None, :, :] @ dJ)


def skew_bracket(W: np.ndarray) -> np.ndarray:
    """N[..., k, i, j] = W[..., i, k, j] - W[..., j, k, i]: the Nijenhuis bracket shape."""
    return np.swapaxes(W, -3, -2) - np.moveaxis(W, -3, -1)


def dT_type22_residual(dT: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Largest defect per point of the (2,2)-type identity of the 4-form
    dT[..., x, y, z, u] over the three J[..., alpha, k, j].

    Zero exactly when dT(X,Y,Z,U) = dT(JX,JY,Z,U) + dT(JX,Y,JZ,U)
    + dT(X,JY,JZ,U) for each structure.
    """
    worst = None
    # one structure at a time: a stack of the three 4-form defects is the
    # largest temporary of a sample context
    for alpha in range(J.shape[-3]):
        J_alpha = J[..., alpha, :, :]
        defect, last = _pair_terms(J_alpha, dT, J_alpha)
        defect += last
        defect -= dT
        del last
        defect = np.max(np.abs(defect, out=defect), axis=(-4, -3, -2, -1))
        worst = defect if worst is None else np.maximum(worst, defect)
    return worst
