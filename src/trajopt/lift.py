"""Lifting trajectory points to doubly-stochastic matrices and unitaries.

A partial two-level swap is a T-transform at the doubly-stochastic level
and a real rotation in the corresponding two-dimensional subspace at the
unitary level, with cos^2(theta) equal to the mixing parameter t. The
lifted unitary is taken relative to the minimal-point state (it is the
identity at alpha_min); the permutation from the descending spectrum to
the minimal point is exposed separately.

Each completed trajectory step is an exact signed swap (the rotation by
pi/2, with cos = 0 and sin = 1 exactly), so the lifted unitary is a signed
permutation times one partial rotation on the active segment. Lifting a
point costs O(steps + d^2), and applying a T-transform chain costs O(1) per
transform: neither builds a d x d matrix per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, TOutOfRange
from .trajectory import OptimalTrajectory, state_at


@dataclass(frozen=True)
class TTransform:
    """Doubly-stochastic mix of coordinates i and j: t=1 identity, t=0 swap."""

    i: int
    j: int
    t: float
    dim: int


@dataclass(frozen=True)
class TwoLevelRotation:
    """Plane rotation by theta in the (i, j) subspace."""

    i: int
    j: int
    theta: float
    dim: int


@dataclass(frozen=True, eq=False)
class LiftedPoint:
    """Matrices realizing one trajectory point, input basis.

    unitary maps the minimal-point diagonal state to a state whose diagonal
    is density_diagonal; doubly_stochastic = |unitary|^2 entrywise and maps
    the minimal-point populations to density_diagonal.
    """

    unitary: np.ndarray
    doubly_stochastic: np.ndarray
    density_diagonal: np.ndarray
    alpha: float


def _check_pair(i: int, j: int, dim: int) -> None:
    if not (0 <= i < dim and 0 <= j < dim):
        raise IndexOutOfRange(f"indices ({i}, {j}) out of range for dim {dim}")
    if i == j:
        raise IndexOutOfRange("two-level indices must differ")


def _check_t_transform(tt: TTransform) -> None:
    _check_pair(tt.i, tt.j, tt.dim)
    if not 0.0 <= tt.t <= 1.0:
        raise TOutOfRange(f"t={tt.t!r} outside [0, 1]")


def t_transform_matrix(tt: TTransform) -> np.ndarray:
    _check_t_transform(tt)
    m = np.eye(tt.dim)
    m[tt.i, tt.i] = m[tt.j, tt.j] = tt.t
    m[tt.i, tt.j] = m[tt.j, tt.i] = 1.0 - tt.t
    return m


def rotation_matrix(rot: TwoLevelRotation) -> np.ndarray:
    _check_pair(rot.i, rot.j, rot.dim)
    c, s = math.cos(rot.theta), math.sin(rot.theta)
    m = np.eye(rot.dim)
    m[rot.i, rot.i] = m[rot.j, rot.j] = c
    m[rot.i, rot.j] = s
    m[rot.j, rot.i] = -s
    return m


def unistochastic_of(u: np.ndarray) -> np.ndarray:
    """Entrywise squared magnitudes of a unitary."""
    u = np.asarray(u)
    return np.abs(u) ** 2


def minimal_permutation(traj: OptimalTrajectory) -> np.ndarray:
    """Permutation matrix taking the descending spectrum to the minimal point.

    Applied to the vector of eigenvalues sorted descending (placed on input
    positions 0..d-1), it yields the minimal vertex in the input basis.
    """
    d = traj.dim
    m = np.zeros((d, d))
    m[traj.order.perm, np.arange(d)] = 1.0
    return m


def apply_chain(chain, v: np.ndarray) -> np.ndarray:
    """Apply a sequence of T-transforms to a population vector.

    Each transform updates its two entries in place, as the product with
    t_transform_matrix would, and is checked the same way.
    """
    out = np.asarray(v, dtype=float).copy()
    for tt in chain:
        _check_t_transform(tt)
        if tt.dim != len(out):
            raise DimensionMismatch(f"T-transform of dim {tt.dim} applied to {len(out)} entries")
        i, j, t = tt.i, tt.j, tt.t
        oi, oj = out[i], out[j]
        out[i], out[j] = t * oi + (1.0 - t) * oj, (1.0 - t) * oi + t * oj
    return out


def lift_point(traj: OptimalTrajectory, alpha: float) -> LiftedPoint:
    """Unitary and doubly-stochastic realization of the point at alpha.

    Every completed step is an exact signed swap of its two input-basis
    rows, rows (i, j) <- (row j, -row i): the rotation by pi/2 without the
    cos(pi/2) residue of floating point. The completed steps therefore
    compose to a signed permutation, tracked as one source row and one sign
    per row. Only the active segment carries a partial rotation, with
    theta = arccos(sqrt(t)), where t = 1 - segment fraction is its
    T-transform parameter; a fraction of 1 counts the step as completed.
    Cost: O(steps + d^2).
    """
    _, seg, frac = state_at(traj, alpha)
    d = traj.dim
    perm = traj.order.perm.tolist()
    src = list(range(d))
    sign = [1.0] * d
    n_full = seg if frac < 1.0 else seg + 1
    for k, l in zip(traj.ks[:n_full].tolist(), traj.ls[:n_full].tolist()):
        i, j = perm[k], perm[l]
        src[i], src[j] = src[j], src[i]
        sign[i], sign[j] = sign[j], -sign[i]
    u = np.zeros((d, d))
    u[np.arange(d), src] = sign
    if 0.0 < frac < 1.0:
        i, j = perm[traj.ks[seg]], perm[traj.ls[seg]]
        theta = math.acos(math.sqrt(1.0 - frac))
        c, s = math.cos(theta), math.sin(theta)
        u[i], u[j] = c * u[i] + s * u[j], -s * u[i] + c * u[j]
    ds = unistochastic_of(u)
    diag = ds @ traj.vertex_input(0)
    return LiftedPoint(
        unitary=u, doubly_stochastic=ds, density_diagonal=diag, alpha=float(alpha)
    )
