"""Generalized scenario with a conserved commuting observable.

Allowed unitaries are block-diagonal in the conserved eigenbasis, so the
reachable populations form a direct product of per-block population
polytopes. The trajectory machinery is shared with the base problem: the
only change is that adjacent-valued swaps are confined to blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, cluster_ranks, preferred_order, validate
from .errors import DimensionTooLarge, NotHermitian, NotUnitTrace
from .polytope import DEFAULT_MAX_ENUM_DIM, enumerate_vertices, vertex_count
from .trajectory import (
    OptimalTrajectory,
    _build,
    _candidates,
    _check_vertex,
    _maximal_pref,
    _position_groups,
)


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Partition of the basis indices by conserved eigenvalue, ascending."""

    blocks: tuple[tuple[int, ...], ...]
    block_values: np.ndarray

    @property
    def dim(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


@dataclass(frozen=True, eq=False)
class GeneralizedInstance:
    """Base instance plus its conserved block decomposition.

    block_lambdas[i] is the spectrum of the dephased state restricted to
    block i; their concatenation carries the whole spectrum.
    """

    base: ProblemInstance
    structure: BlockStructure
    block_lambdas: tuple[np.ndarray, ...]


def block_decompose(c, eps: float = 1e-9) -> BlockStructure:
    """Group indices by conserved eigenvalue (clusters split at gaps > eps)."""
    c = np.asarray(c, dtype=float)
    ranks = cluster_ranks(c, eps)
    blocks = []
    values = []
    for r in range(ranks.max() + 1):
        members = np.nonzero(ranks == r)[0]
        blocks.append(tuple(int(i) for i in members))
        values.append(float(c[members].mean()))
    return BlockStructure(blocks=tuple(blocks), block_values=np.array(values))


def _check_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotHermitian("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise NotHermitian("matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise NotUnitTrace(f"trace is {np.trace(rho)!r}, not 1")
    return rho


def dephase(rho, structure: BlockStructure) -> np.ndarray:
    """Zero every element coupling distinct conserved blocks."""
    rho = _check_density(rho)
    out = np.zeros_like(rho)
    for block in structure.blocks:
        idx = np.asarray(block)
        out[np.ix_(idx, idx)] = rho[np.ix_(idx, idx)]
    return out


def coherence_mass(rho, structure: BlockStructure) -> float:
    """Frobenius norm of the cross-block part discarded by dephasing."""
    rho = np.asarray(rho)
    return float(np.sqrt(np.sum(np.abs(rho - dephase(rho, structure)) ** 2)))


def jacobi_eigenvalues(a, tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations, ascending.

    Each sweep annihilates every off-diagonal entry once via a complex plane
    rotation; quadratic convergence makes a handful of sweeps enough at desk
    scale.
    """
    a = np.array(np.asarray(a), dtype=complex)
    d = a.shape[0]
    if d == 1:
        return np.array([a[0, 0].real])
    scale = max(np.max(np.abs(a)), 1.0)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                g = a[p, q]
                mag = abs(g)
                off = max(off, mag)
                if mag <= tol * scale:
                    continue
                phase = g / mag
                app, aqq = a[p, p].real, a[q, q].real
                tau = (aqq - app) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                co = 1.0 / math.hypot(1.0, t)
                si = t * co
                # rotation columns: p' = co*p - si*conj(phase)*q ; q' = si*phase*p + co*q
                col_p = co * a[:, p] - si * np.conj(phase) * a[:, q]
                col_q = si * phase * a[:, p] + co * a[:, q]
                a[:, p], a[:, q] = col_p, col_q
                row_p = co * a[p, :] - si * phase * a[q, :]
                row_q = si * np.conj(phase) * a[p, :] + co * a[q, :]
                a[p, :], a[q, :] = row_p, row_q
        if off <= tol * scale:
            break
    else:
        raise RuntimeError("Jacobi sweep limit reached without convergence")
    return np.sort(np.real(np.diag(a)))


def block_spectra(rho, structure: BlockStructure, tol: float = 1e-12):
    """Per-block eigenvalues of the dephased state, each ascending."""
    deph = dephase(rho, structure)
    out = []
    for block in structure.blocks:
        idx = np.asarray(block)
        out.append(jacobi_eigenvalues(deph[np.ix_(idx, idx)], tol=tol))
    return tuple(out)


def from_populations(inst: ProblemInstance) -> GeneralizedInstance:
    """Generalized instance for a state already diagonal in the input basis.

    The eigenvalues field is read as the populations of the (incoherent)
    state, so each block's spectrum is just its slice of that vector.
    """
    if inst.conserved is None:
        raise ValueError("instance has no conserved vector")
    inst = validate(inst)
    structure = block_decompose(inst.conserved)
    lams = tuple(
        np.asarray(inst.eigenvalues)[np.asarray(b)] for b in structure.blocks
    )
    return GeneralizedInstance(base=inst, structure=structure, block_lambdas=lams)


def from_density_matrix(
    rho, target, cost, conserved, eps_pop: float = 1e-12, eps_grad: float = 1e-12
) -> GeneralizedInstance:
    """Generalized instance from a Hermitian density matrix.

    Cross-block coherences are discarded (they cannot affect conserved
    dynamics); intra-block eigenbases are fixed by the Jacobi output order.
    """
    structure = block_decompose(np.asarray(conserved, dtype=float))
    spectra = block_spectra(rho, structure)
    lam = np.empty(structure.dim)
    for block, spec in zip(structure.blocks, spectra):
        lam[np.asarray(block)] = spec
    base = validate(
        ProblemInstance(
            eigenvalues=lam,
            target=np.asarray(target, dtype=float),
            cost=np.asarray(cost, dtype=float),
            conserved=np.asarray(conserved, dtype=float),
            eps_pop=eps_pop,
            eps_grad=eps_grad,
        )
    )
    return GeneralizedInstance(
        base=base, structure=structure, block_lambdas=spectra
    )


def _block_of_position(ginst: GeneralizedInstance, order) -> np.ndarray:
    block_of_input = np.empty(ginst.structure.dim, dtype=int)
    for b, block in enumerate(ginst.structure.blocks):
        block_of_input[np.asarray(block)] = b
    return block_of_input[order.perm]


def build_generalized(ginst: GeneralizedInstance) -> OptimalTrajectory:
    """Optimal trajectory under the conserved constraint.

    Starts from the direct sum of per-block minimal vertices and at each
    step takes the within-block adjacent swap with the globally smallest
    gradient, same tie-break as the unconstrained build. It is the same
    build: one queue holds the adjacent pairs of every block, and a step
    updates only the pairs touching the swapped positions. A constant
    conserved vector reproduces the base trajectory exactly.
    """
    inst = ginst.base
    order = preferred_order(inst.target, inst.cost)
    a_p = order.to_preferred(inst.target)
    e_p = order.to_preferred(inst.cost)
    blocks = _block_of_position(ginst, order)
    p0 = np.empty(ginst.structure.dim)
    for b, lam in enumerate(ginst.block_lambdas):
        positions = np.nonzero(blocks == b)[0]
        p0[positions] = np.sort(np.asarray(lam))[::-1]
    return _build(p0, a_p, e_p, order, inst.eps_pop, inst.eps_grad, blocks=blocks)


def swap_candidates_generalized(ginst: GeneralizedInstance, p):
    """Target-increasing within-block adjacent swaps at p, as (i, j, gradient).

    Indices are input-basis; i carries the larger target coefficient. At a
    thermal-at-machine-temperature system with an infinite-temperature bath
    this is where "only one swap cools" shows up. Raises NotAVertex unless
    p permutes the eigenvalues inside each conserved block.
    """
    inst = ginst.base
    p = np.asarray(p, dtype=float)
    _check_vertex(p, inst, ginst.structure.blocks)
    order = preferred_order(inst.target, inst.cost)
    a_p = order.to_preferred(inst.target)
    e_p = order.to_preferred(inst.cost)
    blocks = _block_of_position(ginst, order)
    pp = order.to_preferred(p)
    groups = _position_groups(inst.dim, blocks)
    ks, ls, grads = _candidates(pp, a_p, e_p, inst.eps_pop, groups)
    return [
        (int(order.perm[k]), int(order.perm[l]), float(g))
        for k, l, g in zip(ks, ls, grads)
    ]


def maximal_point_generalized(ginst: GeneralizedInstance) -> np.ndarray:
    """Input-basis populations of the generalized maximal point."""
    inst = ginst.base
    order = preferred_order(inst.target, inst.cost)
    a_p = order.to_preferred(inst.target)
    e_p = order.to_preferred(inst.cost)
    blocks = _block_of_position(ginst, order)
    out = np.empty(ginst.structure.dim)
    for b, lam in enumerate(ginst.block_lambdas):
        positions = np.nonzero(blocks == b)[0]
        out[positions] = _maximal_pref(
            np.asarray(lam), a_p[positions], e_p[positions]
        )
    return order.to_input(out)


def generalized_vertex_count(
    ginst: GeneralizedInstance, eps: float | None = None, max_block_dim: int = DEFAULT_MAX_ENUM_DIM
) -> int:
    """Product over blocks of the distinct-permutation counts."""
    eps = ginst.base.eps_pop if eps is None else eps
    total = 1
    for lam in ginst.block_lambdas:
        if len(lam) > max_block_dim:
            raise DimensionTooLarge(
                f"block dim {len(lam)} exceeds cap {max_block_dim}"
            )
        total *= vertex_count(lam, eps)
    return total


def enumerate_generalized_vertices(
    ginst: GeneralizedInstance,
    eps: float | None = None,
    max_block_dim: int = DEFAULT_MAX_ENUM_DIM,
    max_count: int = 200_000,
) -> np.ndarray:
    """All vertices of the product polytope, input basis, one per row."""
    eps = ginst.base.eps_pop if eps is None else eps
    count = generalized_vertex_count(ginst, eps, max_block_dim)
    if count > max_count:
        raise DimensionTooLarge(f"{count} product vertices exceed cap {max_count}")
    d = ginst.structure.dim
    block_sets = [
        enumerate_vertices(lam, eps, max_dim=max_block_dim).vertices
        for lam in ginst.block_lambdas
    ]
    out = np.empty((count, d))
    reps = count
    for block, verts in zip(ginst.structure.blocks, block_sets):
        idx = np.asarray(block)
        n = len(verts)
        reps //= n
        tile = count // (n * reps)
        pattern = np.repeat(np.arange(n), reps)
        pattern = np.tile(pattern, tile)
        out[:, idx] = verts[pattern]
    return out
