"""Generalized scenario with a conserved commuting observable.

Allowed unitaries are block-diagonal in the conserved eigenbasis, so the
reachable populations form a direct product of per-block population
polytopes. The construction is the base problem's, applied block by block:
`trajectory` prepares an instance together with its conserved blocks, and
the build, the swap candidates and the maximal point run on that one
prepared instance. A flat instance is the one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, cluster_ranks, validate
from .errors import DimensionTooLarge, NotHermitian, NotUnitTrace
from .polytope import DEFAULT_MAX_ENUM_DIM, enumerate_vertices, vertex_count
from .trajectory import OptimalTrajectory, _build, _maximal_point, _prepare, _swap_candidates


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
    """Base instance plus its conserved block decomposition."""

    base: ProblemInstance
    structure: BlockStructure

    @property
    def block_lambdas(self) -> tuple[np.ndarray, ...]:
        """block_lambdas[i] is the spectrum restricted to block i (base.eigenvalues sliced)."""
        lam = np.asarray(self.base.eigenvalues)
        return tuple(lam[np.asarray(b)] for b in self.structure.blocks)


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


def block_spectra(rho, structure: BlockStructure):
    """Per-block eigenvalues of the dephased state, each ascending."""
    deph = dephase(rho, structure)
    return tuple(
        np.linalg.eigvalsh(deph[np.ix_(idx, idx)]) for idx in map(np.asarray, structure.blocks)
    )


def from_populations(inst: ProblemInstance) -> GeneralizedInstance:
    """Generalized instance for a state already diagonal in the input basis.

    The eigenvalues field is read as the populations of the (incoherent)
    state, so each block's spectrum is just its slice of that vector.
    """
    if inst.conserved is None:
        raise ValueError("instance has no conserved vector")
    inst = validate(inst)
    return GeneralizedInstance(base=inst, structure=block_decompose(inst.conserved))


def from_density_matrix(
    rho, target, cost, conserved, eps_pop: float = 1e-12, eps_grad: float = 1e-12
) -> GeneralizedInstance:
    """Generalized instance from a Hermitian density matrix.

    Cross-block coherences are discarded (they cannot affect conserved
    dynamics). Each block's eigenvalues go onto its indices in ascending
    order, as `block_spectra` returns them; `validate` then clips round-off
    negatives (a rank-deficient block gives entries near -1e-17) to 0.
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
    return GeneralizedInstance(base=base, structure=structure)


def build_generalized(ginst: GeneralizedInstance) -> OptimalTrajectory:
    """Optimal trajectory under the conserved constraint.

    The flat build on the prepared instance with its conserved blocks: it
    starts from the direct sum of per-block minimal vertices, and each step
    takes the within-block adjacent swap with the globally smallest
    gradient, ties broken as in the flat build. A constant conserved vector
    (one block) reproduces the flat trajectory bit for bit.
    """
    return _build(_prepare(ginst.base, ginst.structure))


def swap_candidates_generalized(ginst: GeneralizedInstance, p):
    """Target-increasing within-block adjacent swaps at p, as (i, j, gradient).

    Indices are input-basis; i carries the larger target coefficient. The
    list is sorted by the preferred-order positions (k, l) of (i, j), and
    the build's step out of p is its first entry whose gradient lies within
    eps_grad of the smallest. At a thermal-at-machine-temperature system
    with an infinite-temperature bath this is where "only one swap cools"
    shows up. Raises NotAVertex unless p permutes the eigenvalues inside
    each conserved block.
    """
    return _swap_candidates(_prepare(ginst.base, ginst.structure), p)


def maximal_point_generalized(ginst: GeneralizedInstance) -> np.ndarray:
    """Input-basis populations of the generalized maximal point."""
    return _maximal_point(_prepare(ginst.base, ginst.structure))


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
