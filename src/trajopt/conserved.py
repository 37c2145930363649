"""Generalized scenario with a conserved commuting observable.

Allowed unitaries are block-diagonal in the conserved eigenbasis, so the
reachable populations form a direct product of per-block population
polytopes. A conserved instance is a plain `ProblemInstance` with its
`conserved` vector set: `trajectory` reads the blocks from that vector
(`core.block_of_input`), so `trajectory.build`, `swap_candidates` and
`maximal_vertex` serve it as they serve a flat one. This module adds what
needs the blocks as a structure: density matrices and dephasing, and the
product polytope's vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    CONSERVED_EPS,
    DEFAULT_MAX_ENUM_DIM,
    ProblemInstance,
    block_indices,
    block_of_input,
    cluster_ranks,
    validate,
)
from .errors import DimensionTooLarge, NotHermitian, NotUnitTrace
from .trajectory import _build, _prepare, _quiet

if TYPE_CHECKING:
    from .trajectory import OptimalTrajectory


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


def block_decompose(c) -> BlockStructure:
    """Group indices by conserved eigenvalue (clusters split at gaps > CONSERVED_EPS).

    The blocks are those `core.block_of_input` gives an instance with this
    conserved vector.
    """
    c = np.asarray(c, dtype=float)
    blocks = block_indices(cluster_ranks(c, CONSERVED_EPS), len(c))
    return BlockStructure(
        blocks=tuple(tuple(b.tolist()) for b in blocks),
        block_values=np.array([c[b].mean() for b in blocks]),
    )


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


def from_populations(inst: ProblemInstance) -> ProblemInstance:
    """The validated instance of a state already diagonal in the input basis.

    The eigenvalues field is read as the populations of the (incoherent)
    state, so each block's spectrum is just its slice of that vector. An
    instance without a conserved vector raises ValueError.
    """
    if inst.conserved is None:
        raise ValueError("instance has no conserved vector")
    return validate(inst)


def from_density_matrix(
    rho, target, cost, conserved, eps_pop: float = 1e-12, eps_grad: float = 1e-12
) -> ProblemInstance:
    """Validated conserved instance from a Hermitian density matrix.

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
    return validate(
        ProblemInstance(
            eigenvalues=lam,
            target=np.asarray(target, dtype=float),
            cost=np.asarray(cost, dtype=float),
            conserved=np.asarray(conserved, dtype=float),
            eps_pop=eps_pop,
            eps_grad=eps_grad,
        )
    )


def build_generalized(inst: ProblemInstance) -> OptimalTrajectory:
    """Optimal trajectory under the conserved constraint: `trajectory.build`'s.

    It starts from the direct sum of per-block minimal vertices, and each
    step takes the within-block adjacent swap with the globally smallest
    gradient, ties broken as in the flat build. A constant conserved vector
    (one block) reproduces the flat trajectory bit for bit. The body is
    `build`'s own rather than a call to it or an alias of it, so a tracer
    that wraps both functions records a conserved build once, under this
    name.
    """
    with _quiet():
        return _build(_prepare(inst))


def generalized_vertex_count(
    inst: ProblemInstance, eps: float | None = None, max_block_dim: int = DEFAULT_MAX_ENUM_DIM
) -> int:
    """Product over blocks of the distinct-permutation counts (one block if flat)."""
    from .polytope import vertex_count

    eps = inst.eps_pop if eps is None else eps
    total = 1
    for idx in block_indices(block_of_input(inst), inst.dim):
        if len(idx) > max_block_dim:
            raise DimensionTooLarge(
                f"block dim {len(idx)} exceeds cap {max_block_dim}"
            )
        total *= vertex_count(inst.eigenvalues[idx], eps)
    return total


def enumerate_generalized_vertices(
    inst: ProblemInstance,
    eps: float | None = None,
    max_block_dim: int = DEFAULT_MAX_ENUM_DIM,
    max_count: int = 200_000,
) -> np.ndarray:
    """All vertices of the product polytope, input basis, one per row."""
    from .polytope import enumerate_vertices

    eps = inst.eps_pop if eps is None else eps
    count = generalized_vertex_count(inst, eps, max_block_dim)
    if count > max_count:
        raise DimensionTooLarge(f"{count} product vertices exceed cap {max_count}")
    out = np.empty((count, inst.dim))
    reps = count
    for idx in block_indices(block_of_input(inst), inst.dim):
        verts = enumerate_vertices(inst.eigenvalues[idx], eps, max_dim=max_block_dim).vertices
        n = len(verts)
        reps //= n
        tile = count // (n * reps)
        pattern = np.repeat(np.arange(n), reps)
        pattern = np.tile(pattern, tile)
        out[:, idx] = verts[pattern]
    return out
