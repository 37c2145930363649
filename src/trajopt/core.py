"""Problem data, validation, preferred-basis ordering, and the linear functionals.

Conventions used throughout the package:

* "input basis" means the index order in which the caller supplies the
  target/cost/conserved vectors (and, for diagonal states, populations).
* "preferred basis" means the same states reindexed so the target
  coefficients are ascending, with cost ascending inside equal-target
  blocks and the original index as the final tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    NegativeEigenvalue,
    NonFiniteValue,
    NonPositiveTolerance,
    NotMajorized,
    NotNormalized,
)

# Absolute tolerance for ties among user-given target/cost coefficients.
COEFF_EPS = 1e-12
# Absolute tolerance for range checks on the target value.
ALPHA_TOL = 1e-9


def _vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"{name} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue(f"{name} contains non-finite entries")
    return v


def _frozen(v, dtype=float) -> np.ndarray:
    """A read-only copy of v."""
    out = np.array(v, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A finite-dimensional instance: spectrum plus commuting observable diagonals.

    eigenvalues : spectrum of the initial state (probabilities, sum 1)
    target      : diagonal of the target observable in the input basis
    cost        : diagonal of the cost observable in the input basis
    conserved   : optional diagonal of a conserved observable
    initial_populations : optional diagonal of the initial state in the
        input basis; used for the entry point and the work column only
    eps_pop, eps_grad : tolerances for population equality and gradient ties
    """

    eigenvalues: np.ndarray
    target: np.ndarray
    cost: np.ndarray
    conserved: np.ndarray | None = None
    initial_populations: np.ndarray | None = None
    eps_pop: float = 1e-12
    eps_grad: float = 1e-12

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def alpha_in(self) -> float | None:
        if self.initial_populations is None:
            return None
        return target_value(self.initial_populations, self.target)


@dataclass(frozen=True, eq=False)
class PreferredOrder:
    """Permutation between input and preferred bases.

    perm[i] is the input index occupying preferred position i;
    inverse[j] is the preferred position of input index j.
    """

    perm: np.ndarray
    inverse: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.perm)

    def to_preferred(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v)[self.perm]

    def to_input(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(np.asarray(v, dtype=float))
        out[self.perm] = v
        return out


def cluster_ranks(values: np.ndarray, eps: float) -> np.ndarray:
    """Rank each entry by its degeneracy class (values within eps share a rank).

    Classes are formed by splitting the sorted values at gaps larger than
    eps, so chains of near-equal values collapse into one class.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    jumps = np.empty(len(values), dtype=int)
    jumps[0] = 0
    jumps[1:] = np.cumsum(np.diff(values[order]) > eps)
    ranks = np.empty(len(values), dtype=int)
    ranks[order] = jumps
    return ranks


def check_alpha(alpha: float, lo: float, hi: float) -> float:
    """alpha clamped to [lo, hi]; AlphaOutOfRange beyond ALPHA_TOL outside it or for NaN."""
    if not lo - ALPHA_TOL <= alpha <= hi + ALPHA_TOL:
        raise AlphaOutOfRange(f"alpha {alpha!r} outside [{lo!r}, {hi!r}]")
    return min(max(alpha, lo), hi)


def preferred_order(target, cost, eps: float = COEFF_EPS) -> PreferredOrder:
    """Stable sort by (target, cost, input index), with eps-tolerant ties."""
    a = _vector(target, "target")
    e = _vector(cost, "cost")
    if len(a) != len(e):
        raise DimensionMismatch("target and cost lengths differ")
    ra = cluster_ranks(a, eps)
    re = cluster_ranks(e, eps)
    perm = np.lexsort((np.arange(len(a)), re, ra))
    inverse = np.argsort(perm)
    perm.setflags(write=False)
    inverse.setflags(write=False)
    return PreferredOrder(perm=perm, inverse=inverse)


def target_value(p, a) -> float:
    """A(p) = a · p."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    if p.shape != a.shape:
        raise DimensionMismatch("population and target lengths differ")
    return float(np.dot(a, p))


def cost_value(p, e) -> float:
    """E(p) = E · p."""
    p = np.asarray(p, dtype=float)
    e = np.asarray(e, dtype=float)
    if p.shape != e.shape:
        raise DimensionMismatch("population and cost lengths differ")
    return float(np.dot(e, p))


def validate(raw: ProblemInstance) -> ProblemInstance:
    """Check invariants and return a normalized, immutable instance.

    Eigenvalues are rescaled to sum exactly to 1 when the deviation is below
    1e-9; entries more negative than -1e-12 raise, tiny negatives are clipped.
    """
    lam = _vector(raw.eigenvalues, "eigenvalues")
    a = _vector(raw.target, "target")
    e = _vector(raw.cost, "cost")
    d = len(lam)
    if len(a) != d or len(e) != d:
        raise DimensionMismatch(
            f"target/cost length must equal dim {d}, got {len(a)}/{len(e)}"
        )
    conserved = None
    if raw.conserved is not None:
        conserved = _vector(raw.conserved, "conserved")
        if len(conserved) != d:
            raise DimensionMismatch(f"conserved length must equal dim {d}")
    for name in ("eps_pop", "eps_grad"):
        eps = getattr(raw, name)
        if not 0 < eps < math.inf:  # False for NaN
            raise NonPositiveTolerance(f"{name} must be a positive finite number, got {eps!r}")

    if np.any(lam < -1e-12):
        raise NegativeEigenvalue(f"negative eigenvalue {lam.min():.3e}")
    lam = np.clip(lam, 0.0, None)
    total = lam.sum()
    if abs(total - 1.0) > 1e-9:
        raise NotNormalized(f"eigenvalues sum to {total!r}, not 1")
    if abs(total - 1.0) > 1e-12:  # keep validate idempotent bit for bit
        lam = lam / total

    pops = None
    if raw.initial_populations is not None:
        pops = _vector(raw.initial_populations, "initial_populations")
        if len(pops) != d:
            raise DimensionMismatch("initial_populations length must equal dim")
        # Deferred import: polytope builds on this module.
        from .polytope import majorizes

        if not majorizes(lam, pops, max(raw.eps_pop, 1e-9)):
            raise NotMajorized(
                "initial_populations are not majorized by the eigenvalues"
            )
        pops = _frozen(pops)

    return replace(
        raw,
        eigenvalues=_frozen(lam),
        target=_frozen(a),
        cost=_frozen(e),
        conserved=None if conserved is None else _frozen(conserved),
        initial_populations=pops,
    )
