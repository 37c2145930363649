"""Independent brute-force verification of built trajectories.

Projecting every polytope vertex to (target, cost) gives a polygon whose
lower boundary is the minimal cost function; comparing that envelope with
the constructed trajectory, and sampling random doubly-stochastic images
of the spectrum, falsifies the construction without sharing any code path
with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_alpha
from .errors import DimensionTooLarge

# Permutation entries the audit draws at once (2 MB of int64 indices).
AUDIT_CHUNK = 1 << 18


@dataclass(frozen=True, eq=False)
class InducedPolygon:
    """Image of the population polytope under (target, cost).

    points: all projected vertices, one (alpha, eps) row each
    hull: convex hull cycle, counter-clockwise
    lower_envelope: (alpha, eps) breakpoints of the lower boundary
    """

    points: np.ndarray
    hull: np.ndarray
    lower_envelope: np.ndarray
    upper_envelope: np.ndarray

    @property
    def alpha_min(self) -> float:
        return float(self.lower_envelope[0, 0])

    @property
    def alpha_max(self) -> float:
        return float(self.lower_envelope[-1, 0])


@dataclass(frozen=True)
class AuditReport:
    n_samples: int
    violations: int
    min_slack: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _half_hull(pts: np.ndarray) -> np.ndarray:
    """The chain of points (sorted by x) that turns strictly counter-clockwise.

    Each pass takes every interior point a of the current chain with its
    current neighbours o and b and drops it where (a-o)x(b-o) <= 0.0, the
    monotone chain's test; passes repeat until one drops nothing. A
    dropped point is not a strict turn between two points of the set, so
    it is no vertex of the hull, and in exact arithmetic the passes end
    at the monotone chain's output.
    """
    chain = pts
    while len(chain) > 2:
        o, a, b = chain[:-2], chain[1:-1], chain[2:]
        cross = (a[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (a[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])
        drop = cross <= 0.0
        if not drop.any():
            break
        chain = chain[~np.r_[False, drop, False]]
    return chain


def induced_polygon(vertices, a, e) -> InducedPolygon:
    """Project vertices (rows, input basis) to (target, cost) and take hulls.

    Accepts a VertexSet or a plain (N, d) array. At equal alpha only the
    lower cost enters the lower envelope and only the higher cost the upper
    one (each is a function of alpha). Both are monotone chains, and the
    hull is the lower envelope followed by the reversed upper envelope,
    their shared end points taken once.
    """
    verts = getattr(vertices, "vertices", vertices)
    verts = np.asarray(verts, dtype=float)
    alphas = verts @ np.asarray(a, dtype=float)
    costs = verts @ np.asarray(e, dtype=float)
    points = np.column_stack([alphas, costs])

    by_alpha = points[np.lexsort((costs, alphas))]
    _, first, counts = np.unique(by_alpha[:, 0], return_index=True, return_counts=True)
    lower = _half_hull(by_alpha[first])
    top = _half_hull(by_alpha[first + counts - 1][::-1])
    upper = top[::-1]
    if np.array_equal(top[0], lower[-1]):
        top = top[1:]
    if len(top) and np.array_equal(top[-1], lower[0]):
        top = top[:-1]
    hull = np.concatenate([lower, top])
    return InducedPolygon(
        points=points, hull=hull, lower_envelope=lower, upper_envelope=upper
    )


def envelope_min_cost(poly: InducedPolygon, alpha: float) -> float:
    """Linear interpolation on the lower envelope."""
    alpha = check_alpha(alpha, poly.alpha_min, poly.alpha_max)
    env = poly.lower_envelope
    return float(np.interp(alpha, env[:, 0], env[:, 1]))


def sample_doubly_stochastic(d: int, n_perms: int, seed) -> np.ndarray:
    """Convex mix of n_perms uniform permutations with Dirichlet(1) weights.

    Not uniform on the doubly-stochastic polytope; adequate for
    falsification sampling. Deterministic per seed.
    """
    if d > 10:
        raise DimensionTooLarge(f"dim {d} exceeds sampling cap 10")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_perms))
    out = np.zeros((d, d))
    for w in weights:
        out[np.arange(d), rng.permutation(d)] += w
    return out


def _mixtures(lam: np.ndarray, n: int, rng) -> np.ndarray:
    """n images sum_j w_j lam[pi_j] of lam, one per row.

    Per image: n_perms ~ U{1..2d}, Dirichlet(1) weights (exponentials
    normalised per image) and uniform permutations pi_j, drawn at most
    AUDIT_CHUNK // d permutations at a time.
    """
    d = len(lam)
    counts = rng.integers(1, 2 * d + 1, size=n)
    owner = np.repeat(np.arange(n), counts)
    w = rng.standard_exponential(len(owner))
    w /= np.add.reduceat(w, np.cumsum(counts) - counts)[owner]
    out = np.zeros((n, d))
    rows = max(1, AUDIT_CHUNK // d)
    for r0 in range(0, len(owner), rows):
        own = owner[r0 : r0 + rows]
        perms = rng.permuted(np.broadcast_to(np.arange(d), (len(own), d)), axis=1)
        starts = np.flatnonzero(np.diff(own, prepend=-1))
        out[own[starts]] += np.add.reduceat(w[r0 : r0 + rows, None] * lam[perms], starts)
    return out


def _audit_images(inst, n_samples: int, seed):
    """The audit's doubly-stochastic images of the spectrum, one per row, in chunks.

    A chunk holds AUDIT_CHUNK // (2 m^2) samples (at least one), m the
    largest block, so its permutations fit in one draw of `_mixtures`
    whenever 2 m^2 <= AUDIT_CHUNK. Each conserved block is mixed on its
    own (a flat instance is one block); a singleton block keeps its
    eigenvalue.
    """
    base = getattr(inst, "base", inst)
    structure = getattr(inst, "structure", None)
    lam = np.asarray(base.eigenvalues, dtype=float)
    d = len(lam)
    blocks = [np.arange(d)] if structure is None else list(map(np.asarray, structure.blocks))
    m = max(len(idx) for idx in blocks)
    per_chunk = max(1, AUDIT_CHUNK // (2 * m * m))
    rng = np.random.default_rng(seed)
    for first in range(0, n_samples, per_chunk):
        n = min(per_chunk, n_samples - first)
        images = np.empty((n, d))
        for idx in blocks:
            images[:, idx] = lam[idx] if len(idx) == 1 else _mixtures(lam[idx], n, rng)
        yield images


def monte_carlo_audit(
    inst, traj, n_samples: int = 10_000, seed=0, tolerance: float = 1e-9
) -> AuditReport:
    """Random doubly-stochastic images must stay on or above the trajectory cost.

    Accepts a ProblemInstance or a GeneralizedInstance (sampling is then
    per conserved block). By Birkhoff's theorem a doubly-stochastic image
    of the spectrum is a mixture sum_j w_j lam[pi_j], so no matrix is
    built. Per block of size m, each sample mixes n_perms ~ U{1..2m}
    uniform permutations of the block's eigenvalues with Dirichlet(1)
    weights. Samples come in chunks that draw at most AUDIT_CHUNK
    permutation entries at once (`_audit_images`), so memory stays a few
    MB at any d. Deterministic per seed. Violations are reported, not
    raised.
    """
    base = getattr(inst, "base", inst)
    ae = np.column_stack([base.target, base.cost])
    alphas, costs = np.concatenate([p @ ae for p in _audit_images(inst, n_samples, seed)]).T
    clipped = np.clip(alphas, traj.alpha_min, traj.alpha_max)
    omega = np.interp(clipped, traj.alphas, traj.omegas)
    slack = costs - omega
    return AuditReport(
        n_samples=n_samples,
        violations=int(np.sum(slack < -tolerance)),
        min_slack=float(slack.min()),
        tolerance=tolerance,
    )
