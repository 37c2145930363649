"""Independent brute-force verification of built trajectories.

Projecting every polytope vertex to (target, cost) gives a polygon whose
lower boundary is the minimal cost function; comparing that envelope with
the constructed trajectory, and sampling random vertices of the polytope,
falsifies the construction without sharing any code path with it.

`induced_polygon` builds the lower envelope only; the upper envelope and
the hull are built on their first read and kept. Each envelope sorts the
alphas once and reduces each run of equal alphas to its least (greatest)
cost, then drops the points that do not turn convex. `envelope_min_cost`
interpolates on the lower envelope's breakpoints, held as Python floats,
with np.interp's branches, so it returns np.interp's value bit for bit
without a numpy call per lookup.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import block_indices, block_of_input, check_alpha

# Image entries the audit draws at once: n samples of dimension d per
# chunk with n*d <= AUDIT_CHUNK (2 MB of float64).
AUDIT_CHUNK = 1 << 18


@dataclass(frozen=True, eq=False)
class InducedPolygon:
    """Image of the population polytope under (target, cost).

    points: all projected vertices, one (alpha, eps) row each
    lower_envelope: (alpha, eps) breakpoints of the lower boundary
    upper_envelope: (alpha, eps) breakpoints of the upper boundary
    hull: convex hull cycle, counter-clockwise

    The upper envelope and the hull are built when first read and then
    kept; the lower envelope is built with the polygon.
    """

    points: np.ndarray
    lower_envelope: np.ndarray

    @property
    def alpha_min(self) -> float:
        return float(self.lower_envelope[0, 0])

    @property
    def alpha_max(self) -> float:
        return float(self.lower_envelope[-1, 0])

    @cached_property
    def _breakpoints(self) -> tuple[list, list]:
        """The lower envelope's alphas and costs as lists of Python floats."""
        return self.lower_envelope[:, 0].tolist(), self.lower_envelope[:, 1].tolist()

    @cached_property
    def upper_envelope(self) -> np.ndarray:
        top = _cost_per_alpha(self.points[:, 0], self.points[:, 1], upper=True)
        return _half_hull(top[::-1])[::-1]

    @cached_property
    def hull(self) -> np.ndarray:
        """The lower envelope, then the reversed upper one, their shared end points taken once."""
        lower, top = self.lower_envelope, self.upper_envelope[::-1]
        if np.array_equal(top[0], lower[-1]):
            top = top[1:]
        if len(top) and np.array_equal(top[-1], lower[0]):
            top = top[:-1]
        return np.concatenate([lower, top])


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
    at the monotone chain's output. One keep mask serves every pass: its
    prefix of the chain's length, both ends kept.
    """
    chain = pts
    keep = np.ones(len(pts), dtype=bool)
    while (n := len(chain)) > 2:
        o, a, b = chain[:-2], chain[1:-1], chain[2:]
        cross = (a[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (a[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])
        drop = cross <= 0.0
        if not drop.any():
            break
        np.logical_not(drop, out=keep[1 : n - 1])
        keep[n - 1] = True
        chain = chain[keep[:n]]
    return chain


def _cost_per_alpha(alphas, costs, upper: bool = False) -> np.ndarray:
    """One (alpha, cost) row per distinct alpha, ascending: the least cost, or with upper the greatest.

    One argsort of the alphas, then one reduceat over each run of equal
    alphas. Each row is the point a lexsort by (alpha, cost) puts first in
    its run (last with upper), ties in cost going to the lower input index
    (the higher with upper). The reduced values can differ from that point
    only in the sign of a zero, since -0.0 == 0.0; when a row holds a zero,
    each run's point is picked by its index instead.
    """
    reduce = np.maximum if upper else np.minimum
    order = np.argsort(alphas)
    xs, cs = alphas[order], costs[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ys = reduce.reduceat(cs, starts)
    rows = np.column_stack([xs[starts], ys])
    if (rows == 0.0).any():
        runs = np.diff(np.append(starts, len(xs)))
        at = np.where(cs == np.repeat(ys, runs), order, -1 if upper else len(xs))
        k = reduce.reduceat(at, starts)
        rows = np.column_stack([alphas[k], costs[k]])
    return rows


def induced_polygon(vertices, a, e) -> InducedPolygon:
    """Project vertices (rows, input basis) to (target, cost) and take the lower hull.

    Accepts a VertexSet or a plain (N, d) array. At equal alpha only the
    lower cost enters the lower envelope and only the higher cost the upper
    one (each is a function of alpha, see _cost_per_alpha). Both are
    monotone chains; the upper one, and the hull they bound, are built only
    when read.
    """
    verts = getattr(vertices, "vertices", vertices)
    verts = np.asarray(verts, dtype=float)
    alphas = verts @ np.asarray(a, dtype=float)
    costs = verts @ np.asarray(e, dtype=float)
    return InducedPolygon(
        points=np.column_stack([alphas, costs]),
        lower_envelope=_half_hull(_cost_per_alpha(alphas, costs)),
    )


def envelope_min_cost(poly: InducedPolygon, alpha: float) -> float:
    """Linear interpolation on the lower envelope, bit for bit np.interp's.

    A bisection on the breakpoints held as Python floats, then the
    branches of np.interp: a breakpoint's own cost where alpha sits on one
    (or the envelope has one point), else slope * (alpha - x_j) + y_j with
    np.interp's NaN fallbacks. This module shares no code with
    `trajectory`, whose omega_opt it checks.
    """
    xs, ys = poly._breakpoints
    alpha = check_alpha(float(alpha), xs[0], xs[-1])
    j = bisect_right(xs, alpha) - 1
    if j == len(xs) - 1 or xs[j] == alpha:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    value = slope * (alpha - xs[j]) + ys[j]
    if value != value:
        value = slope * (alpha - xs[j + 1]) + ys[j + 1]
        if value != value and ys[j] == ys[j + 1]:
            value = ys[j]
    return value


def _audit_images(inst, n_samples: int, seed):
    """The audit's vertex images of the spectrum, one per row, in chunks.

    Each sample is one vertex of the population polytope: per block of the
    conserved vector (an instance without one is one block), the block's
    eigenvalues under one uniform permutation, one row of `rng.permuted`;
    a singleton block keeps its eigenvalue. A chunk holds AUDIT_CHUNK // d
    samples (at least one), so a sample costs O(d) and memory stays about
    2 MB at any d and block layout.
    """
    lam = np.asarray(inst.eigenvalues, dtype=float)
    d = len(lam)
    blocks = block_indices(block_of_input(inst), d)
    per_chunk = max(1, AUDIT_CHUNK // d)
    rng = np.random.default_rng(seed)
    for first in range(0, n_samples, per_chunk):
        n = min(per_chunk, n_samples - first)
        images = np.empty((n, d))
        for idx in blocks:
            block = lam[idx]
            if len(idx) > 1:
                block = rng.permuted(np.broadcast_to(block, (n, len(idx))), axis=1)
            images[:, idx] = block
        yield images


def monte_carlo_audit(
    inst, traj, n_samples: int = 10_000, seed=0, tolerance: float = 1e-9
) -> AuditReport:
    """Random vertices of the population polytope must stay on or above the trajectory cost.

    With a conserved vector, sampling is per conserved block. Each sample
    is one vertex: per block, a uniform permutation of the block's
    eigenvalues (`_audit_images`), so a sample costs O(sum of block sizes)
    and the audit O(n_samples * d); memory stays about 2 MB at any d.

    Vertices suffice. By Birkhoff's theorem every doubly-stochastic image
    of the spectrum is a mixture sum_j w_j v_j of vertices v_j; its target
    and cost are the same mixture of theirs. For a convex omega, which
    `verify`'s gradient-monotone check establishes, Jensen's inequality
    gives sum_j w_j omega(alpha_j) >= omega(sum_j w_j alpha_j). So if the
    mixture's cost falls below omega at its target, some vertex's cost
    falls below omega at its own target: the mixture's violation implies
    a violation at one of its vertices, and the vertices lie nearer the
    boundary being tested (Marshall, Olkin and Arnold, Inequalities:
    Theory of Majorization, 2011).

    Deterministic per seed. Violations are reported, not raised; an
    n_samples below 1 raises ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    ae = np.column_stack([inst.target, inst.cost])
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
