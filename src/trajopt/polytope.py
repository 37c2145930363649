"""Population-polytope primitives.

The reachable populations of a state with spectrum λ form the convex hull
of the permutations of λ. This module provides the majorization test, the
vertex enumeration with degeneracy counting, adjacent-valued swap
enumeration, and a brute-force edge oracle that is independent of the
adjacent-swap characterization (it solves a small LP instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import cluster_ranks
from .errors import DimensionTooLarge, NotAVertex
from .simplex import LPStatus, solve_lp

DEFAULT_MAX_ENUM_DIM = 9


@dataclass(frozen=True, eq=False)
class VertexSet:
    """All distinct permutations of a spectrum, one per row.

    eigenvalues holds the regularized spectrum: entries within eps of each
    other are snapped to their class mean so that "distinct permutation"
    is well defined and the count matches n!/prod(s_i!).
    """

    vertices: np.ndarray
    count: int
    eigenvalues: np.ndarray
    class_sizes: tuple[int, ...]


@dataclass(frozen=True)
class AvSwap:
    """Index pair with adjacent values, p[k] < p[l]."""

    k: int
    l: int


def majorizes(x, y, eps: float = 1e-12) -> bool:
    """True iff x majorizes y: descending prefix sums of x dominate y's."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return False
    cx = np.cumsum(np.sort(x)[::-1])
    cy = np.cumsum(np.sort(y)[::-1])
    if abs(cx[-1] - cy[-1]) > eps:
        return False
    return bool(np.all(cx >= cy - eps))


def degeneracy_classes(values, eps: float):
    """Regularize eps-close entries to class means.

    Returns (regularized values, class sizes sorted by descending value).
    """
    values = np.asarray(values, dtype=float)
    ranks = cluster_ranks(values, eps)
    reg = values.copy()
    sizes = []
    for r in range(ranks.max() + 1):
        members = ranks == r
        reg[members] = values[members].mean()
        sizes.append(int(members.sum()))
    return reg, tuple(sizes)


def vertex_count(lam, eps: float = 1e-12) -> int:
    """n!/prod(s_i!) for the degeneracy classes of lam."""
    _, sizes = degeneracy_classes(lam, eps)
    count = math.factorial(len(np.asarray(lam)))
    for s in sizes:
        count //= math.factorial(s)
    return count


def _distinct_permutations(values_desc: np.ndarray):
    """Yield the distinct arrangements of a descending multiset, lexicographically."""
    d = len(values_desc)
    uniq, counts = [], []
    for v in values_desc:
        if uniq and v == uniq[-1]:
            counts[-1] += 1
        else:
            uniq.append(float(v))
            counts.append(1)
    out = np.empty(d)

    def rec(pos):
        if pos == d:
            yield out.copy()
            return
        for i, v in enumerate(uniq):
            if counts[i] == 0:
                continue
            counts[i] -= 1
            out[pos] = v
            yield from rec(pos + 1)
            counts[i] += 1

    yield from rec(0)


def enumerate_vertices(
    lam, eps: float = 1e-12, max_dim: int = DEFAULT_MAX_ENUM_DIM
) -> VertexSet:
    """All distinct permutations of lam (after eps-regularization)."""
    lam = np.asarray(lam, dtype=float)
    d = len(lam)
    if d > max_dim:
        raise DimensionTooLarge(f"dim {d} exceeds enumeration cap {max_dim}")
    reg, sizes = degeneracy_classes(lam, eps)
    desc = np.sort(reg)[::-1]
    verts = np.array(list(_distinct_permutations(desc)))
    verts.setflags(write=False)
    return VertexSet(
        vertices=verts, count=len(verts), eigenvalues=reg, class_sizes=sizes
    )


def av_swaps(p, eps: float = 1e-12) -> list[AvSwap]:
    """All index pairs whose values are neighbors in the sorted distinct values.

    With degenerate entries, every index pair realizing a value adjacency is
    returned; pairs of equal values are not (no strict inequality to swap).
    """
    p = np.asarray(p, dtype=float)
    ranks = cluster_ranks(p, eps)
    members = [np.nonzero(ranks == r)[0] for r in range(ranks.max() + 1)]
    swaps = []
    for low, high in zip(members[:-1], members[1:]):
        for k in low:
            for l in high:
                swaps.append(AvSwap(k=int(k), l=int(l)))
    return swaps


def _find_vertex(vset: VertexSet, v: np.ndarray, eps: float) -> int:
    diffs = np.max(np.abs(vset.vertices - np.asarray(v, dtype=float)), axis=1)
    idx = int(np.argmin(diffs))
    if diffs[idx] > eps:
        raise NotAVertex("vector is not a vertex of the set")
    return idx


def segment_weight(v1, v2, vset: VertexSet, tol: float = 1e-9) -> float:
    """Minimal total weight on {v1, v2} over convex representations of their midpoint."""
    mid = 0.5 * (np.asarray(v1, dtype=float) + np.asarray(v2, dtype=float))
    i1 = _find_vertex(vset, v1, tol)
    i2 = _find_vertex(vset, v2, tol)
    if i1 == i2:
        raise NotAVertex("v1 and v2 are the same vertex")
    n = vset.count
    A = np.vstack([vset.vertices.T, np.ones(n)])
    b = np.append(mid, 1.0)
    c = np.zeros(n)
    c[i1] = 1.0
    c[i2] = 1.0
    status, _, obj = solve_lp(c, A, b, tol=tol)
    if status != LPStatus.OPTIMAL:
        raise RuntimeError(f"midpoint LP ended with status {status}")
    return obj


def is_edge(v1, v2, vset: VertexSet, eps: float = 1e-9) -> bool:
    """Brute-force edge test via linear feasibility.

    (v1, v2) is an edge iff the midpoint admits no convex representation
    placing weight below 1/2 on the pair; for these polytopes the minimal
    weight is 1 on edges and drops to ~0 otherwise, so the threshold is
    uncritical.
    """
    return segment_weight(v1, v2, vset, tol=eps) >= 0.5


def edge_pairs(vset: VertexSet, eps: float = 1e-9, symmetry: bool = True) -> set:
    """All unordered vertex-index pairs passing is_edge.

    With symmetry=False every pair is solved independently (the reference).
    With symmetry=True pairs related by a coordinate permutation share one
    LP (the polytope is permutation invariant). The orbit key of (v_i, v_j)
    relabels coordinates so v_i becomes the descending spectrum (one stable
    argsort per i), then sorts v_j descending inside each degeneracy block
    of the spectrum, the residual relabeling freedom. Keys of all pairs
    i < j are computed at once and grouped bitwise (an int64 view of the
    floats); is_edge runs once per orbit, at its first pair in row-major
    order.
    """
    n = vset.count
    pairs = set()
    if not symmetry:
        for i in range(n):
            for j in range(i + 1, n):
                if is_edge(vset.vertices[i], vset.vertices[j], vset, eps):
                    pairs.add((i, j))
        return pairs

    verts = vset.vertices
    desc = np.sort(vset.eigenvalues)[::-1]
    iu, ju = np.triu_indices(n, 1)
    order = np.argsort(-verts, axis=1, kind="stable")
    keys = verts[ju[:, None], order[iu]]
    bounds = np.flatnonzero(np.diff(desc, prepend=np.nan, append=np.nan))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start > 1:
            keys[:, start:stop] = -np.sort(-keys[:, start:stop], axis=1)
    _, first, orbit = np.unique(
        keys.view(np.int64), axis=0, return_index=True, return_inverse=True
    )
    verdicts = np.array(
        [is_edge(verts[iu[f]], verts[ju[f]], vset, eps) for f in first], dtype=bool
    )
    hits = verdicts[orbit.reshape(-1)]
    return {(int(i), int(j)) for i, j in zip(iu[hits], ju[hits])}


def av_swap_pairs(vset: VertexSet, eps: float = 1e-12) -> set:
    """Vertex-index pairs predicted to be edges by the adjacent-swap rule."""
    index = {vset.vertices[i].tobytes(): i for i in range(vset.count)}
    pairs = set()
    for i in range(vset.count):
        v = vset.vertices[i]
        for sw in av_swaps(v, eps):
            w = v.copy()
            w[sw.k], w[sw.l] = w[sw.l], w[sw.k]
            j = index[w.tobytes()]
            pairs.add((min(i, j), max(i, j)))
    return pairs
