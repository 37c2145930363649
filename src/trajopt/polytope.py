"""Population-polytope primitives.

The reachable populations of a state with spectrum λ form the convex hull
of the permutations of λ. This module provides the majorization test, the
vertex enumeration with degeneracy counting, adjacent-valued swap
enumeration, and a brute-force edge oracle that is independent of the
adjacent-swap characterization (it solves a small LP instead).

Enumeration order is a contract: `enumerate_vertices` lists the distinct
arrangements lexicographically in the positions of the distinct values,
largest value first, so row 0 is the descending spectrum and the last row
the ascending one. Each vertex is also one int64, its value ranks
(0 = largest) read as digits in base m, the number of distinct values;
rows in enumeration order have increasing codes. `edge_pairs` keys an
unordered vertex pair by the smaller code of its two ordered orbit keys,
and `av_swap_pairs` finds a swapped vertex by its code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import cluster_ranks
from .errors import DimensionTooLarge, NotAVertex
from .simplex import LPStatus, solve_lp

DEFAULT_MAX_ENUM_DIM = 9

# Simplex tableau entries one stacked LP solve holds (2 MB of float64).
LP_CHUNK = 1 << 18


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


def _distinct_permutations(values_desc: np.ndarray) -> np.ndarray:
    """The distinct arrangements of a descending multiset, one per row, lexicographically.

    Rows grow one position per level: every prefix is extended by each value
    it still has left, largest first, which is the order a depth-first walk
    emits them in.
    """
    d = len(values_desc)
    starts = np.flatnonzero(np.r_[True, values_desc[1:] != values_desc[:-1]])
    itype = np.min_scalar_type(d)
    left = np.diff(np.r_[starts, d]).astype(itype)[None, :]
    rows = np.empty((1, 0), dtype=itype)
    for _ in range(d):
        prefix, value = np.nonzero(left)
        rows = np.column_stack([rows[prefix], value.astype(itype)])
        left = left[prefix]
        left[np.arange(len(prefix)), value] -= 1
    return values_desc[starts][rows]


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
    verts = _distinct_permutations(desc)
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


def _convexity_rows(verts: np.ndarray) -> np.ndarray:
    """Equality rows of "a convex combination of the vertices": coordinates, then weight sum."""
    return np.vstack([verts.T, np.ones(len(verts))])


def _pair_weights(verts: np.ndarray, A: np.ndarray, i1, i2, tol: float) -> np.ndarray:
    """segment_weight of each vertex pair (i1[k], i2[k]), given A = _convexity_rows(verts).

    i1[k] != i2[k]. The LPs share A, so each chunk of them is one stacked `solve_lp` call;
    a chunk holds at most LP_CHUNK tableau entries (at least one LP).
    """
    n = len(verts)
    m = len(A)
    per_chunk = max(1, LP_CHUNK // ((m + 1) * (n + m + 1)))
    weights = np.empty(len(i1))
    for first in range(0, len(i1), per_chunk):
        rows1 = i1[first : first + per_chunk]
        rows2 = i2[first : first + per_chunk]
        lps = np.arange(len(rows1))
        b = np.column_stack([0.5 * (verts[rows1] + verts[rows2]), np.ones(len(lps))])
        c = np.zeros((len(lps), n))
        c[lps, rows1] = 1.0
        c[lps, rows2] = 1.0
        status, _, obj = solve_lp(c, A, b, tol=tol)
        for s in status:
            if s != LPStatus.OPTIMAL:
                raise RuntimeError(f"midpoint LP ended with status {s}")
        weights[first : first + per_chunk] = obj
    return weights


def segment_weight(v1, v2, vset: VertexSet, tol: float = 1e-9) -> float:
    """Minimal total weight on {v1, v2} over convex representations of their midpoint."""
    i1 = _find_vertex(vset, v1, tol)
    i2 = _find_vertex(vset, v2, tol)
    if i1 == i2:
        raise NotAVertex("v1 and v2 are the same vertex")
    verts = vset.vertices
    return float(_pair_weights(verts, _convexity_rows(verts), np.array([i1]), np.array([i2]), tol)[0])


def is_edge(v1, v2, vset: VertexSet, eps: float = 1e-9) -> bool:
    """Brute-force edge test via linear feasibility.

    (v1, v2) is an edge iff the midpoint admits no convex representation
    placing weight below 1/2 on the pair; for these polytopes the minimal
    weight is 1 on edges and drops to ~0 otherwise, so the threshold is
    uncritical.
    """
    return segment_weight(v1, v2, vset, tol=eps) >= 0.5


def _rank_codes(vset: VertexSet):
    """Vertices as value ranks (0 = largest distinct value) and the int64 code weights.

    A row of ranks r encodes as r @ weights, its digits in base m, the
    number of distinct values; distinct arrangements get distinct codes.
    """
    values = np.unique(vset.eigenvalues)
    m = len(values)
    d = vset.vertices.shape[1]
    if m**d > np.iinfo(np.int64).max:
        raise DimensionTooLarge(f"{m}**{d} vertex codes do not fit in int64")
    ranks = m - 1 - np.searchsorted(values, vset.vertices)
    return ranks, m ** np.arange(d - 1, -1, -1, dtype=np.int64)


def edge_pairs(vset: VertexSet, eps: float = 1e-9, symmetry: bool = True) -> set:
    """All unordered vertex-index pairs passing is_edge.

    With symmetry=False every pair is solved independently (the reference).
    With symmetry=True pairs related by a coordinate permutation share one
    LP (the polytope is permutation invariant). The ordered key of
    (v_i, v_j) relabels coordinates so v_i becomes the descending spectrum
    (one stable argsort per i), then sorts v_j descending inside each
    degeneracy block of the spectrum, the residual relabeling freedom. The
    key is itself an arrangement of the spectrum, so it encodes as one
    int64 (see _rank_codes); the orbit key of {v_i, v_j} is the smaller of
    the codes of (i, j) and (j, i). Keys of all pairs i < j are computed at
    once, and one LP runs per orbit, at its first pair in row-major order.
    Either way the LPs share one constraint matrix and are solved as
    stacks of up to LP_CHUNK tableau entries, one `solve_lp` call each;
    each LP gives the weight it gives alone.
    """
    verts = vset.vertices
    A = _convexity_rows(verts)
    n = len(verts)
    iu, ju = np.triu_indices(n, 1)
    if not symmetry:
        hits = _pair_weights(verts, A, iu, ju, eps) >= 0.5
        return {(int(i), int(j)) for i, j in zip(iu[hits], ju[hits])}

    ranks, weights = _rank_codes(vset)
    order = np.argsort(ranks, axis=1, kind="stable")
    sizes = np.bincount(ranks[0])
    bounds = np.r_[0, np.cumsum(sizes)]

    def ordered_codes(first, second):
        keys = ranks[second[:, None], order[first]]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if stop - start > 1:
                keys[:, start:stop] = np.sort(keys[:, start:stop], axis=1)
        return keys @ weights

    codes = np.minimum(ordered_codes(iu, ju), ordered_codes(ju, iu))
    _, first, orbit = np.unique(codes, return_index=True, return_inverse=True)
    verdicts = _pair_weights(verts, A, iu[first], ju[first], eps) >= 0.5
    hits = verdicts[orbit.reshape(-1)]
    return {(int(i), int(j)) for i, j in zip(iu[hits], ju[hits])}


def av_swap_pairs(vset: VertexSet, eps: float = 1e-12) -> set:
    """Vertex-index pairs predicted to be edges by the adjacent-swap rule.

    The pairs av_swaps gives at every vertex, found in one broadcast over
    all vertices: positions k, l whose values sit in neighboring eps-classes,
    p[k] below p[l]. The swapped vertex is looked up by its code.
    """
    ranks, weights = _rank_codes(vset)
    values = np.unique(vset.eigenvalues)[::-1]
    cls = cluster_ranks(values, eps)[ranks]
    v, k, l = np.nonzero(cls[:, None, :] == cls[:, :, None] + 1)
    codes = ranks @ weights
    swapped = codes[v] + (ranks[v, l] - ranks[v, k]) * (weights[k] - weights[l])
    sorter = np.argsort(codes)
    w = sorter[np.searchsorted(codes, swapped, sorter=sorter)]
    return set(zip(np.minimum(v, w).tolist(), np.maximum(v, w).tolist()))
