"""Population-polytope primitives.

The reachable populations of a state with spectrum λ form the convex hull
of the permutations of λ. This module provides the majorization test and
the default enumeration cap `DEFAULT_MAX_ENUM_DIM` (both defined in `core`,
whose `validate` and `cli` use them without loading this module), the vertex
enumeration with degeneracy counting, adjacent-valued swap enumeration,
and a brute-force edge oracle that is independent of the adjacent-swap
characterization (it solves a small LP instead). The LP for a vertex pair
asks for the least weight on the pair over the convex representations of
its midpoint: 1 on an edge, 0 otherwise. It runs on the vertex
coordinates scaled to [0, 1], has d rows (every coordinate but the last,
then the weight sum) and starts from the pair itself.

Enumeration order is a contract: `enumerate_vertices` lists the distinct
arrangements lexicographically in the positions of the distinct values,
largest value first, so row 0 is the descending spectrum and the last row
the ascending one. The rows come from a first-position recursion memoised
on the class counts. Each vertex is also one int64, its value ranks
(0 = largest) read as digits in base m, the number of distinct values;
rows in enumeration order have increasing codes, so a vertex is found by
its code with one binary search. `edge_pairs` keys an unordered vertex
pair by the smaller code of its two ordered orbit keys; every orbit holds
a pair of vertex 0, so only those n - 1 pairs are keyed, and vertex 0's
edges are relabelled onto every other vertex. `av_swap_pairs` finds a
swapped vertex by its code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MAX_ENUM_DIM, cluster_ranks, majorizes
from .errors import DimensionTooLarge, NotAVertex
from .simplex import solve_lp

# The least gap between distinct eigenvalues, relative to their spread,
# at which the LP edge test is trusted. Vertices that differ by a swap of
# two values closer than this are nearly equal columns of the LP, and its
# pivots lose the verdict to rounding (see README, `verify`).
EDGE_MIN_GAP = 1e-5

# Floats one stacked LP solve holds (2 MB of float64): per LP of n
# vertices and m rows, a cost and a reduced-cost row and an m×m basis
# inverse.
LP_CHUNK = 1 << 18


@dataclass(frozen=True, eq=False)
class VertexSet:
    """All distinct permutations of a spectrum, one per row.

    eigenvalues holds the regularized spectrum: entries within eps of each
    other are snapped to their class mean so that "distinct permutation"
    is well defined and the count matches n!/prod(s_i!).
    """

    vertices: np.ndarray
    eigenvalues: np.ndarray

    @property
    def count(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class AvSwap:
    """Index pair with adjacent values, p[k] < p[l]."""

    k: int
    l: int


def degeneracy_classes(values, eps: float) -> np.ndarray:
    """The values with eps-close entries regularized to their class means."""
    values = np.asarray(values, dtype=float)
    ranks = cluster_ranks(values, eps)
    sizes = np.bincount(ranks)
    reg = values.copy()
    for r in np.flatnonzero(sizes > 1).tolist():
        members = ranks == r
        reg[members] = values[members].mean()
    return reg


def vertex_count(lam, eps: float = 1e-12) -> int:
    """n!/prod(s_i!) for the degeneracy classes of lam."""
    lam = np.asarray(lam, dtype=float)
    count = math.factorial(len(lam))
    for s in np.bincount(cluster_ranks(lam, eps)).tolist():
        count //= math.factorial(s)
    return count


def _arrangements(counts: tuple, itype, memo: dict) -> np.ndarray:
    """The distinct arrangements of class indices with these counts, one per row, lexicographically.

    A first-position recursion: the rows starting with class v are v
    followed by the arrangements of the counts with one v taken.
    Arrangements depend only on the tuple of nonzero counts, so memo keeps
    each tuple's rows; where taking v empties its class, the rows of the
    shorter tuple are relabelled by sub + (sub >= v). For distinct values
    that builds one subproblem per level.
    """
    rows = memo.get(counts)
    if rows is not None:
        return rows
    if len(counts) == 1:
        rows = np.zeros((1, counts[0]), dtype=itype)
    else:
        subs = []
        for v, c in enumerate(counts):
            if c > 1:
                subs.append(_arrangements(counts[:v] + (c - 1,) + counts[v + 1 :], itype, memo))
            else:
                sub = _arrangements(counts[:v] + counts[v + 1 :], itype, memo)
                subs.append(sub + (sub >= v))
        rows = np.empty((sum(map(len, subs)), sum(counts)), dtype=itype)
        rows[:, 0] = np.repeat(np.arange(len(counts), dtype=itype), [len(sub) for sub in subs])
        np.concatenate(subs, out=rows[:, 1:])
    memo[counts] = rows
    return rows


def _distinct_permutations(values_desc: np.ndarray) -> np.ndarray:
    """The distinct arrangements of a descending multiset, one per row, lexicographically.

    The arrangements of its class counts, largest value first (see
    _arrangements), with one memo per call.
    """
    d = len(values_desc)
    starts = np.flatnonzero(np.r_[True, values_desc[1:] != values_desc[:-1]])
    counts = tuple(np.diff(np.r_[starts, d]).tolist())
    return values_desc[starts][_arrangements(counts, np.min_scalar_type(d), {})]


def enumerate_vertices(
    lam, eps: float = 1e-12, max_dim: int = DEFAULT_MAX_ENUM_DIM
) -> VertexSet:
    """All distinct permutations of lam (after eps-regularization)."""
    lam = np.asarray(lam, dtype=float)
    d = len(lam)
    if d > max_dim:
        raise DimensionTooLarge(f"dim {d} exceeds enumeration cap {max_dim}")
    reg = degeneracy_classes(lam, eps)
    desc = np.sort(reg)[::-1]
    verts = _distinct_permutations(desc)
    verts.setflags(write=False)
    return VertexSet(vertices=verts, eigenvalues=reg)


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
    """Equality rows of "a convex combination of the vertices", on coordinates scaled to [0, 1].

    Each coordinate x maps to (x - lo) / (hi - lo), lo and hi the least and
    greatest vertex entry; the map is affine, so it keeps every convex
    weight, and the LP's absolute tolerances become relative to the
    spread of the values. The rows are every scaled coordinate but the
    last, then the weight sum: all vertices permute the same values, so
    their coordinates share one sum, and the last coordinate row follows
    from the others and the weight-sum row.
    """
    lo, hi = verts.min(), verts.max()
    scaled = (verts - lo) / (hi - lo if hi > lo else 1.0)
    return np.vstack([scaled[:, :-1].T, np.ones(len(verts))])


def _pair_weights(A: np.ndarray, i1, i2, tol: float) -> np.ndarray:
    """segment_weight of each vertex pair (i1[k], i2[k]), given A = _convexity_rows(vertices).

    i1[k] != i2[k]. LP k has b = (A[:, i1[k]] + A[:, i2[k]]) / 2, so the
    pair itself is a feasible basis to start from. The weight is NaN where
    the LP ends otherwise than optimal, which rounding can cause below
    EDGE_MIN_GAP. The LPs share A, so each chunk of them is one stacked
    `solve_lp` call; a chunk holds at most LP_CHUNK floats (at least one
    LP).
    """
    m, n = A.shape
    per_chunk = max(1, LP_CHUNK // (2 * n + m * m))
    weights = np.empty(len(i1))
    for first in range(0, len(i1), per_chunk):
        pair = np.column_stack([i1[first : first + per_chunk], i2[first : first + per_chunk]])
        lps = np.arange(len(pair))[:, None]
        b = 0.5 * (A[:, pair[:, 0]] + A[:, pair[:, 1]]).T
        c = np.zeros((len(pair), n))
        c[lps, pair] = 1.0
        _, _, weights[first : first + per_chunk] = solve_lp(c, A, b, tol=tol, basis=pair)
    return weights


def segment_weight(v1, v2, vset: VertexSet, tol: float = 1e-9) -> float:
    """Minimal total weight on {v1, v2} over convex representations of their midpoint.

    NaN where the LP cannot finish, which rounding can cause below
    EDGE_MIN_GAP (see _pair_weights).
    """
    i1 = _find_vertex(vset, v1, tol)
    i2 = _find_vertex(vset, v2, tol)
    if i1 == i2:
        raise NotAVertex("v1 and v2 are the same vertex")
    return float(_pair_weights(_convexity_rows(vset.vertices), np.array([i1]), np.array([i2]), tol)[0])


def is_edge(v1, v2, vset: VertexSet, eps: float = 1e-9) -> bool:
    """Brute-force edge test via linear feasibility.

    (v1, v2) is an edge iff the midpoint admits no convex representation
    placing weight below 1/2 on the pair; for these polytopes the minimal
    weight is 1 on edges and drops to ~0 otherwise, so the threshold is
    uncritical.
    """
    return segment_weight(v1, v2, vset, tol=eps) >= 0.5


def relative_gap(vset: VertexSet) -> float:
    """The least gap between distinct eigenvalues over max - min; inf with fewer than two values."""
    values = np.unique(vset.eigenvalues)
    if len(values) < 2:
        return float("inf")
    return float(np.diff(values).min() / (values[-1] - values[0]))


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
    the codes of (i, j) and (j, i). Coordinate permutations act
    transitively on the vertices, so every orbit holds a pair (0, j): keys
    are computed for those n - 1 pairs only, and one LP runs per distinct
    key, at its least j (the orbit's first pair in row-major order). The
    relabelling order[0] -> order[i] maps vertex 0 to vertex i and its
    edge neighbours to those of vertex i, each found by its code, as in
    av_swap_pairs: O(n·deg·d) in all, not O(n²·d).
    Either way the LPs share one constraint matrix and are solved as
    stacks of up to LP_CHUNK floats, one `solve_lp` call each, each LP
    from its own pair as the starting basis; each LP gives the weight it
    gives alone. Below EDGE_MIN_GAP (see relative_gap) the verdicts are
    not to be trusted; they are still returned, and no error is raised.
    """
    verts = vset.vertices
    A = _convexity_rows(verts)
    n = len(verts)
    if not symmetry:
        iu, ju = np.triu_indices(n, 1)
        hits = _pair_weights(A, iu, ju, eps) >= 0.5
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

    others = np.arange(1, n)
    zeros = np.zeros_like(others)
    codes = np.minimum(ordered_codes(zeros, others), ordered_codes(others, zeros))
    _, first, orbit = np.unique(codes, return_index=True, return_inverse=True)
    verdicts = _pair_weights(A, zeros[first], others[first], eps) >= 0.5
    neighbours = others[verdicts[orbit.reshape(-1)]]
    # vertex i is vertex 0 relabelled by order[0] -> order[i] (order[0] is
    # the identity); its neighbours are vertex 0's, relabelled alike
    images = np.searchsorted(ranks @ weights, weights[order] @ ranks[neighbours].T)
    v = np.repeat(np.arange(n), len(neighbours))
    w = images.reshape(-1)
    return set(zip(np.minimum(v, w).tolist(), np.maximum(v, w).tolist()))


def av_swap_pairs(vset: VertexSet, eps: float = 1e-12) -> set:
    """Vertex-index pairs predicted to be edges by the adjacent-swap rule.

    The pairs av_swaps gives at every vertex, found in one broadcast over
    all vertices: positions k, l whose values sit in neighboring eps-classes,
    p[k] below p[l]. The swapped vertex is looked up by its code, with one
    binary search, since codes increase in enumeration order.
    """
    ranks, weights = _rank_codes(vset)
    values = np.unique(vset.eigenvalues)[::-1]
    cls = cluster_ranks(values, eps)[ranks]
    v, k, l = np.nonzero(cls[:, None, :] == cls[:, :, None] + 1)
    codes = ranks @ weights
    swapped = codes[v] + (ranks[v, l] - ranks[v, k]) * (weights[k] - weights[l])
    w = np.searchsorted(codes, swapped)
    return set(zip(np.minimum(v, w).tolist(), np.maximum(v, w).tolist()))
