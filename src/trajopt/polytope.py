"""Population-polytope primitives.

The reachable populations of a state with spectrum λ form the convex hull
of the permutations of λ. This module provides the majorization test and
the default enumeration cap `DEFAULT_MAX_ENUM_DIM` (both defined in `core`,
whose `validate` and `cli` use them without loading this module), the vertex
enumeration with degeneracy counting, adjacent-valued swap enumeration,
and an edge test that is independent of the adjacent-swap
characterization: it decides a pair of vertices on the faces cut out by
Rado's inequalities, x(S) <= the sum of the |S| largest eigenvalues
(R. Rado, "An inequality", J. London Math. Soc. 1952), counting, in
integers on the value ranks, the rank of the sets tight at both
vertices, and needs no tolerance (see _face_is_edge). `edge_pairs` runs
it on every pair of a vertex set, `is_edge` on one pair, of one
permutation polytope or of a product of them.

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


def _below_masks(ranks: np.ndarray, m: int) -> np.ndarray:
    """Per vertex (row of value ranks), the positions ranked before class c as an int64 bit mask, c = 0..m."""
    bits = np.int64(1) << np.arange(ranks.shape[1], dtype=np.int64)
    return (ranks[:, None, :] < np.arange(m + 1)[:, None]) @ bits


def _face_is_edge(below_u: np.ndarray, below_v: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Whether each vertex pair (u, v) is an edge, given their _below_masks and the class sizes.

    Exact on the value ranks. A k-set S is tight at a vertex when x(S) is
    the sum of the k largest eigenvalues: S holds every position ranked
    before c, the class of the k-th largest value, and only positions
    ranked c or before. So the k-sets tight at both u and v lie between
    A = {rank < c in u or v} and B = {rank <= c in u and v}; there are
    some iff A ⊆ B and |A| <= k <= |B|, and they span 1_A if |A| = k,
    1_B if |B| = k, and 1_A with every e_x, x in B∖A, if |A| < k < |B|.
    k runs to d, where B is every position. The pair is an edge iff the
    sets tight at both span d − 1 dimensions. Take the free coordinates
    F (the union of those B∖A) out: as c grows, A and B grow and every B
    lies in the next A, so the sets left form a chain, and the rank is
    |F| plus the number of distinct nonempty sets left. The masks are
    int64 and d <= 62 (_rank_codes and is_edge refuse more where there
    are pairs), so bitwise_count counts them.
    """
    d = int(sizes.sum())
    cls = np.repeat(np.arange(len(sizes)), sizes)
    A = (below_u[:, :-1] | below_v[:, :-1])[:, cls]
    B = (below_u[:, 1:] & below_v[:, 1:])[:, cls]
    k = np.arange(1, d + 1)
    a, b = np.bitwise_count(A), np.bitwise_count(B)
    nested = (A & ~B) == 0
    between = nested & (a < k) & (k < b)
    free = np.bitwise_or.reduce(np.where(between, B & ~A, 0), axis=1)
    sets = np.concatenate(
        [np.where(between | nested & (a == k), A, 0), np.where(nested & (b == k), B, 0)], axis=1
    )
    sets = np.sort(sets & ~free[:, None], axis=1)
    distinct = np.count_nonzero(sets[:, 1:] != sets[:, :-1], axis=1) + (sets[:, 0] != 0)
    return np.bitwise_count(free) + distinct == d - 1


def is_edge(v1, v2, vset: VertexSet, eps: float = 1e-9, blocks=None) -> bool:
    """Whether vertices v1 and v2 of vset span an edge, by the face test (_face_is_edge).

    Each vector is found among the rows of vset within eps (NotAVertex
    for a vector that is no row, or for one row given twice). Without
    blocks the rows are arrangements of one spectrum. With blocks (the
    conserved blocks of a product polytope, as `core.block_indices` gives
    them, each row arranging each block's spectrum) the pair is an edge
    exactly when it differs in one block and is an edge of that block's
    polytope.
    """
    i1 = _find_vertex(vset, v1, eps)
    i2 = _find_vertex(vset, v2, eps)
    if i1 == i2:
        raise NotAVertex("v1 and v2 are the same vertex")
    pair = vset.vertices[[i1, i2]]
    if blocks is None:
        blocks = [np.arange(pair.shape[1])]
    moved = [idx for idx in blocks if np.any(pair[0, idx] != pair[1, idx])]
    if len(moved) != 1:
        return False
    pair = pair[:, moved[0]]
    if pair.shape[1] > 62:
        raise DimensionTooLarge(f"{pair.shape[1]} positions exceed the 62 bits of a face mask")
    values = np.unique(pair[0])
    ranks = len(values) - 1 - np.searchsorted(values, pair)
    below = _below_masks(ranks, len(values))
    return bool(_face_is_edge(below[:1], below[1:], np.bincount(ranks[0]))[0])


def edge_pairs(vset: VertexSet, symmetry: bool = True) -> set:
    """All unordered vertex-index pairs that are edges, by the face test (_face_is_edge).

    With symmetry=False every pair is tested (the reference). With
    symmetry=True pairs related by a coordinate permutation share one
    test (the polytope is permutation invariant). The ordered key of
    (v_i, v_j) relabels coordinates so v_i becomes the descending spectrum
    (one stable argsort per i), then sorts v_j descending inside each
    degeneracy block of the spectrum, the residual relabeling freedom. The
    key is itself an arrangement of the spectrum, so it encodes as one
    int64 (see _rank_codes); the orbit key of {v_i, v_j} is the smaller of
    the codes of (i, j) and (j, i). Coordinate permutations act
    transitively on the vertices, so every orbit holds a pair (0, j): keys
    are computed for those n - 1 pairs only, and one pair per distinct
    key is tested, at its least j (the orbit's first pair in row-major
    order), all in one array pass. The relabelling order[0] -> order[i]
    maps vertex 0 to vertex i and its edge neighbours to those of vertex
    i, each found by its code, as in av_swap_pairs: O(n·deg·d) in all,
    not O(n²·d).
    """
    ranks, weights = _rank_codes(vset)
    n = len(ranks)
    sizes = np.bincount(ranks[0])
    if not symmetry:
        iu, ju = np.triu_indices(n, 1)
        below = _below_masks(ranks, len(sizes))
        hits = _face_is_edge(below[iu], below[ju], sizes)
        return set(zip(iu[hits].tolist(), ju[hits].tolist()))

    order = np.argsort(ranks, axis=1, kind="stable")
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
    verdicts = _face_is_edge(
        _below_masks(ranks[:1], len(sizes)), _below_masks(ranks[others[first]], len(sizes)), sizes
    )
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
