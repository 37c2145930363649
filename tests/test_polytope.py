import gc
import itertools
import math

import numpy as np
import pytest

from trajopt import polytope
from trajopt.errors import DimensionTooLarge, NotAVertex
from trajopt.polytope import (
    av_swap_pairs,
    av_swaps,
    edge_pairs,
    enumerate_vertices,
    is_edge,
    majorizes,
    vertex_count,
)


def test_majorizes_basic():
    assert majorizes([0.7, 0.3], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [0.7, 0.3])
    assert majorizes([0.5, 0.5], [0.5, 0.5])


def test_majorizes_under_doubly_stochastic(rng):
    for i in range(100):
        d = int(rng.integers(2, 7))
        lam = rng.dirichlet(np.ones(d))
        # a Birkhoff mixture: Dirichlet(1) weights on uniform permutation matrices
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 2 * d))))
        dmat = sum(w * np.eye(d)[rng.permutation(d)] for w in weights)
        assert majorizes(lam, dmat @ lam, 1e-9)


def test_enumerate_vertices_counts():
    assert enumerate_vertices([0.1, 0.2, 0.3, 0.4]).count == 24
    assert enumerate_vertices([0.5, 0.25, 0.25]).count == 3
    assert enumerate_vertices([1 / 3, 1 / 3, 1 / 3]).count == 1
    with pytest.raises(DimensionTooLarge):
        enumerate_vertices(np.full(10, 0.1), max_dim=9)


def _recursive_permutations(values_desc):
    """The depth-first generator enumerate_vertices was first built on (the reference)."""
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


@pytest.mark.parametrize("d", range(1, 9))
def test_enumeration_is_the_recursive_generator_byte_for_byte(d, rng):
    # every multiset pattern: each composition of d into class sizes, largest value first
    for cuts in itertools.product((False, True), repeat=d - 1):
        sizes = np.diff(np.flatnonzero(np.r_[True, cuts, True]))
        lam = np.repeat(np.linspace(0.9, 0.1, len(sizes)), sizes)
        vs = enumerate_vertices(rng.permutation(lam))
        ref = np.array(list(_recursive_permutations(np.sort(vs.eigenvalues)[::-1])))
        got = vs.vertices
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


def test_enumeration_leaves_no_reference_cycle():
    # the memo holds every subproblem until the enumeration returns; a
    # reference cycle through it would keep them alive until the cyclic
    # collector runs, and the peak memory of a run of jobs would grow
    gc.collect()
    enumerate_vertices(np.repeat([0.3, 0.2, 0.1, 0.05], [1, 2, 1, 3]))
    assert gc.collect() == 0


def test_vertex_count_formula(rng):
    from conftest import random_degenerate_spectrum

    for _ in range(30):
        d = int(rng.integers(2, 8))
        lam = random_degenerate_spectrum(rng, d)
        vs = enumerate_vertices(lam, eps=1e-12)
        _, counts = np.unique(np.round(vs.eigenvalues, 12), return_counts=True)
        expected = math.factorial(d)
        for c in counts:
            expected //= math.factorial(int(c))
        assert vs.count == expected == vertex_count(lam)
        # every vertex is a permutation of the (regularized) spectrum
        ref = np.sort(vs.eigenvalues)
        assert np.max(np.abs(np.sort(vs.vertices, axis=1) - ref)) < 1e-12
        assert np.max(np.abs(np.sort(vs.vertices, axis=1) - np.sort(lam))) < 1e-9


def test_vertices_majorization_equivalent(rng):
    lam = rng.dirichlet(np.ones(5))
    vs = enumerate_vertices(lam)
    for v in vs.vertices:
        assert majorizes(lam, v, 1e-12) and majorizes(v, lam, 1e-12)


def test_permutation_invariance(rng):
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    base = {v.tobytes() for v in enumerate_vertices(lam).vertices}
    for _ in range(5):
        shuffled = rng.permutation(lam)
        assert {v.tobytes() for v in enumerate_vertices(shuffled).vertices} == base


def test_av_swaps_examples():
    assert {(s.k, s.l) for s in av_swaps([0.4, 0.3, 0.2, 0.1])} == {(1, 0), (2, 1), (3, 2)}
    assert {(s.k, s.l) for s in av_swaps([0.4, 0.1, 0.3, 0.2])} == {(1, 3), (3, 2), (2, 0)}
    assert av_swaps([0.5, 0.5]) == []


def test_av_swaps_degenerate_returns_all_pairs():
    swaps = {(s.k, s.l) for s in av_swaps([0.3, 0.3, 0.2, 0.2])}
    assert swaps == {(2, 0), (2, 1), (3, 0), (3, 1)}


def test_is_edge_examples():
    vs = enumerate_vertices([0.1, 0.2, 0.3, 0.4])
    assert is_edge([0.4, 0.3, 0.2, 0.1], [0.3, 0.4, 0.2, 0.1], vs)
    assert not is_edge([0.4, 0.3, 0.2, 0.1], [0.1, 0.3, 0.2, 0.4], vs)
    vs2 = enumerate_vertices([0.7, 0.3])
    assert is_edge([0.7, 0.3], [0.3, 0.7], vs2)
    with pytest.raises(NotAVertex):
        is_edge([0.6, 0.4], [0.3, 0.7], vs2)
    with pytest.raises(NotAVertex):
        is_edge([0.7, 0.3], [0.7, 0.3], vs2)


def test_is_edge_refuses_more_positions_than_a_face_mask_holds():
    # the face masks are int64 bit sets, one bit per position, 62 at most
    lam = np.linspace(1.0, 2.0, 63)
    vs = polytope.VertexSet(vertices=np.vstack([lam, lam[::-1]]), eigenvalues=lam)
    with pytest.raises(DimensionTooLarge):
        is_edge(vs.vertices[0], vs.vertices[1], vs)


def test_is_edge_is_the_lp_on_every_pair_of_drawn_spectra(rng):
    # the face test against the LP edge formulation (conftest.lp_is_edge),
    # which shares no code with it, on every vertex pair of spectra at
    # d=3..5: distinct values at d=3 and 4, tied ones at every d, no two
    # distinct values closer than 1e-5 of the spread
    from conftest import lp_is_edge, random_degenerate_spectrum, spread_out

    pairs = 0
    for k in range(12):
        d = 3 + k % 3
        while True:
            if k % 2 and d < 5:
                lam = rng.dirichlet(np.ones(d))
            else:
                lam = random_degenerate_spectrum(rng, d)
                if len(np.unique(lam)) == d:
                    continue
            if spread_out(lam):
                break
        vs = enumerate_vertices(lam)
        for u, v in itertools.combinations(vs.vertices, 2):
            assert is_edge(u, v, vs) == lp_is_edge(u, v, vs), (lam.tolist(), u.tolist(), v.tolist())
            pairs += 1
    assert pairs > 1000


@pytest.mark.parametrize("g", [1e-7, 1e-8, 1e-9, 1e-10])
def test_is_edge_is_edge_pairs_at_near_ties(g):
    # λ ∝ [0.5, 0.25, 0.25 - g, g]: the LP edge formulation misjudged 4, 5
    # and 24 of the 276 pairs at g = 1e-8, 1e-9 and 1e-10 (none at 1e-7);
    # is_edge decides on value ranks, so it agrees with edge_pairs on
    # every pair at every g
    vs = enumerate_vertices(np.array([0.5, 0.25, 0.25 - g, g]))
    edges = edge_pairs(vs)
    assert edges == av_swap_pairs(vs)
    for (i, u), (j, v) in itertools.combinations(enumerate(vs.vertices), 2):
        assert is_edge(u, v, vs) == ((i, j) in edges), (i, j)


def _av_swap_pairs_by_vertex(vs, eps):
    """av_swap_pairs as av_swaps at every vertex plus a lookup by bytes (the reference)."""
    index = {v.tobytes(): i for i, v in enumerate(vs.vertices)}
    pairs = set()
    for i, v in enumerate(vs.vertices):
        for sw in av_swaps(v, eps):
            w = v.copy()
            w[[sw.k, sw.l]] = w[[sw.l, sw.k]]
            j = index[w.tobytes()]
            pairs.add((min(i, j), max(i, j)))
    return pairs


def test_edge_structure_small_cases(rng):
    from conftest import random_degenerate_spectrum

    cases = [
        [0.1, 0.2, 0.3, 0.4],
        [0.1, 0.1, 0.35, 0.45],
        [0.5, 0.25, 0.25],
        [0.1, 0.2, 0.2, 0.2, 0.3],
        [0.4, 0.25, 0.25, 0.1],
    ]
    # drawn tied spectra at d=2..5: vertex 0 has a nontrivial stabiliser,
    # so the orbits found from its pairs must still cover every pair
    while len(cases) < 25:
        d = 2 + len(cases) % 4
        lam = random_degenerate_spectrum(rng, d)
        if len(np.unique(lam)) < d:
            cases.append(lam)
    for lam in cases:
        vs = enumerate_vertices(lam)
        brute = edge_pairs(vs, symmetry=False)
        cached = edge_pairs(vs, symmetry=True)
        predicted = av_swap_pairs(vs)
        assert brute == cached == predicted == _av_swap_pairs_by_vertex(vs, 1e-12)


def test_av_swap_pairs_matches_per_vertex_swaps(rng):
    from conftest import random_degenerate_spectrum

    for _ in range(20):
        lam = random_degenerate_spectrum(rng, int(rng.integers(2, 7)))
        vs = enumerate_vertices(lam)
        assert av_swap_pairs(vs) == _av_swap_pairs_by_vertex(vs, 1e-12)
    # a coarser eps merges values 1e-9 apart into one swap class
    vs = enumerate_vertices([0.4, 0.3, 0.3 + 1e-9, 0.0])
    assert av_swap_pairs(vs, eps=1e-6) == _av_swap_pairs_by_vertex(vs, 1e-6)
    assert av_swap_pairs(vs, eps=1e-6) != av_swap_pairs(vs)


def test_edge_pairs_keys_only_the_pairs_of_vertex_zero(monkeypatch):
    # every orbit of vertex pairs holds a pair (0, j), so the orbit keys
    # are computed for those n - 1 pairs and no all-pairs index is built
    vs = enumerate_vertices([0.32, 0.26, 0.2, 0.2, 0.02])
    expected = edge_pairs(vs, symmetry=False)
    keyed = []
    unique = np.unique

    def recording(ar, *args, **kwargs):
        keyed.append(np.size(ar))
        return unique(ar, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("edge_pairs built all pairs")

    monkeypatch.setattr(np, "triu_indices", refuse)
    monkeypatch.setattr(np, "unique", recording)
    assert edge_pairs(vs) == expected == av_swap_pairs(vs)
    assert max(keyed) == vs.count - 1 == 59


def test_degenerate_triangle_every_pair_is_edge():
    vs = enumerate_vertices([0.5, 0.25, 0.25])
    assert edge_pairs(vs, symmetry=False) == {(0, 1), (0, 2), (1, 2)}


@pytest.mark.parametrize(
    "lam, tested",
    [([0.32, 0.26, 0.2, 0.13, 0.09], 72), ([0.3, 0.3, 0.15, 0.15, 0.1], 8)],
)
def test_edge_pairs_tests_one_pair_per_orbit(lam, tested, monkeypatch):
    # one face test per orbit of unordered pairs: 72 of the 7 140 pairs at
    # d=5 generic (119 with ordered orbit keys), in one array pass; the
    # edges must still be the adjacent-swap pairs, and no LP is solved
    from trajopt import simplex

    passes = []
    real = polytope._face_is_edge

    def counting(below_u, below_v, sizes):
        passes.append(len(below_v))
        return real(below_u, below_v, sizes)

    def refuse(*args, **kwargs):
        raise AssertionError("edge_pairs solved an LP")

    monkeypatch.setattr(polytope, "_face_is_edge", counting)
    monkeypatch.setattr(simplex, "solve_lp", refuse)
    vs = enumerate_vertices(lam)
    assert edge_pairs(vs) == av_swap_pairs(vs)
    assert passes == [tested]
    assert edge_pairs(vs, symmetry=False) == av_swap_pairs(vs)
    assert passes[1:] == [vs.count * (vs.count - 1) // 2]


@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
def test_edge_pairs_agree_with_swaps_down_to_the_least_gap(scale, rng):
    # two values planted 1, 3 or 10 times 1e-5 of the spread apart (the
    # least gap at which the LP edge test was trusted), half the draws
    # with a tied pair as well: the face test's verdicts are the
    # adjacent-swap pairs, with and without the orbit cache, at any scale
    # of the spectrum
    for k in range(20):
        d = int(rng.integers(3, 6))
        lam = rng.dirichlet(np.ones(d))
        if k % 2 and d >= 4:
            lam[0] = lam[1]
        i, j = rng.choice(d, 2, replace=False)
        gap = 1e-5 * (1, 3, 10)[k % 3] * (lam.max() - lam.min())
        lam[j] = lam[i] + gap if lam[i] - gap <= 0 else lam[i] - gap
        vs = enumerate_vertices(lam * scale)
        predicted = av_swap_pairs(vs)
        assert edge_pairs(vs) == predicted, lam.tolist()
        if d <= 4:
            assert edge_pairs(vs, symmetry=False) == predicted, lam.tolist()


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_edge_pairs_are_the_swaps_on_drawn_spectra(scale, rng):
    # the face test against the adjacent-swap rule, two independent
    # characterisations: tied spectra at d=2..7, most with two values
    # planted 1e-10, 1e-8 or 1e-5 of the spread apart, at three scales;
    # every pair is also tested alone (symmetry=False) up to d=5
    from conftest import random_degenerate_spectrum

    for k in range(24):
        d = 2 + k % 6
        lam = random_degenerate_spectrum(rng, d)
        if k % 4 and d >= 3:
            i, j = rng.choice(d, 2, replace=False)
            gap = (1e-10, 1e-8, 1e-5)[k % 3] * (lam.max() - lam.min())
            lam[j] = lam[i] - gap if lam[i] > gap else lam[i] + gap
        vs = enumerate_vertices(lam * scale)
        predicted = av_swap_pairs(vs)
        assert edge_pairs(vs) == predicted, lam.tolist()
        if d <= 5:
            assert edge_pairs(vs, symmetry=False) == predicted, lam.tolist()


def test_edge_pairs_at_a_tie():
    # [0.4, 0.3, 0.3, 0.1]: swapping 0.4 with either 0.3, or 0.1 with
    # either 0.3, is an edge; swapping 0.4 with 0.1, or making two
    # adjacent swaps at once, is not
    vs = enumerate_vertices([0.4, 0.3, 0.3, 0.1])
    index = {tuple(v): i for i, v in enumerate(vs.vertices.tolist())}
    assert index[(0.4, 0.3, 0.3, 0.1)] == 0
    neighbours = [(0.3, 0.4, 0.3, 0.1), (0.3, 0.3, 0.4, 0.1), (0.4, 0.3, 0.1, 0.3), (0.4, 0.1, 0.3, 0.3)]
    for symmetry in (True, False):
        edges = edge_pairs(vs, symmetry=symmetry)
        assert (0, index[(0.1, 0.3, 0.3, 0.4)]) not in edges
        assert (0, index[(0.3, 0.4, 0.1, 0.3)]) not in edges
        assert {j for i, j in edges if i == 0} == {index[v] for v in neighbours}


def test_segment_weight_separates_edges_from_other_pairs():
    # an edge's midpoint has no representation off the pair (weight 1);
    # any other pair's midpoint has one with no weight on the pair
    from conftest import segment_weight

    vs = enumerate_vertices([0.4, 0.3, 0.2, 0.1])
    edges = av_swap_pairs(vs)
    for i, j in itertools.combinations(range(vs.count), 2):
        weight = segment_weight(vs.vertices[i], vs.vertices[j], vs)
        assert weight == pytest.approx(1.0 if (i, j) in edges else 0.0, abs=1e-9)


def test_edge_pairs_below_the_least_gap_end_without_raising():
    # two values 3e-8 of the spread apart: the LP test lost some of these
    # verdicts to rounding (pivots on bases too near singular to finish);
    # the face test works on value ranks, so they are the swaps exactly
    vs = enumerate_vertices([0.4681749137060114, 0.04634296504830694, 0.04634297822248084])
    # three distinct values: the polytope is a hexagon
    assert edge_pairs(vs) == edge_pairs(vs, symmetry=False) == av_swap_pairs(vs)
    assert len(av_swap_pairs(vs)) == 6
