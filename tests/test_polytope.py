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


def test_edge_pairs_across_lp_chunks(monkeypatch):
    # stacks cut at any size give the same edges: here one LP per call,
    # then a few LPs per call
    cases = [enumerate_vertices(lam) for lam in ([0.1, 0.2, 0.3, 0.4], [0.1, 0.1, 0.35, 0.45])]
    for cap in (1, 3 * 6 * 30):
        monkeypatch.setattr(polytope, "LP_CHUNK", cap)
        for vs in cases:
            assert edge_pairs(vs, symmetry=False) == edge_pairs(vs) == av_swap_pairs(vs)


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
    "lam, solves",
    [([0.32, 0.26, 0.2, 0.13, 0.09], 72), ([0.3, 0.3, 0.15, 0.15, 0.1], 8)],
)
def test_edge_pairs_solves_one_lp_per_orbit(lam, solves, monkeypatch):
    # one LP per orbit of unordered pairs: 72 of the 7 140 pairs at d=5
    # generic (119 with ordered orbit keys); the edges must still be the
    # adjacent-swap pairs. A call may solve a stack of LPs, one per row
    # of its b, so the LPs are counted, not the calls.
    lps = []
    real = polytope.solve_lp

    def counting(c, A, b, **kwargs):
        lps.append(len(np.atleast_2d(b)))
        return real(c, A, b, **kwargs)

    monkeypatch.setattr(polytope, "solve_lp", counting)
    vs = enumerate_vertices(lam)
    assert edge_pairs(vs) == av_swap_pairs(vs)
    assert sum(lps) == solves
    assert len(lps) == 1  # one chunk holds them all


def test_relative_gap():
    assert polytope.relative_gap(enumerate_vertices([0.4, 0.3, 0.2, 0.1])) == pytest.approx(1 / 3)
    assert polytope.relative_gap(enumerate_vertices([0.5, 0.25, 0.25])) == pytest.approx(1.0)
    assert polytope.relative_gap(enumerate_vertices([0.25] * 4)) == math.inf


@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
def test_edge_pairs_agree_with_swaps_down_to_the_least_gap(scale, rng):
    # two values planted 1, 3 or 10 times EDGE_MIN_GAP of the spread apart,
    # half the draws with a tied pair as well: wherever `verify` runs the
    # edge check, the LP verdicts are the adjacent-swap pairs, with and
    # without the orbit cache, at any scale of the spectrum
    ran = 0
    for k in range(20):
        d = int(rng.integers(3, 6))
        lam = rng.dirichlet(np.ones(d))
        if k % 2 and d >= 4:
            lam[0] = lam[1]
        i, j = rng.choice(d, 2, replace=False)
        gap = polytope.EDGE_MIN_GAP * (1, 3, 10)[k % 3] * (lam.max() - lam.min())
        lam[j] = lam[i] + gap if lam[i] - gap <= 0 else lam[i] - gap
        vs = enumerate_vertices(lam * scale)
        if polytope.relative_gap(vs) < polytope.EDGE_MIN_GAP:
            continue
        ran += 1
        predicted = av_swap_pairs(vs)
        assert edge_pairs(vs) == predicted, lam.tolist()
        if d <= 4:
            assert edge_pairs(vs, symmetry=False) == predicted, lam.tolist()
    assert ran >= 15


def test_segment_weight_separates_edges_from_other_pairs():
    # an edge's midpoint has no representation off the pair (weight 1);
    # any other pair's midpoint has one with no weight on the pair
    vs = enumerate_vertices([0.4, 0.3, 0.2, 0.1])
    edges = av_swap_pairs(vs)
    for i, j in itertools.combinations(range(vs.count), 2):
        weight = polytope.segment_weight(vs.vertices[i], vs.vertices[j], vs)
        assert weight == pytest.approx(1.0 if (i, j) in edges else 0.0, abs=1e-9)


def test_edge_pairs_below_the_least_gap_end_without_raising():
    # two values 3e-8 of the spread apart: some pair LPs pivot on bases too
    # near singular to finish, stop at the iteration limit and count as no
    # edge (weight NaN); edge_pairs still returns its verdicts
    vs = enumerate_vertices([0.4681749137060114, 0.04634296504830694, 0.04634297822248084])
    assert polytope.relative_gap(vs) < polytope.EDGE_MIN_GAP
    iu, ju = np.triu_indices(vs.count, 1)
    weights = polytope._pair_weights(polytope._convexity_rows(vs.vertices), iu, ju, 1e-9)
    assert np.isnan(weights).any()
    edges = edge_pairs(vs)
    assert edges <= set(zip(iu.tolist(), ju.tolist()))
