"""The sorted build against the swap queue, and the queue against its first form.

`trajectory._build` takes a generic instance's steps from one sort of the
pair gradients (`_sorted_steps`) and any other instance's from the swap
queue. Both must give the same trajectory, byte for byte; the instance
alone decides which one runs. The queue in turn must take the steps, and
list the candidates, of a test-local copy of its first form
(`_VersionQueue`), gradient bits included.
"""

import heapq
import struct
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_instance, tie_instance
from trajopt import trajectory
from trajopt.conserved import build_generalized, from_populations
from trajopt.core import COEFF_EPS, ProblemInstance, validate
from trajopt.fileio import load_instance
from trajopt.trajectory import build

GOLDEN = Path(__file__).resolve().parent / "golden"
FIELDS = ("initial_vertex", "ks", "ls", "gradients", "delta_alphas", "alphas", "omegas")


def make(lam, a, e, **kw):
    return validate(ProblemInstance(np.asarray(lam, float), np.asarray(a, float), np.asarray(e, float), **kw))


def _queue_build(inst):
    """The trajectory with every step taken from the swap queue."""
    with mock.patch.object(trajectory, "_sorted_steps", lambda prep: None):
        return build(inst)


def assert_same_bytes(got, want):
    for name in FIELDS:
        x, y = getattr(got, name), getattr(want, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def _drawn_instance(seed, d, blocks, grid):
    """Random instance; blocks > 0 adds a conserved vector of that many blocks.

    grid > 0 rounds the targets, costs and populations to multiples of
    1/grid, which plants population ties, target ties and equal or
    near-equal gradients (triple crossings among them).
    """
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(d))
    a, e = rng.normal(size=d), rng.normal(size=d)
    if grid:
        lam = np.round(lam * grid) + 1.0
        lam /= lam.sum()
        a, e = np.round(a * grid) / grid, np.round(e * grid) / grid
    conserved = None
    if blocks:
        conserved = rng.permutation(np.arange(d) % blocks).astype(float)
    return make(lam, a, e, conserved=conserved)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 40),
    blocks=st.integers(0, 4),
    grid=st.sampled_from([0, 0, 0, 2, 8]),
)
def test_build_equals_the_queue_build(seed, d, blocks, grid):
    inst = _drawn_instance(seed, d, blocks, grid)
    assert_same_bytes(build(inst), _queue_build(inst))


def test_most_generic_instances_are_sorted(rng):
    # the differential above is only as strong as the share of its generic
    # draws that take the sorted path
    sorted_ = 0
    for i in range(40):
        inst = _drawn_instance(int(rng.integers(2**32)), int(rng.integers(2, 41)), i % 5, 0)
        sorted_ += trajectory._sorted_steps(trajectory._prepare(inst)) is not None
    assert sorted_ >= 38


def _lam_tie():
    # populations 0.25 and 0.1875 lie exactly eps_pop = 0.0625 apart: one run
    lam, a, e = [0.5, 0.25, 0.1875, 0.0625], [0.0, 1.0, 2.5, 3.7], [0.3, -1.2, 0.8, 2.9]
    return make(lam, a, e, eps_pop=0.03125), make(lam, a, e, eps_pop=0.0625)


def _target_gap():
    # targets exactly COEFF_EPS apart, in ascending preferred order: the pair never swaps
    lam, e = [0.4, 0.3, 0.2, 0.1], [0.0, 0.7, -0.4, 1.9]
    return make(lam, [0.0, 2e-12, 1.0, 2.0], e), make(lam, [0.0, COEFF_EPS, 1.0, 2.0], e)


def _coarse_eps_grad():
    base = random_instance(np.random.default_rng(7), 20)
    return base, make(base.eigenvalues, base.target, base.cost, eps_grad=1e-2)


def _triple_crossing():
    # a = e: every pair has gradient 1, so three lines cross in one point
    lam = [0.5, 0.3, 0.2]
    return make(lam, [0.0, 1.0, 2.0], [0.0, 1.0, 3.0]), make(lam, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])


def _cross_block_chain():
    # block {0, 1} has targets 0 and 1.6e-12, more than COEFF_EPS apart; the
    # 0.8e-12 of block {2} chains all three into one target class, ordered by
    # cost, so block {0, 1} lists its larger target first
    lam, e, c = [0.5, 0.3, 0.2], [1.0, 0.0, 0.5], [0.0, 0.0, 1.0]
    return make(lam, [0.0, 1.6e-12, 5.0], e, conserved=c), make(lam, [0.0, 1.6e-12, 0.8e-12], e, conserved=c)


def _gap_equal_to_eps_grad():
    # one pair per block, gradients 1.5 and 1.0, eps_grad 0.5: a tie, so the
    # queue takes the smaller (k, l), the pair with the larger gradient, first
    lam, a, e, c = [0.4, 0.3, 0.2, 0.1], [0.0, 1.0, 2.0, 3.0], [0.0, 1.5, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]
    return make(lam, a, e, conserved=c, eps_grad=0.25), make(lam, a, e, conserved=c, eps_grad=0.5)


def _rounded_crossings():
    # targets a few 1e-12 apart and costs on one line through them: the
    # rounded gradients are more than eps_grad apart but order the three
    # crossings (1, 0), (2, 1), (2, 0), so the second step would exchange
    # two values that are not adjacent
    lam, a = [0.5, 0.3, 0.2], [5.100566356496245e-13, 3.0824589630158666e-12, 6.955132408203472e-12]
    e = [1.41234147321161e-08, 9.135128984299936e-08, 2.076155063648349e-07]
    return make(lam, a, [0.0, 1e-8, 3e-8]), make(lam, a, e)


@pytest.mark.parametrize(
    "case",
    [
        _lam_tie,
        _target_gap,
        _coarse_eps_grad,
        _gap_equal_to_eps_grad,
        _triple_crossing,
        _rounded_crossings,
        _cross_block_chain,
    ],
    ids=[
        "population-tie",
        "target-gap",
        "eps-grad-1e-2",
        "gap-equal-to-eps-grad",
        "triple-crossing",
        "rounded-crossings",
        "cross-block-chain",
    ],
)
def test_fallback_cases_take_the_queue(case):
    # each case is one check away from an instance the sort certifies
    certified, fallback = case()
    assert trajectory._sorted_steps(trajectory._prepare(certified)) is not None
    assert trajectory._sorted_steps(trajectory._prepare(fallback)) is None
    for inst in (certified, fallback):
        assert_same_bytes(build(inst), _queue_build(inst))


def test_cross_block_chain_keeps_the_block_order():
    # the queue takes no step: the only pair of block {0, 1} would lower the target
    _, inst = _cross_block_chain()
    prep = trajectory._prepare(inst)
    block = prep.groups[int(prep.blocks[prep.order.inverse[0]])]
    assert np.diff(prep.a_p[block]).tolist() == [-1.6e-12]
    assert len(build(inst).ks) == 0


class QueueUsed(Exception):
    pass


def _no_queue(*args):
    raise QueueUsed


def test_generic_builds_never_run_the_queue(rng, monkeypatch):
    flat = random_instance(rng, 64)
    base = random_instance(rng, 48)
    conserved = make(base.eigenvalues, base.target, base.cost, conserved=np.arange(48) % 3)
    monkeypatch.setattr(trajectory, "_SwapQueue", _no_queue)
    assert len(build(flat).ks) == 64 * 63 // 2
    assert len(build_generalized(from_populations(conserved)).ks) == 3 * 16 * 15 // 2


def test_tied_golden_instance_runs_the_queue(monkeypatch):
    inst = validate(load_instance(str(GOLDEN / "degenerate-eps-ties" / "instance.json")))
    monkeypatch.setattr(trajectory, "_SwapQueue", _no_queue)
    with pytest.raises(QueueUsed):
        build(inst)


class _VersionQueue:
    """The swap queue as it was first written: the reference for `_SwapQueue`.

    An entry is the tuple (k, l, version k, version l, gradient), stale once
    either position has been swapped again, so a pair is never held twice
    and each entry keeps the gradient it was pushed with.
    """

    def __init__(self, p, prep):
        self._a = prep.a_p.tolist()
        self._e = prep.e_p.tolist()
        self._version = [0] * len(p)
        self._run_of = [0] * len(p)
        self._slot = [0] * len(p)
        self._runs = [[]]
        for pos in prep.groups:
            members = pos[np.argsort(p[pos], kind="stable")]
            splits = np.nonzero(np.diff(p[members]) > prep.inst.eps_pop)[0] + 1
            for run in np.split(members, splits):
                run = run.tolist()
                for i, k in enumerate(run):
                    self._run_of[k] = len(self._runs)
                    self._slot[k] = i
                self._runs.append(run)
            self._runs.append([])
        self._grads = []
        self._buckets = {}
        for lows, highs in zip(self._runs, self._runs[1:]):
            for k in lows:
                self._push_from(k, highs, None)

    def _push(self, k, m, grad):
        bucket = self._buckets.get(grad)
        if bucket is None:
            bucket = self._buckets[grad] = []
            heapq.heappush(self._grads, grad)
        heapq.heappush(bucket, (k, m, self._version[k], self._version[m], grad))

    def _push_from(self, k, highs, skip):
        for m in highs:
            gap = self._a[k] - self._a[m]
            if gap > COEFF_EPS and m != skip:
                self._push(k, m, (self._e[k] - self._e[m]) / gap)

    def _push_to(self, lows, l, skip):
        for m in lows:
            gap = self._a[m] - self._a[l]
            if gap > COEFF_EPS and m != skip:
                self._push(m, l, (self._e[m] - self._e[l]) / gap)

    def _top(self, grad):
        bucket = self._buckets[grad]
        while bucket:
            top = bucket[0]
            if self._version[top[0]] == top[2] and self._version[top[1]] == top[3]:
                return top
            heapq.heappop(bucket)
        del self._buckets[grad]
        return None

    def best(self, eps_grad):
        grads = self._grads
        while grads:
            top = self._top(grads[0])
            if top is not None:
                break
            heapq.heappop(grads)
        else:
            return None
        limit = grads[0] + eps_grad
        best = top
        kept = [heapq.heappop(grads)]
        while grads and grads[0] <= limit:
            grad = heapq.heappop(grads)
            top = self._top(grad)
            if top is not None:
                kept.append(grad)
                best = min(best, top)
        for grad in kept:
            heapq.heappush(grads, grad)
        return best[0], best[1], best[4]

    def entries(self):
        v = self._version
        return sorted((k, l, g) for b in self._buckets.values() for k, l, vk, vl, g in b if v[k] == vk and v[l] == vl)

    def swap(self, k, l):
        runs, run_of, slot, version = self._runs, self._run_of, self._slot, self._version
        r = run_of[k]
        sk, sl = slot[k], slot[l]
        runs[r][sk] = l
        runs[r + 1][sl] = k
        slot[k], slot[l] = sl, sk
        run_of[k], run_of[l] = r + 1, r
        version[k] += 1
        version[l] += 1
        self._push_from(k, runs[r + 2], None)
        self._push_to(runs[r], k, l)
        self._push_from(l, runs[r + 1], k)
        self._push_to(runs[r - 1], l, None)


def _version_steps(prep, p0):
    queue = _VersionQueue(p0, prep)
    ks, ls, grads = [], [], []
    while (chosen := queue.best(prep.inst.eps_grad)) is not None:
        queue.swap(*chosen[:2])
        for out, x in zip((ks, ls, grads), chosen):
            out.append(x)
    return ks, ls, grads


def _bits(triples):
    """(k, l, gradient) triples with each gradient as its IEEE bits, so -0.0 != 0.0."""
    return [(k, l, struct.pack("<d", g)) for k, l, g in triples]


# Cost levels of flat's degenerate instance.
_COST_LEVELS = np.array([0.0, 0.25, 1.0, 0.5, 0.75, 1.5])


def _flat_degenerate(seed, d=256, n_values=32):
    """n_values populations in equal shares, targets {0, 1, 2}, six cost levels."""
    layout, rng = np.random.default_rng(d), np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.1, 1.0, n_values))[::-1][layout.permutation(np.arange(d) % n_values)]
    a = layout.permutation(np.arange(d) % 3).astype(float)
    e = _COST_LEVELS[layout.permutation(np.arange(d) % len(_COST_LEVELS))]
    return make(lam / lam.sum(), a, e)


def _cooling(seed, levels, system=(0.5, 0.5)):
    """A qubit in `system` populations next to a Gibbs machine of `levels` levels.

    The target projects on the qubit's ground state, so it takes two
    values, and equal qubit populations repeat every machine population.
    """
    machine = np.r_[0.0, np.sort(np.random.default_rng(seed).uniform(0.0, 2.0, levels - 1))]
    gibbs = np.exp(-machine) / np.exp(-machine).sum()
    cost = (np.array([0.0, 0.3])[:, None] + machine[None, :]).ravel()
    return make(np.kron(system, gibbs), np.kron([1.0, 0.0], np.ones(levels)), cost)


def _eps_grad_chain(seed, d=24):
    """Gradients in chains spaced at and near eps_grad around 0.75.

    Costs are 0.75 * a plus multiples of eps_grad, so a pair's gradient is
    0.75 + (n_k - n_l) eps_grad / (a_k - a_l): neighbours in a chain lie
    within eps_grad, the chain's ends do not.
    """
    rng, eps = np.random.default_rng(seed), 2.0**-20
    lam = np.round(rng.dirichlet(np.ones(d)) * 4 * d) + 1.0
    a = rng.integers(0, 4, d).astype(float)
    e = 0.75 * a + rng.integers(-3, 4, d) * eps
    return make(lam / lam.sum(), a, e, eps_grad=eps)


def _signed_zeros(seed, d=20):
    """Tied costs of 0.0 and -0.0, so some pair gradients are -0.0."""
    rng = np.random.default_rng(seed)
    lam = rng.integers(1, 5, d).astype(float)
    a = rng.integers(0, 3, d).astype(float)
    e = rng.choice([0.0, -0.0, 0.5], d)
    return make(lam / lam.sum(), a, e)


def _coarse(seed, d, grid, blocks=0):
    """Targets and costs on a 1/grid lattice and populations of five values."""
    inst = _drawn_instance(seed, d, blocks, grid)
    lam = np.random.default_rng(seed).integers(1, 6, d).astype(float)
    return make(lam / lam.sum(), inst.target, inst.cost, conserved=inst.conserved)


def _class_over_blocks(seed, d=24):
    """Six (target, cost) classes, each with members in both of two conserved blocks.

    Populations take three values, so a class's members of one block share
    runs: each block has cells of the class, and they must stay apart.
    """
    rng = np.random.default_rng(seed)
    lam = rng.integers(1, 4, d).astype(float)
    a = (np.arange(d) % 3).astype(float)
    e = (np.arange(d) // 3 % 2) * 0.5
    return make(lam / lam.sum(), a, e, conserved=rng.permutation(np.arange(d) % 2).astype(float))


def _signed_zero_class(seed, d=20):
    """Costs of 0.0 and -0.0 only: each target's one class mixes both signs.

    Every gradient is 0.0 or -0.0, its sign set by the two members the
    tie rule picks, so all candidates tie in one bucket.
    """
    rng = np.random.default_rng(seed)
    lam = rng.integers(1, 4, d).astype(float)
    a = rng.integers(0, 3, d).astype(float)
    return make(lam / lam.sum(), a, rng.choice([0.0, -0.0], d))


def _class_chain(seed, d=24):
    """Two classes per target, costs 0.75 * a and 0.75 * a + eps_grad.

    Pair gradients are 0.75 plus 0, +-eps_grad / 2 or +-eps_grad, so the
    buckets of two classes' pairs chain within eps_grad.
    """
    rng, eps = np.random.default_rng(seed), 2.0**-20
    lam = rng.integers(1, 5, d).astype(float)
    a = rng.integers(0, 3, d).astype(float)
    return make(lam / lam.sum(), a, 0.75 * a + rng.integers(0, 2, d) * eps, eps_grad=eps)


_FAMILIES = {
    "flat-degenerate": [_flat_degenerate(s) for s in (1, 2)] + [_flat_degenerate(3, 64, 8)],
    "cooling": [_cooling(s, n) for s, n in ((1, 8), (2, 32), (3, 64))] + [_cooling(4, 32, (0.7, 0.3))],
    "coarse-grid": [_coarse(s, d, g) for s, d, g in ((1, 30, 2), (2, 40, 8), (3, 25, 8))],
    "eps-grad-chain": [_eps_grad_chain(s) for s in (1, 2, 3)],
    "signed-zero": [_signed_zeros(s) for s in (1, 2, 3)],
    "conserved": [_coarse(s, d, g, b) for s, d, b, g in ((1, 30, 2, 2), (2, 40, 3, 8), (3, 24, 4, 2))],
    "cells": [_class_over_blocks(1), _signed_zero_class(2), _class_chain(3)],
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_queue_equals_the_version_queue(family):
    for inst in _FAMILIES[family]:
        prep = trajectory._prepare(inst)
        p0 = trajectory._minimal_pref(prep)
        ks, ls, grads = _version_steps(prep, p0)
        assert ks, "the instance takes no step"
        assert _bits(zip(*trajectory._queue_steps(prep, p0))) == _bits(zip(ks, ls, grads))
        # every array of the build, with its steps from the reference queue
        with mock.patch.object(trajectory, "_queue_steps", _version_steps):
            want = _queue_build(inst)
        assert_same_bytes(_queue_build(inst), want)


def _shared_cells(inst):
    """The cells of the minimal point with more than one member: (prep, lists of positions).

    A cell is the positions of one value run whose (target, cost) are equal
    as floats; the runs are the reference queue's.
    """
    prep = trajectory._prepare(inst)
    a, e = prep.a_p.tolist(), prep.e_p.tolist()
    cells = []
    for run in _VersionQueue(trajectory._minimal_pref(prep), prep)._runs:
        same = {}
        for k in run:
            same.setdefault((a[k], e[k]), []).append(k)
        cells += [members for members in same.values() if len(members) > 1]
    return prep, cells


def test_the_families_plant_what_they_name():
    # the differential is only as strong as its instances: signed zeros must
    # give -0.0 gradients, and the chains must tie within eps_grad
    def steps(inst):
        prep = trajectory._prepare(inst)
        return _version_steps(prep, trajectory._minimal_pref(prep))

    def ties_within_eps_grad(inst):
        exact = make(inst.eigenvalues, inst.target, inst.cost, conserved=inst.conserved, eps_grad=1e-300)
        return steps(inst)[:2] != steps(exact)[:2]

    assert all(any(g == 0.0 and np.signbit(g) for g in steps(inst)[2]) for inst in _FAMILIES["signed-zero"])
    assert all(ties_within_eps_grad(inst) for inst in _FAMILIES["eps-grad-chain"])
    for family in ("flat-degenerate", "cooling", "coarse-grid", "conserved", "cells"):
        assert all(trajectory._sorted_steps(trajectory._prepare(inst)) is None for inst in _FAMILIES[family])
    over_blocks, signed_zero, chain = _FAMILIES["cells"]
    # one (target, cost) class holds a shared cell in each of the two blocks
    prep, cells = _shared_cells(over_blocks)
    blocks_of = {}
    for cell in cells:
        blocks_of.setdefault((prep.a_p[cell[0]], prep.e_p[cell[0]]), set()).add(int(prep.blocks[cell[0]]))
    assert any(len(blocks) == 2 for blocks in blocks_of.values())
    # a cell holds both zeros, and the steps emit gradients of both signs
    prep, cells = _shared_cells(signed_zero)
    assert any(len({bool(np.signbit(prep.e_p[k])) for k in cell}) == 2 for cell in cells)
    assert {bool(np.signbit(g)) for g in steps(signed_zero)[2] if g == 0.0} == {False, True}
    # the chain ties buckets of shared cells
    assert _shared_cells(chain)[1] and ties_within_eps_grad(chain)


def _classes(seed, d, blocks, n_target, n_cost, n_pop, nudged):
    """An instance of few (target, cost) classes: targets, costs and populations from few levels.

    nudged moves half the costs by -2..2 multiples of eps_grad = 2**-20,
    so near-equal gradients chain; then zero costs take a random sign.
    """
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.1, 1.0, n_pop)[rng.integers(0, n_pop, d)]
    a = rng.normal(size=n_target)[rng.integers(0, n_target, d)]
    e = (rng.integers(-2, 3, n_cost) * 0.25)[rng.integers(0, n_cost, d)]
    eps_grad = 1e-12
    if nudged:
        eps_grad = 2.0**-20
        e = e + rng.integers(-2, 3, d) * (rng.random(d) < 0.5) * eps_grad
    e = np.where(e == 0.0, rng.choice([0.0, -0.0], d), e)
    conserved = rng.permutation(np.arange(d) % blocks).astype(float) if blocks else None
    return make(lam / lam.sum(), a, e, conserved=conserved, eps_grad=eps_grad)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 40),
    blocks=st.integers(0, 4),
    n_target=st.integers(2, 4),
    n_cost=st.integers(2, 4),
    n_pop=st.integers(2, 6),
    nudged=st.booleans(),
)
def test_queue_equals_the_version_queue_on_drawn_classes(seed, d, blocks, n_target, n_cost, n_pop, nudged):
    inst = _classes(seed, d, blocks, n_target, n_cost, n_pop, nudged)
    prep = trajectory._prepare(inst)
    p0 = trajectory._minimal_pref(prep)
    assert _bits(zip(*trajectory._queue_steps(prep, p0))) == _bits(zip(*_version_steps(prep, p0)))


def _live_keys(queue):
    d, run_of = queue._d, queue._run_of
    return [key for b in queue._buckets.values() for key in b if run_of[key % d] == run_of[key // d] + 1]


def test_candidates_equal_the_version_queue_at_every_vertex(rng):
    # next_step and swap_candidates build a queue at the vertex; a queue
    # stepped along the trajectory holds a pair twice once it is adjacent
    # again, and its entries must still list it once
    insts = [tie_instance(rng, 16), tie_instance(rng, 20), _flat_degenerate(5, 48, 12), _cooling(6, 12)]
    insts += [_eps_grad_chain(4, 16), _signed_zeros(4, 16), _coarse(9, 24, 2, 3)]
    held_twice = 0
    for inst in insts:
        prep = trajectory._prepare(inst)
        p0 = trajectory._minimal_pref(prep)
        traj = _queue_build(inst)
        stepped, reference = trajectory._SwapQueue(p0, prep), _VersionQueue(p0, prep)
        perm = prep.order.perm
        for i in range(len(traj.ks) + 1):
            p = traj.vertex_input(i)
            at = _VersionQueue(prep.order.to_preferred(p), prep)
            want = [(int(perm[k]), int(perm[l]), g) for k, l, g in at.entries()]
            assert _bits(trajectory.swap_candidates(p, inst)) == _bits(want)
            assert _bits(stepped.entries()) == _bits(reference.entries()) == _bits(at.entries())
            live = _live_keys(stepped)
            held_twice += len(live) > len(set(live))
            step, chosen = trajectory.next_step(p, inst), at.best(inst.eps_grad)
            if chosen is None:
                assert step is None and i == len(traj.ks)
                continue
            assert _bits([(step.k, step.l, step.gradient)]) == _bits([chosen])
            assert stepped.steps(inst.eps_grad, 1) == ([chosen[0]], [chosen[1]], [chosen[2]])
            reference.swap(*chosen[:2])
    assert held_twice > 0


def test_candidates_equal_the_version_queue_at_random_vertices(rng):
    # a vertex off the trajectory: each block's eigenvalues in a uniform
    # permutation, so cells form wherever equal populations meet
    insts = [tie_instance(rng, d) for d in (12, 16, 20, 24)]
    insts += [tie_instance(rng, d, conserved=rng.integers(0, b, d).astype(float)) for d, b in ((16, 2), (24, 3))]
    insts += [_FAMILIES["cells"][0], _coarse(9, 24, 2, 3)]
    for inst in insts:
        prep = trajectory._prepare(inst)
        perm = prep.order.perm
        for _ in range(25):
            pp = np.empty_like(prep.lam_p)
            for pos in prep.groups:
                pp[pos] = rng.permutation(prep.lam_p[pos])
            p = prep.order.to_input(pp)
            at = _VersionQueue(pp, prep)
            want = [(int(perm[k]), int(perm[l]), g) for k, l, g in at.entries()]
            assert _bits(trajectory.swap_candidates(p, inst)) == _bits(want)
            step, chosen = trajectory.next_step(p, inst), at.best(inst.eps_grad)
            if chosen is None:
                assert step is None
            else:
                assert _bits([(step.k, step.l, step.gradient)]) == _bits([chosen])


def _pushes_per_step(inst):
    """Heap pushes of `_queue_steps`, its queue's construction included, per step taken."""
    prep = trajectory._prepare(inst)
    p0 = trajectory._minimal_pref(prep)
    pushes = 0

    def heappush(heap, item):
        nonlocal pushes
        pushes += 1
        heapq.heappush(heap, item)

    counting = types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop, heapify=heapq.heapify)
    with mock.patch.object(trajectory, "heapq", counting):
        ks, _, _ = trajectory._queue_steps(prep, p0)
    return pushes / len(ks)


@pytest.mark.parametrize(
    "case, bound",
    [(lambda: _flat_degenerate(1), 4.0), (lambda: _cooling(3, 64), 2.0)],
    ids=["flat-degenerate", "cooling"],
)
def test_the_queue_pushes_one_pair_per_pair_of_cells(case, bound):
    # a queue that pushed every member pair of two cells would push 9.0 per
    # step on the degenerate instance; on the cooling one every cell is a
    # singleton, and a step pushes the pairs touching the swapped positions
    assert _pushes_per_step(case()) <= bound
