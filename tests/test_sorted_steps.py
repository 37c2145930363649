"""The sorted build against the swap queue.

`trajectory._build` takes a generic instance's steps from one sort of the
pair gradients (`_sorted_steps`) and any other instance's from the swap
queue. Both must give the same trajectory, byte for byte; the instance
alone decides which one runs.
"""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_instance
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
