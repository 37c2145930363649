import copy
import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    assert_single_step_rule,
    random_degenerate_spectrum,
    random_instance,
    replayed_vertices,
    single_step_candidates,
    tie_instance,
)
from trajopt import trajectory
from trajopt.conserved import build_generalized
from trajopt.core import ProblemInstance, cost_value, target_value, validate
from trajopt.errors import AlphaOutOfRange, NotAVertex
from trajopt.lift import apply_chain
from trajopt.polytope import enumerate_vertices, is_edge, majorizes
from trajopt.trajectory import (
    OptimalTrajectory,
    SwapStep,
    build,
    entry_point,
    maximal_vertex,
    minimal_vertex,
    next_step,
    omega_opt,
    state_at,
    swap_candidates,
    uniqueness_at_minimum,
)


def make(lam, a, e, **kw):
    return validate(ProblemInstance(np.asarray(lam, float), np.asarray(a, float), np.asarray(e, float), **kw))


def test_minimal_vertex_examples():
    inst = make([0.4, 0.3, 0.2, 0.1], [0, 0, 1, 1], [0, 1, 0, 1])
    assert np.allclose(minimal_vertex(inst), [0.4, 0.3, 0.2, 0.1])
    inst2 = make([0.4, 0.3, 0.2, 0.1], [1, 1, 0, 0], [0, 1, 0, 1])
    assert np.allclose(minimal_vertex(inst2), [0.2, 0.1, 0.4, 0.3])


def test_maximal_vertex_rule_and_oracle():
    # within every equal-target block, larger populations sit at lower cost
    inst = make([0.4, 0.3, 0.2, 0.1], [0, 0, 1, 1], [0, 1, 0, 1])
    mv = maximal_vertex(inst)
    assert np.allclose(mv, [0.2, 0.1, 0.4, 0.3])
    # brute force: cost-minimal among the alpha-maximal vertices
    vs = enumerate_vertices(inst.eigenvalues).vertices
    alphas = vs @ inst.target
    at_max = vs[np.abs(alphas - alphas.max()) < 1e-12]
    best = (at_max @ inst.cost).min()
    assert target_value(mv, inst.target) == pytest.approx(alphas.max(), abs=1e-12)
    assert cost_value(mv, inst.cost) == pytest.approx(best, abs=1e-12)


def test_extreme_vertices_agree_with_oracle(rng):
    for i in range(30):
        inst = random_instance(rng, int(rng.integers(3, 7)), degenerate=(i % 2 == 0))
        vs = enumerate_vertices(inst.eigenvalues, eps=inst.eps_pop).vertices
        alphas = vs @ inst.target
        costs = vs @ inst.cost
        for pick, sel in ((minimal_vertex(inst), alphas.min()), (maximal_vertex(inst), alphas.max())):
            at_ext = costs[np.abs(alphas - sel) < 1e-9]
            assert target_value(pick, inst.target) == pytest.approx(sel, abs=1e-9)
            assert cost_value(pick, inst.cost) <= at_ext.min() + 1e-9


def test_one_dimensional_instance():
    inst = make([1.0], [2.0], [0.5])
    traj = build(inst)
    assert len(traj.steps) == 0
    assert traj.alpha_min == traj.alpha_max == 2.0
    assert omega_opt(traj, 2.0) == 0.5
    assert uniqueness_at_minimum(inst).condition == 1


def test_constant_target_trajectory_is_single_point():
    inst = make([0.5, 0.3, 0.2], [1, 1, 1], [0, 1, 2])
    assert np.allclose(minimal_vertex(inst), maximal_vertex(inst))
    traj = build(inst)
    assert len(traj.steps) == 0
    assert traj.alpha_min == traj.alpha_max
    p, seg, t = state_at(traj, traj.alpha_min)
    assert np.allclose(p, minimal_vertex(inst))


def test_two_level_single_step():
    es = 0.5
    inst = make([0.7, 0.3], [1, 0], [0, es])
    traj = build(inst)
    assert len(traj.steps) == 1
    assert traj.steps[0].gradient == pytest.approx(-es, abs=1e-15)
    assert (traj.alpha_min, traj.alpha_max) == (pytest.approx(0.3), pytest.approx(0.7))


def test_next_step_at_maximum_is_none():
    inst = make([0.4, 0.3, 0.2, 0.1], [0, 0, 1, 1], [0, 1, 0, 1])
    assert next_step(maximal_vertex(inst), inst) is None
    with pytest.raises(NotAVertex):
        next_step([0.25, 0.25, 0.25, 0.25], inst)


def test_swap_candidates_rejects_non_vertex():
    # same permutation check as next_step: [0.7, 0.1, 0.1, 0.1] is no
    # permutation of the spectrum, so it has no adjacent-swap candidates
    inst = make([0.4, 0.3, 0.2, 0.1], [0, 1, 2, 3], [0, 1, 2, 3])
    with pytest.raises(NotAVertex):
        swap_candidates([0.7, 0.1, 0.1, 0.1], inst)
    with pytest.raises(NotAVertex):
        next_step([0.7, 0.1, 0.1, 0.1], inst)
    with pytest.raises(NotAVertex):
        swap_candidates([0.4, 0.3, 0.2, 0.1, 0.0], inst)
    assert len(swap_candidates([0.4, 0.3, 0.2, 0.1], inst)) == 3
    assert swap_candidates([0.1, 0.2, 0.3, 0.4], inst) == []
    # a NaN entry compares false against every tolerance
    with pytest.raises(NotAVertex):
        swap_candidates([np.nan, 0.3, 0.2, 0.1], inst)
    with pytest.raises(NotAVertex):
        next_step([np.nan, 0.3, 0.2, 0.1], inst)


def test_next_step_from_qubit_demo_initial_state():
    # at the half-filled joint state the cheapest swap uses the smallest
    # machine gap: |0,1> <-> |1,0>, input indices 1 and 4
    from trajopt.cooling import demo_coherent_erasure
    from trajopt.core import preferred_order

    cool = demo_coherent_erasure()
    inst = cool.problem
    order = preferred_order(inst.target, inst.cost)
    step = next_step(inst.initial_populations, inst)
    assert {int(order.perm[step.k]), int(order.perm[step.l])} == {1, 4}
    assert step.gradient == pytest.approx(0.1 - 0.3, abs=1e-15)


def test_build_gradients_non_decreasing(rng):
    for i in range(40):
        inst = random_instance(rng, int(rng.integers(3, 8)), degenerate=(i % 2 == 0))
        traj = build(inst)
        assert np.allclose(traj.vertex_input(0), minimal_vertex(inst))
        # the endpoint attains the maximal point; with degenerate (a, E)
        # groups the arrangement itself may differ from the canonical one
        end = traj.vertex_input(len(traj.steps))
        mv = maximal_vertex(inst)
        assert target_value(end, inst.target) == pytest.approx(target_value(mv, inst.target), abs=1e-12)
        assert cost_value(end, inst.cost) == pytest.approx(cost_value(mv, inst.cost), abs=1e-12)
        grads = [s.gradient for s in traj.steps]
        assert all(b - a >= -1e-12 for a, b in zip(grads[:-1], grads[1:]))
        alphas = traj.breakpoints[:, 0]
        assert np.all(np.diff(alphas) > 0)
        # step bookkeeping
        for s in traj.steps:
            assert abs((s.alpha_end - s.alpha_start) - s.delta_alpha) < 1e-12
        # consecutive vertices differ by exactly the step transposition
        for i, s in enumerate(traj.steps):
            w = traj.vertex(i)
            w[[s.k, s.l]] = w[[s.l, s.k]]
            assert np.array_equal(w, traj.vertex(i + 1))


def test_trajectory_vertices_are_polytope_edges(rng):
    inst = random_instance(rng, 5)
    traj = build(inst)
    vs = enumerate_vertices(inst.eigenvalues, eps=inst.eps_pop)
    for i in range(len(traj.steps)):
        assert is_edge(traj.vertex_input(i), traj.vertex_input(i + 1), vs)


def test_state_at_properties(rng):
    inst = random_instance(rng, 6)
    traj = build(inst)
    for alpha in rng.uniform(traj.alpha_min, traj.alpha_max, 25):
        p, seg, t = state_at(traj, float(alpha))
        assert target_value(p, inst.target) == pytest.approx(alpha, abs=1e-12)
        assert 0.0 <= t <= 1.0
        assert majorizes(inst.eigenvalues, p, 1e-9)
    with pytest.raises(AlphaOutOfRange):
        state_at(traj, traj.alpha_max + 1e-3)
    p, _, t = state_at(traj, traj.alpha_min)
    assert np.allclose(p, minimal_vertex(inst)) and t == 0.0


def test_omega_opt_breakpoints_exact(rng):
    inst = random_instance(rng, 5)
    traj = build(inst)
    for alpha, omega in traj.breakpoints:
        assert omega_opt(traj, float(alpha)) == omega
    with pytest.raises(AlphaOutOfRange):
        omega_opt(traj, traj.alpha_max + 1.0)


def _signed(x):
    return x, bool(np.signbit(x))


def test_omega_opt_equals_interpolation_on_all_breakpoints(rng):
    # omega_opt interpolates on the two breakpoints of alpha's segment, in
    # Python floats; the value and its sign must be the ones np.interp gives
    # on the whole arrays
    trajs = [build(random_instance(rng, d)) for d in (1, 2, 5, 17)]
    trajs += [build(tie_instance(rng, d)) for d in (3, 9, 16)]
    trajs.append(build(random_instance(rng, 256, degenerate=True)))
    # a float-invisible step: both breakpoints share one alpha
    trajs.append(build(make([0.5 + 5e-11, 0.5 - 5e-11], [0.3, 0.3 + 1e-11], [1.0, 0.0])))
    # -0.0 omegas, which a build never makes but omega_opt must still carry
    three = build(make([0.5, 0.3, 0.2], [0.0, 1.0, 2.0], [0.0, 1.0, 3.0]))
    assert len(three.ks) == 3
    alphas, omegas = np.array([0.0, 1.0, 2.0, 3.0]), np.array([-0.0, -0.0, 1.0, -0.0])
    signed_zeros = dataclasses.replace(three, alphas=alphas, omegas=omegas)
    # a built trajectory whose alphas are the integers 1 and 3
    integer_ends = build(make([0.75, 0.25], [0.0, 4.0], [0.0, -4.0]))
    assert integer_ends.alphas.tolist() == [1.0, 3.0]
    for traj in [*trajs, signed_zeros, integer_ends]:
        alphas, omegas = traj.alphas, traj.omegas
        lo, hi = traj.alpha_min, traj.alpha_max
        xs = np.concatenate([
            alphas, np.nextafter(alphas, np.inf), np.nextafter(alphas, -np.inf),
            rng.uniform(lo, hi, 50),
        ])
        for x in xs.tolist():
            if not lo <= x <= hi:
                continue
            assert _signed(omega_opt(traj, x)) == _signed(float(np.interp(x, alphas, omegas)))
        # exactly at each segment's ends alphas[j] and alphas[j + 1], and at alpha_max
        for j in range(len(alphas) - 1):
            for x in (alphas[j], alphas[j + 1]):
                assert _signed(omega_opt(traj, float(x))) == _signed(float(np.interp(x, alphas, omegas)))
        assert _signed(omega_opt(traj, hi)) == _signed(float(omegas[-1]))
        # within ALPHA_TOL outside the range, alpha is clamped to the ends
        for x, end in ((lo - 5e-10, lo), (hi + 5e-10, hi)):
            assert _signed(omega_opt(traj, x)) == _signed(float(np.interp(end, alphas, omegas)))
        # an np.float64 alpha gives the float's value, bits and sign, at every
        # breakpoint and at both clamps; so does an int equal to the float
        for x in [*alphas.tolist(), lo - 5e-10, hi + 5e-10]:
            want = _signed(omega_opt(traj, x))
            got = omega_opt(traj, np.float64(x))
            assert _signed(got) == want and type(got) is float
            if x == int(x):
                got = omega_opt(traj, int(x))
                assert _signed(got) == want and type(got) is float
    assert [_signed(omega_opt(signed_zeros, x)) for x in (0.0, 1.0, 3.0)] == [(-0.0, True)] * 3
    assert [omega_opt(t, x) for t in (signed_zeros, integer_ends) for x in (1, 3)] == [-0.0, -0.0, -1.0, -3.0]
    invisible = trajs[-1]
    assert invisible.alphas[0] == invisible.alphas[1]
    assert omega_opt(invisible, float(invisible.alphas[0])) == 0.49999999995


def test_trajectory_copies_and_pickles_after_a_lookup(rng):
    # the lookup holds memoryviews, which do not pickle; a copy sets its own
    traj = build(random_instance(rng, 7))
    xs = rng.uniform(traj.alpha_min, traj.alpha_max, 20).tolist()
    want = [omega_opt(traj, x) for x in xs]
    for twin in (copy.deepcopy(traj), pickle.loads(pickle.dumps(traj))):
        assert twin.alphas.tobytes() == traj.alphas.tobytes()
        assert [omega_opt(twin, x) for x in xs] == want
        assert state_at(twin, xs[0])[1:] == state_at(traj, xs[0])[1:]


def test_nan_alpha_is_out_of_range(rng):
    from trajopt.lift import lift_point

    traj = build(random_instance(rng, 4))
    for query in (omega_opt, state_at, lift_point):
        with pytest.raises(AlphaOutOfRange):
            query(traj, float("nan"))


@pytest.mark.parametrize("rows", [None, 1, 2, 3])
def test_batched_dots_equal_per_vertex_dots(rng, monkeypatch, rows):
    # alphas and omegas are dotted a buffer of vertices at a time; each must
    # equal the dot of its own vertex bit for bit, also with buffers of 1-3
    # rows that fill and flush mid-trajectory
    for d in [*range(1, 41), 63, 64, 65, 127, 128, 129]:
        if rows is not None:
            monkeypatch.setattr(trajectory, "_DOT_BUFFER", rows * d)
        trajs = [build(random_instance(rng, d))]
        if d > 1:
            c = rng.integers(0, 3, d).astype(float)
            trajs += [
                build(tie_instance(rng, d)),
                build(tie_instance(rng, d, conserved=c)),
            ]
        for traj in trajs:
            vertices = replayed_vertices(traj)
            for got, coeffs in ((traj.alphas, traj.target_pref), (traj.omegas, traj.cost_pref)):
                want = [float(np.dot(coeffs, v)) for v in vertices]
                assert got.tolist() == want
                assert np.signbit(got).tolist() == np.signbit(want).tolist()


def test_replay_bits_do_not_depend_on_the_buffer_size(rng, monkeypatch):
    # the buffer only batches the dots: one row per call, 2**13 entries and
    # 2**16 entries give the default build's alphas and omegas bit for bit;
    # every instance fills a 2**13 buffer, and the generic one a 2**16 buffer
    c = rng.integers(0, 3, 64).astype(float)
    cases = [
        (128, random_instance(rng, 128)),
        (96, tie_instance(rng, 96)),
        (64, tie_instance(rng, 64, conserved=c)),
    ]
    want = [(traj.alphas.tobytes(), traj.omegas.tobytes()) for traj in (build(inst) for _, inst in cases)]
    for size in (None, 2**13, 2**16):
        for (d, inst), bits in zip(cases, want):
            monkeypatch.setattr(trajectory, "_DOT_BUFFER", size or d)
            traj = build(inst)
            assert traj.dim == d and len(traj.ks) * d > 2**13
            assert (traj.alphas.tobytes(), traj.omegas.tobytes()) == bits


def test_monte_carlo_never_beats_omega(rng):
    from trajopt.oracle import monte_carlo_audit

    inst = random_instance(rng, 5)
    traj = build(inst)
    report = monte_carlo_audit(inst, traj, n_samples=2000, seed=11)
    assert report.violations == 0


def test_uniqueness_conditions():
    assert uniqueness_at_minimum(make([0.6, 0.4], [0, 1], [0, 0])).condition == 1
    r2 = uniqueness_at_minimum(make([0.6, 0.4], [1, 1], [0, 1]))
    assert (r2.unique, r2.condition) == (True, 2)
    r3 = uniqueness_at_minimum(make([0.7, 0.3], [1, 1], [0, 0]))
    assert (r3.unique, r3.condition) == (False, None)
    r4 = uniqueness_at_minimum(make([0.5, 0.5], [1, 1], [0, 0]))
    assert (r4.unique, r4.condition) == (True, 3)


def _uniqueness_by_loops(inst):
    """uniqueness_at_minimum as nested per-class loops: target classes per
    conserved block, cost classes per target class."""
    from trajopt.core import COEFF_EPS, cluster_ranks
    from trajopt.trajectory import MinimumUniqueness, _minimal_pref, _prepare

    prep = _prepare(inst)
    p_min = _minimal_pref(prep)
    blocks = np.zeros(len(p_min), dtype=int) if prep.blocks is None else prep.blocks
    target_classes = []
    for b in np.unique(blocks):
        in_block = np.nonzero(blocks == b)[0]
        ra = cluster_ranks(prep.a_p[in_block], COEFF_EPS)
        target_classes += [in_block[ra == r] for r in np.unique(ra)]
    if all(len(members) == 1 for members in target_classes):
        return MinimumUniqueness(unique=True, condition=1)
    cond2 = cond3 = True
    for members in target_classes:
        re = cluster_ranks(prep.e_p[members], COEFF_EPS)
        for rr in np.unique(re):
            sub = members[re == rr]
            if len(sub) < 2:
                continue
            cond2 = False
            if np.max(p_min[sub]) - np.min(p_min[sub]) > inst.eps_pop:
                cond3 = False
    if cond2:
        return MinimumUniqueness(unique=True, condition=2)
    if cond3:
        return MinimumUniqueness(unique=True, condition=3)
    return MinimumUniqueness(unique=False, condition=None)


def test_uniqueness_matches_per_class_loops(rng):
    # ties within COEFF_EPS = 1e-12 chain: 0, 0.7e-12, 1.4e-12 form one cost
    # class in a target class holding all three, two where 0.7e-12 sits elsewhere
    from conftest import random_degenerate_spectrum

    seen = set()
    for _ in range(400):
        d = int(rng.integers(2, 9))
        lam = random_degenerate_spectrum(rng, d)
        a = rng.integers(0, 3, d) + rng.integers(0, 2, d) * 0.6e-12
        e = rng.integers(0, 2, d) + rng.integers(0, 3, d) * 0.7e-12
        conserved = rng.integers(0, 2, d) if rng.integers(0, 4) == 0 else None
        inst = make(lam, a, e, conserved=conserved)
        got = uniqueness_at_minimum(inst)
        assert got == _uniqueness_by_loops(inst)
        seen.add(got.condition)
    assert seen == {1, 2, 3, None}


def test_build_matches_single_step_rule(rng):
    # the incremental build against a full rescan at every vertex
    for i in range(45):
        d = int(rng.integers(2, 41))
        kind = i % 3
        if kind == 0:
            inst = random_instance(rng, d)
        elif kind == 1:
            inst = random_instance(rng, d, degenerate=True)
        else:
            inst = tie_instance(rng, d)
        assert_single_step_rule(build(inst))


def test_public_queries_follow_the_build(rng):
    # at every vertex of a build, swap_candidates lists the reference
    # candidates in preferred (k, l) order, its first entry within eps_grad
    # of the least gradient is the built step, and so is next_step; with a
    # conserved vector the flat queries equal the generalized ones
    for i in range(32):
        d = int(rng.integers(2, 13))
        if i % 4 == 0:
            inst = random_instance(rng, d)
        elif i % 4 == 1:
            inst = tie_instance(rng, d)
        else:
            inst = tie_instance(rng, d, conserved=rng.integers(0, 3, d).astype(float))
        if i % 8 >= 5:
            # targets 0.6e-12 apart: some pairs differ by no more than COEFF_EPS
            near = np.asarray(inst.target) + rng.integers(0, 3, d) * 0.6e-12
            inst = validate(dataclasses.replace(inst, target=near))
        traj = build(inst)
        perm, inverse = traj.order.perm, traj.order.inverse
        for v in range(len(traj.steps) + 1):
            cands = swap_candidates(traj.vertex_input(v), inst)
            keys = [(int(inverse[i]), int(inverse[j])) for i, j, _ in cands]
            assert keys == sorted(keys)
            ref = single_step_candidates(traj, traj.vertex(v))
            want = sorted((int(perm[k]), int(perm[l]), g, np.signbit(g)) for k, l, g in ref)
            assert sorted((i, j, g, np.signbit(g)) for i, j, g in cands) == want
            got = next_step(traj.vertex_input(v), inst)
            if v == len(traj.steps):
                assert cands == [] and got is None
                continue
            step = traj.steps[v]
            least = min(g for *_, g in cands)
            i_, j_, grad = next(c for c in cands if c[2] <= least + traj.eps_grad)
            assert (i_, j_) == traj.step_input_pair(step)
            assert (grad, np.signbit(grad)) == (step.gradient, np.signbit(step.gradient))
            fields = ("k", "l", "delta_alpha", "alpha_start", "alpha_end", "gradient")
            assert [getattr(got, f) for f in fields] == [getattr(step, f) for f in fields]
            assert np.signbit(got.gradient) == np.signbit(step.gradient)


def test_build_is_exactly_equivariant(rng):
    # with distinct (target, cost) pairs the build is a function of their
    # order alone: a power-of-two rescaling moves only the values it
    # scales, by exactly that factor, and a permutation of the input
    # indices moves nothing (the arrays are in preferred coordinates)
    def arrays(traj):
        return [traj.ks, traj.ls, traj.alphas, traj.gradients, traj.omegas]

    def same(got, want):
        for g, w in zip(arrays(got), want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    for i in range(30):
        d = int(rng.integers(3, 61))
        lam = random_degenerate_spectrum(rng, d) if i % 2 else rng.dirichlet(np.ones(d))
        a, e = rng.normal(size=d), rng.normal(size=d)
        f = 2.0 ** int(rng.integers(-3, 4))
        base = build(make(lam, a, e))
        ks, ls, alphas, gradients, omegas = arrays(base)
        same(build(make(lam, a, e * f)), [ks, ls, alphas, gradients * f, omegas * f])
        same(build(make(lam, a * f, e)), [ks, ls, alphas * f, gradients / f, omegas])
        perm = rng.permutation(d)
        same(build(make(lam[perm], a[perm], e[perm])), arrays(base))


def test_build_scales_to_hundreds(rng):
    # no vertex enumeration: a dense d=200 instance builds in seconds
    import time

    inst = random_instance(rng, 200)
    start = time.perf_counter()
    traj = build(inst)
    assert time.perf_counter() - start < 10.0
    assert len(traj.steps) > 1000
    grads = [s.gradient for s in traj.steps]
    assert all(b - a >= -1e-12 for a, b in zip(grads[:-1], grads[1:]))


def test_entry_point_chains(rng):
    flat = random_instance(rng, 6)
    # the minimal point of a conserved instance descends per block, not globally
    conserved = make(flat.eigenvalues, flat.target, flat.cost, conserved=[0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    for inst in (flat, conserved):
        traj = build(inst)
        lam_desc = np.sort(inst.eigenvalues)[::-1]

        p0, chain0 = entry_point(traj, traj.alpha_min)
        assert all(tt.t == 0.0 for tt in chain0)  # permutation only
        assert np.max(np.abs(apply_chain(chain0, lam_desc) - p0)) < 1e-12
        assert np.allclose(p0, minimal_vertex(inst))

        if traj.steps:
            av = traj.breakpoints[1, 0]  # interior vertex
            p1, chain1 = entry_point(traj, float(av))
            assert all(tt.t == 0.0 for tt in chain1)
            assert np.max(np.abs(apply_chain(chain1, lam_desc) - p1)) < 1e-12

            mid = 0.5 * (traj.breakpoints[0, 0] + traj.breakpoints[1, 0])
            p2, chain2 = entry_point(traj, float(mid))
            assert 0.0 < chain2[-1].t < 1.0  # ends with one partial mix
            assert np.max(np.abs(apply_chain(chain2, lam_desc) - p2)) < 1e-12


def _built_mix(rng, n):
    """n trajectories: flat generic, flat tied (with eps_grad ties or -0.0) and conserved, in turn."""
    out = []
    for i in range(n):
        d = int(rng.integers(2, 16))
        if i % 3 == 0:
            out.append(build(random_instance(rng, d, degenerate=bool(i % 2))))
        elif i % 3 == 1:
            out.append(build(tie_instance(rng, d)))
        else:
            c = rng.integers(0, int(rng.integers(1, 4)), d).astype(float)
            out.append(build(tie_instance(rng, d, conserved=c)))
    return out


def test_vertex_and_state_at_replay_the_steps(rng):
    for traj in _built_mix(rng, 36):
        want = replayed_vertices(traj)
        n = len(traj.steps)
        for i in range(n + 1):
            assert traj.vertex(i).tobytes() == want[i].tobytes()
            assert traj.vertex(i - n - 1).tobytes() == want[i].tobytes()
            p, seg, t = state_at(traj, float(traj.alphas[i]))
            assert np.array_equal(p, traj.order.to_input(want[i]))
            assert (seg, t) == ((i, 0.0) if i < n else (max(n - 1, 0), float(n > 0)))
        for i in (n + 1, -n - 2):
            with pytest.raises(IndexError):
                traj.vertex(i)


def test_steps_is_a_read_only_sequence_of_swap_steps(rng):
    for traj in _built_mix(rng, 9):
        want = tuple(
            SwapStep(k=int(traj.ks[i]), l=int(traj.ls[i]), delta_alpha=float(traj.delta_alphas[i]),
                     gradient=float(traj.gradients[i]), alpha_start=float(traj.alphas[i]),
                     alpha_end=float(traj.alphas[i + 1]))
            for i in range(len(traj.ks))
        )
        steps = traj.steps
        n = len(want)
        assert len(steps) == n and bool(steps) == bool(want)
        assert tuple(steps) == want and tuple(reversed(steps)) == want[::-1]
        for i in range(-n, n):
            assert steps[i] == want[i]
            assert [type(v) for v in dataclasses.astuple(steps[i])] == [int, int] + [float] * 4
            assert np.signbit(steps[i].gradient) == np.signbit(traj.gradients[i])
        for sl in (slice(None), slice(1, 4), slice(-3, None), slice(4, 1), slice(None, None, -2)):
            assert steps[sl] == want[sl]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                steps[i]
        with pytest.raises(TypeError):
            steps[1.0]
        with pytest.raises(TypeError):
            steps[0] = None
        if n:
            assert want[-1] in steps and steps.index(want[-1]) == want.index(want[-1])


def _array_bytes(traj):
    fields = [getattr(traj, f.name) for f in dataclasses.fields(OptimalTrajectory)]
    arrays = [x for x in fields if isinstance(x, np.ndarray)] + [traj.order.perm, traj.order.inverse]
    return sum(x.nbytes for x in arrays)


def test_trajectory_memory_is_linear_in_steps_and_dim(rng):
    d = 128
    flat = build(random_instance(rng, d))
    assert len(flat.steps) == d * (d - 1) // 2
    base = random_instance(rng, d)
    c = (np.arange(d) % 4).astype(float)
    conserved = build(make(base.eigenvalues, base.target, base.cost, conserved=c))
    assert len(conserved.steps) == 4 * 32 * 31 // 2
    for traj in (flat, conserved):
        assert _array_bytes(traj) <= 64 * (len(traj.steps) + d)
        for name in ("initial_vertex", "ks", "ls", "gradients", "delta_alphas", "alphas", "omegas"):
            assert not getattr(traj, name).flags.writeable, name


def test_delta_alphas_are_the_float64_replay_held_in_one_array(rng):
    # the first read of delta_alphas replays every swap; it holds its
    # output array and the d entries, no Python object per step (the
    # list replay held about 50 bytes per step), and each entry is the
    # float64 expression on the replayed vertex, bit for bit
    traj = build(random_instance(rng, 300))
    steps = len(traj.ks)
    tracemalloc.start()
    try:
        traj.delta_alphas
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * steps + 100_000, f"{peak} B held to replay {steps} steps"
    for traj in _built_mix(rng, 9):
        a = traj.target_pref
        want = [(a[k] - a[l]) * (v[l] - v[k]) for k, l, v in zip(traj.ks, traj.ls, replayed_vertices(traj))]
        assert traj.delta_alphas.tobytes() == np.array(want, dtype=float).tobytes()


@pytest.mark.parametrize("conserved", [None, [0.0, 0.0, 1.0, 1.0]], ids=["flat", "two-block"])
def test_entry_points_share_the_build_error_policy(conserved):
    # target differences overflow float64: every function on the prepared
    # coefficients treats them as build does, without a numpy warning
    inst = make([0.4, 0.3, 0.2, 0.1], [-1e308, 1e308, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0],
                conserved=None if conserved is None else np.array(conserved))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = build(inst)
        assert build_generalized(inst).ks.tolist() == traj.ks.tolist()
        minimal_vertex(inst)
        maximal_vertex(inst)
        uniqueness_at_minimum(inst)
        for i in range(len(traj.ks) + 1):
            p = traj.vertex_input(i)
            swap_candidates(p, inst)
            step = next_step(p, inst)
            assert (step is None) == (i == len(traj.ks))
