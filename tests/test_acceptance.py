"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_degenerate_spectrum, random_instance
from trajopt.conserved import (
    build_generalized,
    generalized_vertex_count,
    swap_candidates_generalized,
)
from trajopt.cooling import (
    SystemSpec,
    coherent_instance,
    cooling_steps,
    demo_coherent_erasure,
    demo_incoherent_cooling,
    free_energy_bound,
    incoherent_instance,
    thermal_populations,
)
from trajopt.core import cost_value
from trajopt.lift import lift_point, unistochastic_of
from trajopt.oracle import envelope_min_cost, induced_polygon, monte_carlo_audit
from trajopt.polytope import av_swap_pairs, av_swaps, edge_pairs, enumerate_vertices, vertex_count
from trajopt.trajectory import build, minimal_vertex, omega_opt, state_at


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"CRITERION {num:2d} FAIL: {description}")
        raise
    print(f"CRITERION {num:2d} PASS: {description}")


def erasure_instance(gaps):
    energies = np.concatenate([[0.0], np.cumsum(gaps)])
    return coherent_instance(
        SystemSpec(energies=(0.0, 0.3), initial_populations=(0.5, 0.5)),
        SystemSpec(energies=energies),
        beta=1.0,
    )


@pytest.fixture(scope="module")
def random_corpus():
    """Criterion 3 corpus: 100 instances, d in 3..7, half degenerate."""
    rng = np.random.default_rng(31415)
    out = []
    for i in range(100):
        d = int(rng.integers(3, 8))
        out.append(random_instance(rng, d, degenerate=(i % 2 == 1)))
    return out


@pytest.fixture(scope="module")
def built_corpus(random_corpus):
    return [(inst, build(inst)) for inst in random_corpus]


def test_c01_erasure_swap_structure():
    with criterion(1, "erasure trajectory structure for all 6 gap orderings"):
        start = time.perf_counter()
        for gaps in itertools.permutations((0.1, 0.3, 0.7)):
            cool = erasure_instance(gaps)
            traj = build(cool.problem)
            steps = cooling_steps(traj, cool.alpha_in)
            assert len(steps) == 4
            pairs = [traj.step_input_pair(s) for s in steps]
            for rank, g in enumerate(np.argsort(gaps, kind="stable")):
                i = int(g) + 1
                assert set(pairs[rank]) == {i, 4 + i - 1}, (gaps, pairs)
            assert set(pairs[3]) == {3, 4}
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c02_reference_gradients_and_entry():
    with criterion(2, "reference machine gradients and on-trajectory start"):
        cool = demo_coherent_erasure()
        inst = cool.problem
        traj = build(inst)
        steps = cooling_steps(traj, cool.alpha_in)
        es, e1, e2, e3 = 0.3, 0.1, 0.4, 1.1
        expected = ((e1 - 0.0) - es, (e2 - e1) - es, (e3 - e2) - es, e3 - es)
        assert len(steps) == 4
        for s, ref in zip(steps, expected):
            assert abs(s.gradient - ref) <= 1e-12
        # the initial state sits on the trajectory with zero envelope slack
        cost_in = cost_value(inst.initial_populations, inst.cost)
        assert abs(cool.alpha_in - 0.5) <= 1e-12
        assert abs(omega_opt(traj, 0.5) - cost_in) <= 1e-12
        vs = enumerate_vertices(inst.eigenvalues, eps=inst.eps_pop)
        poly = induced_polygon(vs, inst.target, inst.cost)
        assert abs(envelope_min_cost(poly, 0.5) - cost_in) <= 1e-12


def test_c03_oracle_equivalence(built_corpus):
    with criterion(3, "trajectory matches hull envelope on 100 random instances"):
        rng = np.random.default_rng(2718)
        start = time.perf_counter()
        worst = 0.0
        for inst, traj in built_corpus:
            vs = enumerate_vertices(inst.eigenvalues, eps=inst.eps_pop)
            poly = induced_polygon(vs, inst.target, inst.cost)
            for alpha in rng.uniform(traj.alpha_min, traj.alpha_max, 50):
                diff = abs(omega_opt(traj, float(alpha)) - envelope_min_cost(poly, float(alpha)))
                worst = max(worst, diff)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst envelope mismatch {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_c04_edge_structure():
    with criterion(4, "av-swap neighbors equal brute-force edges, 20 spectra"):
        rng = np.random.default_rng(161803)
        start = time.perf_counter()
        full_checked = False
        for case in range(20):
            d = 4 + (case // 2) % 2
            if case % 2 == 0:
                lam = rng.dirichlet(np.ones(d))
            else:
                lam = random_degenerate_spectrum(rng, d)
            vs = enumerate_vertices(lam, eps=1e-12)
            predicted = av_swap_pairs(vs, eps=1e-12)
            # first case runs every pair without the symmetry cache as a control
            brute = edge_pairs(vs, symmetry=case > 0)
            full_checked = full_checked or case == 0
            assert predicted == brute, f"case {case}: {lam}"
        elapsed = time.perf_counter() - start
        assert full_checked
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_c05_monte_carlo_audit():
    with criterion(5, "10^4 doubly-stochastic samples stay above the envelope"):
        cool = demo_coherent_erasure()
        traj = build(cool.problem)
        report = monte_carlo_audit(cool.problem, traj, n_samples=10_000, seed=99)
        assert report.n_samples == 10_000
        assert report.violations == 0, f"min slack {report.min_slack:.3e}"
        assert report.min_slack >= -1e-9


def test_c06_convexity_and_gradient_bounds(built_corpus):
    with criterion(6, "gradients non-decreasing; edge gradients bound each vertex"):
        cools = [erasure_instance(g) for g in itertools.permutations((0.1, 0.3, 0.7))]
        cools.append(demo_coherent_erasure())
        trajs = [(c.problem, build(c.problem)) for c in cools]
        trajs.extend(built_corpus)
        for inst, traj in trajs:
            grads = [s.gradient for s in traj.steps]
            assert all(b - a >= -1e-12 for a, b in zip(grads[:-1], grads[1:]))
            if inst.dim > 6:
                continue
            for vi in range(1, len(traj.steps)):
                v = traj.vertex_input(vi)
                plus, minus = [], []
                for sw in av_swaps(v, inst.eps_pop):
                    z = v.copy()
                    z[[sw.k, sw.l]] = z[[sw.l, sw.k]]
                    da = float(inst.target @ (z - v))
                    de = float(inst.cost @ (z - v))
                    if da > 1e-12:
                        plus.append(de / da)
                    elif da < -1e-12:
                        minus.append(de / da)
                assert plus, "interior vertex must have an increasing edge"
                if minus:
                    assert min(plus) >= max(minus) - 1e-12
                assert abs(traj.steps[vi].gradient - min(plus)) <= 1e-9


def test_c07_lifting():
    with criterion(7, "lifted unitaries isometric, unistochastic, consistent"):
        rng = np.random.default_rng(577215)
        for i in range(20):
            inst = random_instance(rng, int(rng.integers(3, 8)), degenerate=(i % 2 == 0))
            traj = build(inst)
            alpha = float(rng.uniform(traj.alpha_min, traj.alpha_max))
            lifted = lift_point(traj, alpha)
            u, ds = lifted.unitary, lifted.doubly_stochastic
            d = inst.dim
            assert np.max(np.abs(u.T @ u - np.eye(d))) <= 1e-12
            assert np.max(np.abs(ds - unistochastic_of(u))) <= 1e-12
            assert np.max(np.abs(ds.sum(axis=0) - 1.0)) <= 1e-12
            assert np.max(np.abs(ds.sum(axis=1) - 1.0)) <= 1e-12
            assert np.min(ds) >= -1e-15
            rho_min = np.diag(minimal_vertex(inst))
            p, _, _ = state_at(traj, alpha)
            assert np.max(np.abs(np.diag(u @ rho_min @ u.T) - p)) <= 1e-12


def test_c08_incoherent_demo():
    with criterion(8, "block sizes, 864 vertices, unique cooling swap, block unitaries"):
        generic = incoherent_instance(
            SystemSpec(energies=(0.0, 1.0), initial_populations=thermal_populations([0.0, 1.0], 0.6)),
            SystemSpec(energies=(0.0, 1.0, 2.0)),
            SystemSpec(energies=(0.0, 1.0)),
            beta_machine=1.0,
            beta_bath=0.25,
        )
        assert generic.generalized.structure.sizes == (1, 3, 4, 3, 1)
        assert generalized_vertex_count(generic.generalized) == 864

        demo = demo_incoherent_cooling()
        assert demo.generalized.structure.sizes == (1, 3, 4, 3, 1)
        cands = swap_candidates_generalized(demo.generalized, demo.problem.initial_populations)
        assert len(cands) == 1
        i, j, _ = cands[0]
        assert {i, j} == {4, 7}  # |020> <-> |101>

        traj = build_generalized(demo.generalized)
        assert {traj.step_input_pair(traj.steps[0])[0], traj.step_input_pair(traj.steps[0])[1]} == {4, 7}
        c_mat = np.diag(demo.problem.conserved)
        for alpha in np.linspace(traj.alpha_min, traj.alpha_max, 9):
            u = lift_point(traj, float(alpha)).unitary
            assert np.max(np.abs(u @ c_mat - c_mat @ u)) <= 1e-12


def test_c09_free_energy_dominated():
    with criterion(9, "work cost dominates the free-energy bound on a 100-point grid"):
        cool = demo_coherent_erasure()
        traj = build(cool.problem)
        omega_in = omega_opt(traj, cool.alpha_in)
        for alpha in np.linspace(traj.alpha_min, traj.alpha_max, 100):
            work = omega_opt(traj, float(alpha)) - omega_in
            slack = work - free_energy_bound(cool, float(alpha))
            assert slack >= -1e-9, f"alpha={alpha}: slack {slack:.3e}"


def test_c10_vertex_counting():
    with criterion(10, "enumerated vertex counts match the multinomial formula"):
        rng = np.random.default_rng(141421)
        for case in range(20):
            d = int(rng.integers(3, 8))
            lam = random_degenerate_spectrum(rng, d)
            vs = enumerate_vertices(lam, eps=1e-12)
            reg, counts = np.unique(vs.eigenvalues, return_counts=True)
            expected = math.factorial(d)
            for c in counts:
                expected //= math.factorial(int(c))
            assert vs.count == expected == vertex_count(lam)
