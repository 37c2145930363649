import numpy as np
import pytest

from conftest import assert_single_step_rule, random_instance, replayed_vertices, tie_instance
from trajopt.conserved import (
    block_decompose,
    block_spectra,
    build_generalized,
    coherence_mass,
    dephase,
    enumerate_generalized_vertices,
    from_density_matrix,
    from_populations,
    generalized_vertex_count,
    maximal_point_generalized,
    swap_candidates_generalized,
)
from trajopt.core import ProblemInstance, validate
from trajopt.errors import NotAVertex, NotHermitian, NotUnitTrace
from trajopt.polytope import av_swaps, is_edge
from trajopt.trajectory import build, maximal_vertex, minimal_vertex, swap_candidates


def test_block_decompose_examples():
    st = block_decompose([0.0, 1.0, 1.0, 2.0])
    assert st.blocks == ((0,), (1, 2), (3,))
    assert np.allclose(st.block_values, [0, 1, 2])
    st1 = block_decompose([5.0, 5.0, 5.0])
    assert st1.blocks == ((0, 1, 2),)


def test_constant_conserved_reduces_to_base(rng):
    for i in range(10):
        inst = random_instance(rng, int(rng.integers(3, 7)), degenerate=(i % 2 == 0))
        with_c = validate(
            ProblemInstance(
                eigenvalues=inst.eigenvalues,
                target=inst.target,
                cost=inst.cost,
                conserved=np.full(inst.dim, 3.0),
            )
        )
        ginst = from_populations(with_c)
        base = build(inst)
        gen = build_generalized(ginst)
        assert np.array_equal(base.breakpoints, gen.breakpoints)
        assert np.array_equal(replayed_vertices(base), replayed_vertices(gen))
        assert [(s.k, s.l) for s in base.steps] == [(s.k, s.l) for s in gen.steps]
        assert [s.gradient for s in base.steps] == [s.gradient for s in gen.steps]
        # bit equality, signed zeros included
        assert maximal_point_generalized(ginst).tobytes() == maximal_vertex(inst).tobytes()
        p_min = minimal_vertex(inst)
        flat = swap_candidates(p_min, inst)
        assert swap_candidates_generalized(ginst, p_min) == flat
        assert [np.signbit(g) for *_, g in swap_candidates_generalized(ginst, p_min)] == [
            np.signbit(g) for *_, g in flat
        ]


def test_two_block_merge_is_sorted_union(rng):
    # disjoint blocks: the merged gradient sequence interleaves the per-block ones
    for _ in range(10):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        i1 = random_instance(rng, d1)
        i2 = random_instance(rng, d2)
        lam = np.concatenate([i1.eigenvalues * 0.5, i2.eigenvalues * 0.5])
        inst = validate(
            ProblemInstance(
                eigenvalues=lam,
                target=np.concatenate([i1.target, i2.target]),
                cost=np.concatenate([i1.cost, i2.cost]),
                conserved=np.concatenate([np.zeros(d1), np.ones(d2)]),
            )
        )
        gen = build_generalized(from_populations(inst))
        merged = sorted(s.gradient for s in gen.steps)
        per_block = sorted([s.gradient for s in build(i1).steps] + [s.gradient for s in build(i2).steps])
        assert len(merged) == len(per_block)
        assert np.allclose(merged, per_block, atol=1e-12)
        grads = [s.gradient for s in gen.steps]
        assert all(b - a >= -1e-12 for a, b in zip(grads[:-1], grads[1:]))


def test_generalized_steps_stay_in_blocks(rng):
    inst = random_instance(rng, 6)
    inst = validate(
        ProblemInstance(
            eigenvalues=inst.eigenvalues,
            target=inst.target,
            cost=inst.cost,
            conserved=np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0]),
        )
    )
    ginst = from_populations(inst)
    traj = build_generalized(ginst)
    blocks = traj.block_of_position
    for s in traj.steps:
        assert blocks[s.k] == blocks[s.l]
    # endpoint is the per-block maximal point
    assert np.allclose(traj.vertex_input(len(traj.steps)), maximal_point_generalized(ginst))


def test_maximal_point_ranks_targets_per_block():
    # targets 0, 0.6e-12, 1.2e-12 chain into one class across the blocks,
    # but inside block {0, 1} the gap 1.2e-12 exceeds COEFF_EPS, so the
    # larger population goes to the larger target, not to the cheaper level
    ginst = from_populations(
        validate(
            ProblemInstance(
                eigenvalues=np.array([0.4, 0.3, 0.2, 0.1]),
                target=np.array([0.0, 1.2e-12, 0.6e-12, 5.0]),
                cost=np.array([0.0, 1.0, 0.0, 0.0]),
                conserved=np.array([0.0, 0.0, 1.0, 1.0]),
            )
        )
    )
    traj = build_generalized(ginst)
    assert maximal_point_generalized(ginst).tolist() == [0.3, 0.4, 0.1, 0.2]
    assert traj.vertex_input(len(traj.steps)).tolist() == [0.3, 0.4, 0.1, 0.2]


def test_generalized_build_matches_single_step_rule(rng):
    # random block patterns, half of them with planted and eps_grad ties
    for i in range(30):
        d = int(rng.integers(2, 41))
        conserved = rng.integers(0, int(rng.integers(1, 6)), d).astype(float)
        if i % 2 == 0:
            inst = random_instance(rng, d)
            inst = validate(
                ProblemInstance(
                    eigenvalues=inst.eigenvalues,
                    target=inst.target,
                    cost=inst.cost,
                    conserved=conserved,
                )
            )
        else:
            inst = tie_instance(rng, d, conserved=conserved)
        assert_single_step_rule(build_generalized(from_populations(inst)))


def test_generalized_envelope_matches_trajectory(rng):
    # random block patterns: the constrained trajectory must trace the lower
    # boundary of the product-polytope projection
    from trajopt.oracle import envelope_min_cost, induced_polygon
    from trajopt.trajectory import omega_opt

    for i in range(15):
        d = int(rng.integers(4, 9))
        c = rng.integers(0, max(2, d // 2), d).astype(float)
        lam = rng.dirichlet(np.ones(d))
        if i % 2:
            lam = np.round(lam, 2)  # plant degeneracies
            lam[-1] += 1.0 - lam.sum()
            if np.any(lam < 0):
                continue
        inst = validate(
            ProblemInstance(lam, rng.normal(size=d), rng.normal(size=d), conserved=c)
        )
        gi = from_populations(inst)
        traj = build_generalized(gi)
        poly = induced_polygon(enumerate_generalized_vertices(gi), inst.target, inst.cost)
        assert traj.alpha_min == pytest.approx(poly.alpha_min, abs=1e-12)
        assert traj.alpha_max == pytest.approx(poly.alpha_max, abs=1e-12)
        for alpha in rng.uniform(traj.alpha_min, traj.alpha_max, 30):
            assert omega_opt(traj, float(alpha)) == pytest.approx(
                envelope_min_cost(poly, float(alpha)), abs=1e-9
            )


def test_product_polytope_edges_match_block_swaps(rng):
    # two small blocks: edges of the product polytope are a within-block
    # av-swap times a fixed vertex of the other block
    lam1, lam2 = np.array([0.35, 0.15]), np.array([0.3, 0.15, 0.05])
    inst = validate(
        ProblemInstance(
            eigenvalues=np.concatenate([lam1, lam2]),
            target=rng.normal(size=5),
            cost=rng.normal(size=5),
            conserved=np.array([0.0, 0.0, 1.0, 1.0, 1.0]),
        )
    )
    ginst = from_populations(inst)
    verts = enumerate_generalized_vertices(ginst)
    assert len(verts) == generalized_vertex_count(ginst) == 2 * 6

    class _Wrap:
        vertices = verts
        count = len(verts)

    predicted = set()
    for i, v in enumerate(verts):
        for lo, hi in ((0, 2), (2, 5)):
            idx = np.arange(lo, hi)
            for sw in av_swaps(v[idx], 1e-12):
                w = v.copy()
                a, b = idx[sw.k], idx[sw.l]
                w[[a, b]] = w[[b, a]]
                j = int(np.nonzero(np.all(np.abs(verts - w) < 1e-15, axis=1))[0][0])
                predicted.add((min(i, j), max(i, j)))
    brute = set()
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if is_edge(verts[i], verts[j], _Wrap, 1e-9):
                brute.add((i, j))
    assert brute == predicted


def test_product_thermal_state_already_block_diagonal():
    # the 12-dim product state is diagonal in the product energy eigenbasis,
    # so dephasing in the total-energy blocks leaves it untouched
    from trajopt.cooling import demo_incoherent_cooling

    demo = demo_incoherent_cooling()
    rho = np.diag(demo.problem.eigenvalues)
    st = demo.generalized.structure
    assert np.array_equal(dephase(rho, st), rho)
    assert coherence_mass(rho, st) == 0.0
    spectra = block_spectra(rho, st)
    for block, spec in zip(st.blocks, spectra):
        assert np.allclose(spec, np.sort(demo.problem.eigenvalues[list(block)]), atol=1e-15)


def test_generalized_vertex_count_small_blocks(rng):
    inst = validate(
        ProblemInstance(
            eigenvalues=np.array([0.5, 0.3, 0.2]),
            target=np.array([1.0, 0.0, 0.0]),
            cost=np.zeros(3),
            conserved=np.zeros(3),
        )
    )
    assert generalized_vertex_count(from_populations(inst)) == 6
    degenerate = validate(
        ProblemInstance(
            eigenvalues=np.array([0.4, 0.3, 0.3]),
            target=np.array([1.0, 0.0, 0.0]),
            cost=np.zeros(3),
            conserved=np.zeros(3),
        )
    )
    assert generalized_vertex_count(from_populations(degenerate)) == 3


def _random_unitary(rng, m):
    q, r = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_block_spectra_recovers_planted_spectra(rng):
    # each block is U diag(spectrum) U^dagger for a random unitary U, on
    # interleaved indices, plus cross-block coherences that dephasing drops
    for _ in range(10):
        d = int(rng.integers(1, 10))
        c = rng.integers(0, 3, d).astype(float)
        st = block_decompose(c)
        planted = [np.sort(rng.dirichlet(np.ones(len(b)))) * len(b) / d for b in st.blocks]
        rho = np.zeros((d, d), dtype=complex)
        for block, spec in zip(st.blocks, planted):
            u = _random_unitary(rng, len(block))
            rho[np.ix_(block, block)] = (u * spec) @ u.conj().T
        for i, j in zip(*np.nonzero(c[:, None] != c[None, :])):
            if i < j:
                rho[i, j] = 1e-3 * (1 + 1j)
                rho[j, i] = np.conj(rho[i, j])
        spectra = block_spectra(rho, st)
        assert len(spectra) == len(planted)
        for got, want in zip(spectra, planted):
            assert np.max(np.abs(got - want)) < 1e-12


def test_dephase_behavior(rng):
    st = block_decompose([0.0, 1.0, 1.0])
    diag = np.diag([0.5, 0.3, 0.2])
    assert np.array_equal(dephase(diag, st), diag)
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho).real
    dp = dephase(rho, st)
    assert dp[0, 1] == 0 and dp[0, 2] == 0 and dp[1, 0] == 0
    assert dp[1, 2] == rho[1, 2]
    assert coherence_mass(dp, st) == 0.0
    # cross-block-only coherences: dephasing keeps exactly the diagonal
    cross = np.diag([0.5, 0.3, 0.2]).astype(complex)
    cross[0, 1] = cross[1, 0] = 0.05
    st2 = block_decompose([0.0, 1.0, 2.0])
    assert np.array_equal(dephase(cross, st2), np.diag([0.5, 0.3, 0.2]))
    with pytest.raises(NotHermitian):
        dephase(np.array([[0.5, 0.1], [0.3, 0.5]]), block_decompose([0.0, 1.0]))
    with pytest.raises(NotUnitTrace):
        dephase(np.eye(2), block_decompose([0.0, 1.0]))


def test_from_density_matrix_spectra(rng):
    c = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    st = block_decompose(c)
    rho = rng.normal(size=(6, 6))
    rho = rho @ rho.T
    rho /= np.trace(rho)
    spectra = block_spectra(rho, st)
    assert [len(s) for s in spectra] == [1, 2, 3]
    gi = from_density_matrix(rho, target=rng.normal(size=6), cost=rng.normal(size=6), conserved=c)
    total = np.concatenate(gi.block_lambdas)
    assert abs(total.sum() - 1.0) < 1e-9
    traj = build_generalized(gi)
    grads = [s.gradient for s in traj.steps]
    assert all(b - a >= -1e-12 for a, b in zip(grads[:-1], grads[1:]))


def test_rank_one_density_matrix_has_nonnegative_vertices(rng):
    # a pure state leaves each block rank one, so the block spectra carry
    # round-off entries near -1e-17; the trajectory starts from the
    # validated (clipped) spectrum, never from those
    for _ in range(20):
        d = int(rng.integers(2, 30))
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        c = rng.integers(0, max(1, d // 3), d).astype(float)
        gi = from_density_matrix(np.outer(psi, psi.conj()), rng.normal(size=d), rng.normal(size=d), c)
        traj = build_generalized(gi)
        assert replayed_vertices(traj).min() >= 0.0
        assert np.concatenate(gi.block_lambdas).min() >= 0.0


def test_swap_candidates_generalized_checks_each_block():
    # blocks {0, 1} and {2, 3}; spectra [0.4, 0.1] and [0.3, 0.2]
    ginst = from_populations(
        validate(
            ProblemInstance(
                eigenvalues=np.array([0.4, 0.1, 0.3, 0.2]),
                target=np.array([0.0, 1.0, 2.0, 3.0]),
                cost=np.array([0.0, 1.0, 2.0, 3.0]),
                conserved=np.array([0.0, 0.0, 1.0, 1.0]),
            )
        )
    )
    assert len(swap_candidates_generalized(ginst, [0.1, 0.4, 0.2, 0.3])) == 0
    assert len(swap_candidates_generalized(ginst, [0.4, 0.1, 0.3, 0.2])) == 2
    # a permutation of the whole spectrum that moves mass across blocks
    with pytest.raises(NotAVertex):
        swap_candidates_generalized(ginst, [0.4, 0.3, 0.1, 0.2])
    with pytest.raises(NotAVertex):
        swap_candidates_generalized(ginst, [0.7, 0.1, 0.1, 0.1])
    with pytest.raises(NotAVertex):
        swap_candidates_generalized(ginst, [np.nan, 0.1, 0.3, 0.2])
    # one entry too many
    with pytest.raises(NotAVertex):
        swap_candidates_generalized(ginst, [0.4, 0.1, 0.3, 0.2, 0.0])
