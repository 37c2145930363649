import dataclasses

import numpy as np
import pytest

from conftest import random_instance
from trajopt import oracle
from trajopt.conserved import build_generalized, from_populations
from trajopt.core import ProblemInstance, validate
from trajopt.errors import AlphaOutOfRange
from trajopt.oracle import (
    _audit_images,
    envelope_min_cost,
    induced_polygon,
    monte_carlo_audit,
    sample_doubly_stochastic,
)
from trajopt.polytope import enumerate_vertices, majorizes
from trajopt.simplex import LPStatus, solve_lp
from trajopt.trajectory import build, omega_opt


def test_induced_polygon_segment():
    vs = enumerate_vertices([0.7, 0.3])
    poly = induced_polygon(vs, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert poly.lower_envelope.shape == (2, 2)
    assert poly.alpha_min == pytest.approx(0.3)
    assert poly.alpha_max == pytest.approx(0.7)


def test_induced_polygon_degenerate_target():
    vs = enumerate_vertices([0.5, 0.3, 0.2])
    poly = induced_polygon(vs, np.ones(3), np.array([0.0, 1.0, 2.0]))
    assert len(poly.lower_envelope) == 1
    assert envelope_min_cost(poly, 1.0) == pytest.approx(0.7)  # 0.5*0 + 0.3*1 + 0.2*2
    with pytest.raises(AlphaOutOfRange):
        envelope_min_cost(poly, 1.5)


def test_envelope_matches_trajectory(rng):
    for i in range(20):
        inst = random_instance(rng, int(rng.integers(3, 7)), degenerate=(i % 2 == 0))
        traj = build(inst)
        vs = enumerate_vertices(inst.eigenvalues, eps=inst.eps_pop)
        poly = induced_polygon(vs, inst.target, inst.cost)
        for alpha in rng.uniform(traj.alpha_min, traj.alpha_max, 25):
            assert omega_opt(traj, float(alpha)) == pytest.approx(
                envelope_min_cost(poly, float(alpha)), abs=1e-9
            )
        # envelope and hull breakpoints are projections of actual vertices
        hull_pts = {tuple(p) for p in poly.points}
        for bp in poly.lower_envelope:
            assert tuple(bp) in hull_pts
        for hp in poly.hull:
            assert tuple(hp) in hull_pts
        # every projected point lies on or inside the counter-clockwise hull cycle
        h = poly.hull
        nxt = np.roll(h, -1, axis=0)
        for pt in poly.points:
            cross = (nxt[:, 0] - h[:, 0]) * (pt[1] - h[:, 1]) - (nxt[:, 1] - h[:, 1]) * (pt[0] - h[:, 0])
            assert np.all(cross >= -1e-12)
        # upper boundary is concave
        ue = poly.upper_envelope
        if len(ue) > 2:
            slopes = np.diff(ue[:, 1]) / np.diff(ue[:, 0])
            assert np.all(np.diff(slopes) <= 1e-9)


def test_envelope_against_lp_oracle(rng):
    # third independent route: minimize cost over convex combinations with
    # the target pinned, via the in-house simplex
    inst = random_instance(rng, 5)
    vs = enumerate_vertices(inst.eigenvalues).vertices
    poly = induced_polygon(vs, inst.target, inst.cost)
    al = vs @ inst.target
    ep = vs @ inst.cost
    for alpha in rng.uniform(al.min(), al.max(), 10):
        a_eq = np.vstack([al, np.ones(len(vs))])
        b_eq = np.array([alpha, 1.0])
        status, _, value = solve_lp(ep, a_eq, b_eq)
        assert status == LPStatus.OPTIMAL
        assert value == pytest.approx(envelope_min_cost(poly, float(alpha)), abs=1e-9)


def test_sample_doubly_stochastic_properties():
    d1 = sample_doubly_stochastic(4, 1, 5)
    assert np.isin(d1, [0.0, 1.0]).all() and d1.sum() == 4  # single permutation
    d = sample_doubly_stochastic(6, 9, 123)
    assert np.max(np.abs(d.sum(0) - 1)) < 1e-12
    assert np.max(np.abs(d.sum(1) - 1)) < 1e-12
    assert np.all(d >= 0)
    assert np.array_equal(d, sample_doubly_stochastic(6, 9, 123))
    lam = np.array([0.4, 0.3, 0.15, 0.1, 0.03, 0.02])
    assert majorizes(lam, d @ lam, 1e-12)


def test_monte_carlo_audit_clean_and_identity(rng):
    inst = random_instance(rng, 6)
    traj = build(inst)
    report = monte_carlo_audit(inst, traj, n_samples=1500, seed=3)
    assert report.passed and report.violations == 0
    assert report.min_slack >= -1e-9
    # identity map: the spectrum itself sits on or above the envelope
    alpha = float(inst.target @ inst.eigenvalues)
    eps = float(inst.cost @ inst.eigenvalues)
    assert eps >= omega_opt(traj, alpha) - 1e-9


def test_audit_detects_tampered_trajectory(rng):
    inst = random_instance(rng, 5)
    traj = build(inst)
    # claim impossibly high optimal cost
    bad = dataclasses.replace(traj, omegas=traj.omegas + 0.05)
    report = monte_carlo_audit(inst, bad, n_samples=500, seed=0)
    assert report.violations > 0


def _conserved_instance(rng):
    """Blocks of sizes 3, 1 and 4; the singleton keeps its eigenvalue."""
    d = 8
    return from_populations(
        validate(
            ProblemInstance(
                eigenvalues=rng.dirichlet(np.ones(d)),
                target=rng.normal(size=d),
                cost=rng.normal(size=d),
                conserved=np.array([0.0, 2.0, 0.0, 1.0, 2.0, 0.0, 2.0, 2.0]),
            )
        )
    )


def _assert_majorized_images(images, lam, blocks):
    for idx in map(np.asarray, blocks):
        part = images[:, idx]
        assert np.max(np.abs(part.sum(axis=1) - lam[idx].sum())) < 1e-12
        for row in part:
            assert majorizes(lam[idx], row, 1e-12)


def test_audit_images_are_majorized_per_block(rng):
    flat = random_instance(rng, 6)
    images = np.vstack(list(_audit_images(flat, 300, seed=4)))
    assert images.shape == (300, 6)
    _assert_majorized_images(images, np.asarray(flat.eigenvalues), [range(6)])

    ginst = _conserved_instance(rng)
    lam = np.asarray(ginst.base.eigenvalues)
    images = np.vstack(list(_audit_images(ginst, 300, seed=4)))
    assert images.shape == (300, 8)
    _assert_majorized_images(images, lam, ginst.structure.blocks)
    assert np.all(images[:, 3] == lam[3])


def test_audit_images_deterministic_per_seed(rng):
    for inst in (random_instance(rng, 5), _conserved_instance(rng)):
        first = np.vstack(list(_audit_images(inst, 200, seed=7)))
        again = np.vstack(list(_audit_images(inst, 200, seed=7)))
        other = np.vstack(list(_audit_images(inst, 200, seed=8)))
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)


def test_audit_images_span_chunks(rng, monkeypatch):
    inst = random_instance(rng, 64)
    lam = np.asarray(inst.eigenvalues)
    chunks = list(_audit_images(inst, 100, seed=1))
    assert len(chunks) > 1
    images = np.vstack(chunks)
    assert images.shape == (100, 64)
    _assert_majorized_images(images, lam, [range(64)])
    # a chunk budget below one sample splits each sample's permutations
    # over several draws
    monkeypatch.setattr(oracle, "AUDIT_CHUNK", 24)
    small = random_instance(rng, 6)
    chunks = list(_audit_images(small, 40, seed=1))
    assert len(chunks) == 40
    _assert_majorized_images(np.vstack(chunks), np.asarray(small.eigenvalues), [range(6)])


def test_audit_detects_tampered_conserved_trajectory(rng):
    ginst = _conserved_instance(rng)
    traj = build_generalized(ginst)
    assert monte_carlo_audit(ginst, traj, n_samples=500, seed=0).passed
    bad = dataclasses.replace(traj, omegas=traj.omegas + 0.05)
    report = monte_carlo_audit(ginst, bad, n_samples=500, seed=0)
    assert report.violations > 0
