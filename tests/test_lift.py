import math

import numpy as np
import pytest

from conftest import random_instance, tie_instance
from trajopt.core import ProblemInstance, validate
from trajopt.errors import DimensionMismatch, IndexOutOfRange, TOutOfRange
from trajopt.lift import (
    TTransform,
    TwoLevelRotation,
    apply_chain,
    lift_point,
    minimal_permutation,
    rotation_matrix,
    t_transform_matrix,
    unistochastic_of,
)
from trajopt.trajectory import build, entry_point, maximal_vertex, minimal_vertex, state_at


def test_t_transform_matrix():
    assert np.array_equal(t_transform_matrix(TTransform(0, 1, 1.0, 3)), np.eye(3))
    swap = t_transform_matrix(TTransform(0, 1, 0.0, 2))
    assert np.array_equal(swap, [[0, 1], [1, 0]])
    m = t_transform_matrix(TTransform(0, 1, 0.25, 2))
    assert np.allclose(m, [[0.25, 0.75], [0.75, 0.25]])
    with pytest.raises(TOutOfRange):
        t_transform_matrix(TTransform(0, 1, 1.5, 2))
    with pytest.raises(IndexOutOfRange):
        t_transform_matrix(TTransform(0, 0, 0.5, 2))
    with pytest.raises(IndexOutOfRange):
        t_transform_matrix(TTransform(0, 5, 0.5, 2))


def test_rotation_matrix(rng):
    assert np.array_equal(rotation_matrix(TwoLevelRotation(0, 1, 0.0, 3)), np.eye(3))
    signed = rotation_matrix(TwoLevelRotation(0, 1, math.pi / 2, 2))
    assert np.allclose(signed, [[0, 1], [-1, 0]], atol=1e-15)
    for _ in range(20):
        theta = rng.uniform(0, math.pi)
        u = rotation_matrix(TwoLevelRotation(1, 3, theta, 5))
        assert np.max(np.abs(u.T @ u - np.eye(5))) < 1e-15
        ds = unistochastic_of(u)
        assert np.max(np.abs(ds.sum(0) - 1)) < 1e-15
        assert np.max(np.abs(ds.sum(1) - 1)) < 1e-15
        tt = t_transform_matrix(TTransform(1, 3, math.cos(theta) ** 2, 5))
        assert np.max(np.abs(ds - tt)) < 1e-15


def test_unistochastic_of_permutation():
    p = np.zeros((3, 3))
    p[[0, 1, 2], [2, 0, 1]] = 1.0
    assert np.array_equal(unistochastic_of(p), p)
    assert np.array_equal(unistochastic_of(np.eye(4)), np.eye(4))


def test_lift_point_consistency(rng):
    for i in range(10):
        inst = random_instance(rng, int(rng.integers(3, 7)), degenerate=(i % 2 == 0))
        traj = build(inst)
        p_min = minimal_vertex(inst)
        rho_min = np.diag(p_min)
        for alpha in rng.uniform(traj.alpha_min, traj.alpha_max, 5):
            lifted = lift_point(traj, float(alpha))
            u = lifted.unitary
            assert np.max(np.abs(u.T @ u - np.eye(inst.dim))) <= 1e-12
            ds = lifted.doubly_stochastic
            assert np.max(np.abs(ds - unistochastic_of(u))) <= 1e-15
            assert np.max(np.abs(ds.sum(0) - 1)) <= 1e-12
            assert np.max(np.abs(ds.sum(1) - 1)) <= 1e-12
            p, _, _ = state_at(traj, float(alpha))
            assert np.max(np.abs(np.diag(u @ rho_min @ u.T) - p)) <= 1e-12
            assert np.max(np.abs(lifted.density_diagonal - ds @ p_min)) <= 1e-15


def test_lift_at_extremes(rng):
    inst = random_instance(rng, 5)
    traj = build(inst)
    lo = lift_point(traj, traj.alpha_min)
    assert np.array_equal(lo.unitary, np.eye(5))  # permutation (identity) only
    assert np.allclose(lo.density_diagonal, minimal_vertex(inst))
    hi = lift_point(traj, traj.alpha_max)
    assert np.allclose(hi.density_diagonal, maximal_vertex(inst), atol=1e-12)
    # spectrum preserved: the lifted state is a rotation of a diagonal state
    rho = hi.unitary @ np.diag(minimal_vertex(inst)) @ hi.unitary.T
    assert np.allclose(np.sort(np.linalg.eigvalsh(rho)), np.sort(inst.eigenvalues), atol=1e-12)


def test_minimal_permutation_matrix(rng):
    # a conserved minimal point is descending inside each block only, so the
    # flat preferred order does not place the spectrum there
    for traj in _trajectories(rng, 30):
        lam_desc = np.sort(traj.initial_vertex)[::-1]
        assert np.array_equal(minimal_permutation(traj) @ lam_desc, traj.vertex_input(0))


def _trajectories(rng, n):
    """Flat, tied and conserved trajectories with d <= 12."""
    for i in range(n):
        d = int(rng.integers(2, 13))
        if i % 3 == 0:
            yield build(random_instance(rng, d))
        elif i % 3 == 1:
            yield build(tie_instance(rng, d))
        else:
            yield build(tie_instance(rng, d, conserved=rng.integers(0, 3, d).astype(float)))


def _dense_unitary(traj, alpha):
    """Reference lift: one dense rotation_matrix product per completed step."""
    _, seg, frac = state_at(traj, alpha)
    d = traj.dim
    u = np.eye(d)
    n_full = seg if frac < 1.0 else seg + 1
    for step in traj.steps[:n_full]:
        i, j = traj.step_input_pair(step)
        u = rotation_matrix(TwoLevelRotation(i=i, j=j, theta=math.pi / 2, dim=d)) @ u
    if 0.0 < frac < 1.0:
        i, j = traj.step_input_pair(traj.steps[seg])
        theta = math.acos(math.sqrt(1.0 - frac))
        u = rotation_matrix(TwoLevelRotation(i=i, j=j, theta=theta, dim=d)) @ u
    return u


def _exact_swaps(traj, n):
    """Product of the first n steps as exact integer rotations by pi/2."""
    d = traj.dim
    u = np.eye(d)
    for step in traj.steps[:n]:
        i, j = traj.step_input_pair(step)
        r = np.eye(d)
        r[i, i] = r[j, j] = 0.0
        r[i, j], r[j, i] = 1.0, -1.0
        u = r @ u
    return u


def test_lift_point_matches_dense_product(rng):
    for traj in _trajectories(rng, 30):
        alphas = rng.uniform(traj.alpha_min, traj.alpha_max, 4).tolist()
        for alpha in alphas + traj.breakpoints[:, 0].tolist():
            lifted = lift_point(traj, alpha)
            dense = _dense_unitary(traj, alpha)
            assert np.max(np.abs(lifted.unitary - dense)) <= 1e-14
            ds = unistochastic_of(dense)
            assert np.max(np.abs(lifted.doubly_stochastic - ds)) <= 1e-14
            assert np.max(np.abs(lifted.density_diagonal - ds @ traj.vertex_input(0))) <= 1e-14


def test_lift_point_is_signed_permutation_at_breakpoints(rng):
    for traj in _trajectories(rng, 30):
        for v, alpha in enumerate(traj.breakpoints[:, 0].tolist()):
            lifted = lift_point(traj, alpha)
            u = lifted.unitary
            assert set(np.unique(u).tolist()) <= {-1.0, 0.0, 1.0}
            assert np.array_equal(np.count_nonzero(u, axis=0), np.ones(traj.dim))
            assert np.array_equal(np.count_nonzero(u, axis=1), np.ones(traj.dim))
            assert np.array_equal(u, _exact_swaps(traj, v))
            assert np.array_equal(lifted.density_diagonal, traj.vertex_input(v))


def test_lift_zero_step_trajectory_is_identity():
    inst = validate(ProblemInstance(eigenvalues=np.full(4, 0.25), target=np.arange(4.0), cost=np.ones(4)))
    traj = build(inst)
    assert len(traj.steps) == 0
    lifted = lift_point(traj, traj.alpha_min)
    assert np.array_equal(lifted.unitary, np.eye(4))
    assert np.array_equal(lifted.doubly_stochastic, np.eye(4))


def test_lift_at_fraction_one_counts_step_completed(rng):
    traj = build(random_instance(rng, 6))
    n = len(traj.steps)
    _, seg, frac = state_at(traj, traj.alpha_max)
    assert (seg, frac) == (n - 1, 1.0)
    assert np.array_equal(lift_point(traj, traj.alpha_max).unitary, _exact_swaps(traj, n))


def test_apply_chain_matches_dense_product(rng):
    for traj in _trajectories(rng, 30):
        alphas = rng.uniform(traj.alpha_min, traj.alpha_max, 3).tolist()
        for alpha in alphas + traj.breakpoints[:, 0].tolist():
            _, chain = entry_point(traj, alpha)
            v = rng.dirichlet(np.ones(traj.dim))
            dense = v
            for tt in chain:
                dense = t_transform_matrix(tt) @ dense
            assert np.max(np.abs(apply_chain(chain, v) - dense)) <= 1e-15


def test_apply_chain_checks_each_transform():
    v = np.array([0.5, 0.3, 0.2])
    ok = TTransform(0, 1, 0.5, 3)
    for t in (1.5, -0.1, float("nan")):
        with pytest.raises(TOutOfRange):
            apply_chain([ok, TTransform(0, 1, t, 3)], v)
    for i, j in ((1, 1), (0, 3), (-1, 2)):
        with pytest.raises(IndexOutOfRange):
            apply_chain([ok, TTransform(i, j, 0.5, 3)], v)
    with pytest.raises(DimensionMismatch):
        apply_chain([TTransform(0, 1, 0.5, 4)], v)
