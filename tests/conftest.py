import numpy as np
import pytest
from hypothesis import settings

from trajopt.core import COEFF_EPS, ProblemInstance, validate
from trajopt.polytope import av_swaps

# Property tests draw the same examples on every run and keep no example
# database, so the suite's verdict does not depend on earlier runs.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def random_instance(rng, d, degenerate=False):
    """Random validated instance; degenerate plants ties in lambda, a and E."""
    if degenerate:
        k = int(rng.integers(2, d + 1))
        vals = rng.uniform(0.1, 1.0, k)
        lam = vals[rng.integers(0, k, d)]
        lam = lam / lam.sum()
        a = rng.integers(0, 3, d).astype(float)
        e = rng.choice([0.0, 0.25, 1.0], d) + rng.integers(0, 2, d) * 0.5
    else:
        lam = rng.dirichlet(np.ones(d))
        a = rng.normal(size=d)
        e = rng.normal(size=d)
    return validate(ProblemInstance(eigenvalues=lam, target=a, cost=e))


def random_degenerate_spectrum(rng, d):
    """Spectrum with a random planted degeneracy pattern (possibly none)."""
    k = int(rng.integers(1, d + 1))
    vals = np.sort(rng.uniform(0.05, 1.0, k))[::-1]
    labels = np.concatenate([np.arange(k), rng.integers(0, k, d - k)])
    rng.shuffle(labels)
    lam = vals[labels]
    return lam / lam.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def tie_instance(rng, d, conserved=None):
    """Degenerate instance that also has eps_grad ties or signed-zero costs.

    Even draws nudge costs by 3e-13 under eps_grad = 1e-9, so ties hold
    within eps_grad but not exactly; odd draws turn some zero costs into
    -0.0, so some gradients are -0.0.
    """
    base = random_instance(rng, d, degenerate=True)
    e = np.array(base.cost)
    eps_grad = base.eps_grad
    if rng.integers(0, 2):
        e = np.where(e == 0.0, rng.choice([-0.0, 0.0], d), e)
    else:
        e = e + rng.integers(0, 2, d) * 3e-13
        eps_grad = 1e-9
    return validate(
        ProblemInstance(
            eigenvalues=base.eigenvalues,
            target=base.target,
            cost=e,
            conserved=conserved,
            eps_grad=eps_grad,
        )
    )


def replayed_vertices(traj):
    """Every vertex of traj, one row each, in preferred coordinates.

    The reference for `OptimalTrajectory.vertex`: row 0 is the initial
    vertex and each later row is the one before it with the step's two
    entries exchanged.
    """
    rows = [np.array(traj.initial_vertex)]
    for step in traj.steps:
        row = rows[-1].copy()
        row[[step.k, step.l]] = row[[step.l, step.k]]
        rows.append(row)
    return np.array(rows)


def single_step_candidates(traj, p):
    """Target-raising adjacent swaps of preferred-basis p, as (k, l, gradient).

    Built on `polytope.av_swaps` inside each block, not on the package's
    swap queue: a pair counts when its target gap exceeds COEFF_EPS.
    """
    blocks = traj.block_of_position
    if blocks is None:
        blocks = np.zeros(traj.dim, dtype=int)
    a_p, e_p = traj.target_pref, traj.cost_pref
    out = []
    for b in np.unique(blocks):
        pos = np.nonzero(blocks == b)[0]
        for sw in av_swaps(p[pos], traj.eps_pop):
            k, l = int(pos[sw.k]), int(pos[sw.l])
            gap = a_p[k] - a_p[l]
            if gap > COEFF_EPS:
                out.append((k, l, float((e_p[k] - e_p[l]) / gap)))
    return out


def assert_single_step_rule(traj):
    """Every step is the single-step rule at its start vertex.

    The reference lists the candidates with `single_step_candidates`
    (`polytope.av_swaps` per block) and takes the smallest (k, l) among the
    gradients within eps_grad of the least. The comparison is exact: same
    (k, l), same gradient bits (-0.0 included); the last vertex has no
    candidate left.
    """
    vertices = replayed_vertices(traj)
    for step, p in zip(traj.steps, vertices[:-1]):
        cands = single_step_candidates(traj, p)
        least = min(g for *_, g in cands)
        k, l, grad = min(c for c in cands if c[2] <= least + traj.eps_grad)
        assert (step.k, step.l, step.gradient) == (k, l, grad)
        assert np.signbit(step.gradient) == np.signbit(grad)
    assert single_step_candidates(traj, vertices[-1]) == []
