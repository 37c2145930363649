import numpy as np
import pytest

from trajopt.core import ProblemInstance, validate


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


def assert_single_step_rule(traj):
    """Every step is what `_candidates` + `_choose` pick at its start vertex.

    The comparison is exact: same (k, l), same gradient bits (-0.0 included);
    the last vertex has no candidate left.
    """
    from trajopt.trajectory import _candidates, _choose, _position_groups

    groups = _position_groups(traj.dim, traj.block_of_position)
    a_p, e_p = traj.target_pref, traj.cost_pref
    for step, p in zip(traj.steps, traj.vertices[:-1]):
        ks, ls, grads = _candidates(p, a_p, e_p, traj.eps_pop, groups)
        k, l, grad = _choose(ks, ls, grads, traj.eps_grad)
        assert (step.k, step.l, step.gradient) == (k, l, grad)
        assert np.signbit(step.gradient) == np.signbit(grad)
    ks, _, _ = _candidates(traj.vertices[-1], a_p, e_p, traj.eps_pop, groups)
    assert len(ks) == 0
