import numpy as np
import pytest

from trajopt.core import (
    ProblemInstance,
    block_indices,
    cost_value,
    preferred_order,
    target_value,
    validate,
)
from trajopt.errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NonFiniteValue,
    NonPositiveTolerance,
    NotMajorized,
    NotNormalized,
    TrajoptError,
)


def test_validate_accepts_well_formed():
    inst = validate(
        ProblemInstance(
            eigenvalues=np.array([0.5, 0.5]),
            target=np.array([1.0, 0.0]),
            cost=np.array([0.0, 0.3]),
        )
    )
    assert inst.dim == 2
    assert inst.eigenvalues.sum() == pytest.approx(1.0, abs=1e-15)


def test_validate_rescales_tiny_norm_error():
    inst = validate(
        ProblemInstance(
            eigenvalues=np.array([0.5 + 2e-10, 0.5]),
            target=np.array([1.0, 0.0]),
            cost=np.array([0.0, 0.3]),
        )
    )
    assert abs(inst.eigenvalues.sum() - 1.0) < 1e-15


def test_validate_rejects_bad_inputs():
    with pytest.raises(NotNormalized):
        validate(ProblemInstance(np.array([0.6, 0.6]), np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    with pytest.raises(DimensionMismatch):
        validate(ProblemInstance(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0])))
    with pytest.raises(NegativeEigenvalue):
        validate(ProblemInstance(np.array([1.1, -0.1]), np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    with pytest.raises(NonPositiveTolerance):
        validate(ProblemInstance(np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), eps_pop=0.0))
    with pytest.raises(NotMajorized):
        validate(
            ProblemInstance(
                np.array([0.5, 0.5]),
                np.array([1.0, 0.0]),
                np.array([0.0, 1.0]),
                initial_populations=np.array([0.9, 0.1]),
            )
        )


WELL_FORMED = {
    "eigenvalues": [0.5, 0.3, 0.2],
    "target": [1.0, 0.0, 2.0],
    "cost": [0.0, 0.3, 0.1],
    "conserved": [1.0, 1.0, 2.0],
    "initial_populations": [0.4, 0.3, 0.3],
}


def _instance(**changes):
    fields = dict(WELL_FORMED, **changes)
    vectors = {k: np.array(v) for k, v in fields.items() if k in WELL_FORMED}
    return ProblemInstance(**vectors, **{k: v for k, v in fields.items() if k not in WELL_FORMED})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", list(WELL_FORMED))
def test_validate_rejects_non_finite_entries(field, value):
    validate(_instance())
    vec = list(WELL_FORMED[field])
    vec[1] = value
    with pytest.raises(NonFiniteValue, match=field):
        validate(_instance(**{field: vec}))


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["eps_pop", "eps_grad"])
def test_validate_rejects_non_positive_or_non_finite_tolerances(name, value):
    with pytest.raises(NonPositiveTolerance, match=name):
        validate(_instance(**{name: value}))


def test_preferred_order_examples():
    assert list(preferred_order([0, 1, 0, 1], [0, 0, 1, 1]).perm) == [0, 2, 1, 3]
    assert list(preferred_order([0, 0], [5, 2]).perm) == [1, 0]
    # ground projector on the first tensor row: zero-target states come first
    es = 0.3
    a = [1, 1, 1, 1, 0, 0, 0, 0]
    e = [0, 0.1, 0.4, 1.1, es, 0.1 + es, 0.4 + es, 1.1 + es]
    assert list(preferred_order(a, e).perm) == [4, 5, 6, 7, 0, 1, 2, 3]


def test_preferred_order_idempotent(rng):
    for _ in range(20):
        d = int(rng.integers(2, 9))
        a = rng.choice([0.0, 1.0, 2.0], d)
        e = rng.normal(size=d)
        po = preferred_order(a, e)
        again = preferred_order(a[po.perm], e[po.perm])
        assert list(again.perm) == list(range(d))


def test_order_inverse_roundtrip(rng):
    a = rng.normal(size=7)
    e = rng.normal(size=7)
    po = preferred_order(a, e)
    assert list(po.perm[po.inverse]) == list(range(7))
    v = rng.normal(size=7)
    assert np.array_equal(po.to_input(po.to_preferred(v)), v)


def test_functionals():
    assert target_value([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)
    assert cost_value([1.0, 0.0, 0.0, 0.0], [0.0, 0.1, 0.4, 1.1]) == 0.0
    with pytest.raises(DimensionMismatch):
        target_value([0.5, 0.5], [1.0])


def test_functionals_linear(rng):
    a = rng.normal(size=6)
    for _ in range(50):
        p, q = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        t = rng.uniform()
        mix = t * p + (1 - t) * q
        direct = target_value(mix, a)
        combo = t * target_value(p, a) + (1 - t) * target_value(q, a)
        assert abs(direct - combo) < 1e-12


def test_block_indices_equal_one_pass_per_block(rng):
    """The sort-and-split lists equal the flatnonzero pass per block, empty blocks included."""
    cases = [np.arange(50), np.zeros(50, dtype=int), np.array([0]), np.array([2, 0, 2])]
    for _ in range(40):
        d = int(rng.integers(1, 60))
        cases.append(rng.integers(0, int(rng.integers(1, d + 2)), d))
    for block_of in cases:
        got = block_indices(block_of, len(block_of))
        want = [np.flatnonzero(block_of == b) for b in range(int(block_of.max()) + 1)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tolist() == w.tolist()
    assert [b.tolist() for b in block_indices(None, 4)] == [[0, 1, 2, 3]]


def _unnormalized():
    validate(ProblemInstance(eigenvalues=np.array([0.7, 0.2]), target=np.array([1.0, 0.0]), cost=np.zeros(2)))


def _alpha_outside():
    from trajopt.trajectory import build, omega_opt

    omega_opt(build(validate(ProblemInstance(np.array([0.6, 0.4]), np.array([1.0, 0.0]), np.zeros(2)))), np.float64(9))


def _trace_not_one():
    from trajopt.conserved import dephase

    dephase(np.diag([0.5, 0.4]), None)


def _ground_population_outside():
    from trajopt.cooling import demo_coherent_erasure, free_energy_bound

    free_energy_bound(demo_coherent_erasure(), np.float64(2.0))


@pytest.mark.parametrize("call, message", [
    (_unnormalized, "eigenvalues sum to 0.8999999999999999, not 1"),
    (_alpha_outside, "alpha 9.0 outside [0.4, 0.6]"),
    (_trace_not_one, "trace is 0.9, not 1"),
    (_ground_population_outside, "ground population 2.0 outside [0, 1]"),
], ids=["validate", "check_alpha", "check_density", "free_energy_bound"])
def test_errors_print_plain_floats(call, message):
    # numpy 2 scalars print as np.float64(...) under !r
    with pytest.raises(TrajoptError) as exc:
        call()
    assert str(exc.value) == message
