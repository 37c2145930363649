import itertools
import math

import numpy as np
import pytest

from trajopt.conserved import build_generalized, swap_candidates_generalized
from trajopt.cooling import (
    SystemSpec,
    coherent_instance,
    cooling_steps,
    demo_coherent_erasure,
    demo_incoherent_cooling,
    free_energy_bound,
    incoherent_instance,
    qubit_gradient,
    subspace_passive,
    thermal_populations,
)
from trajopt.errors import AlphaOutOfRange, DimensionOverflow, WrongInstanceKind
from trajopt.trajectory import build, omega_opt

MACHINE = (0.0, 0.1, 0.4, 1.1)
ES = 0.3


def qubit_machine_instance(gaps, es=ES, beta=1.0):
    energies = np.concatenate([[0.0], np.cumsum(gaps)])
    return coherent_instance(
        SystemSpec(energies=(0.0, es), initial_populations=(0.5, 0.5)),
        SystemSpec(energies=energies),
        beta=beta,
    )


def test_thermal_populations():
    assert np.allclose(thermal_populations([1.0, 2.0, 3.0], 0.0), [1 / 3, 1 / 3, 1 / 3])
    assert np.array_equal(thermal_populations([0.0, 1.0], math.inf), [1.0, 0.0])
    tau = thermal_populations(MACHINE, 1.0)
    ref = np.exp(-np.asarray(MACHINE))
    assert np.allclose(tau, ref / ref.sum(), atol=1e-15)
    # monotone non-increasing in energy for beta > 0
    assert np.all(np.diff(tau) < 0)


def test_coherent_instance_working_example():
    cool = demo_coherent_erasure()
    inst = cool.problem
    assert inst.dim == 8
    tau = thermal_populations(MACHINE, 1.0)
    assert np.allclose(inst.eigenvalues, np.kron([0.5, 0.5], tau))  # q_m = tau_m / 2
    assert cool.alpha_in == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(cool.ground_indices, [0, 1, 2, 3])
    # alpha_max packs the two largest machine pairs into the ground row
    traj = build(inst)
    assert traj.alpha_max == pytest.approx(tau[0] + tau[1], abs=1e-12)
    assert traj.alpha_min == pytest.approx(tau[2] + tau[3], abs=1e-12)


def test_dimension_cap():
    with pytest.raises(DimensionOverflow):
        coherent_instance(
            SystemSpec(energies=np.arange(100.0)),
            SystemSpec(energies=np.arange(100.0)),
            beta=1.0,
            max_dim=1000,
        )


def test_qubit_gradients():
    cool = demo_coherent_erasure()
    assert qubit_gradient(cool, 1, 0) == pytest.approx(0.1 - ES, abs=1e-15)
    assert qubit_gradient(cool, 2, 1) == pytest.approx(0.0, abs=1e-15)
    assert qubit_gradient(cool, 3, 0) == pytest.approx(1.1 - ES, abs=1e-15)


def test_trajectory_gradients_have_machine_gap_form():
    cool = demo_coherent_erasure()
    traj = build(cool.problem)
    possible = {
        round(qubit_gradient(cool, i, j), 12)
        for i in range(4)
        for j in range(4)
        if i != j
    }
    for s in traj.steps:
        assert round(s.gradient, 12) in possible


def test_system_gap_shift_keeps_swap_sequence():
    # the system gap enters every gradient as the same constant
    a = qubit_machine_instance((0.1, 0.3, 0.7), es=0.3)
    b = qubit_machine_instance((0.1, 0.3, 0.7), es=0.9)
    ta, tb = build(a.problem), build(b.problem)
    assert [(s.k, s.l) for s in ta.steps] == [(s.k, s.l) for s in tb.steps]
    for sa, sb in zip(ta.steps, tb.steps):
        assert sa.gradient - sb.gradient == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("gaps", list(itertools.permutations((0.1, 0.3, 0.7))))
def test_cooling_swap_order_follows_gaps(gaps):
    cool = qubit_machine_instance(gaps)
    traj = build(cool.problem)
    steps = cooling_steps(traj, cool.alpha_in)
    assert len(steps) == 4
    pairs = [traj.step_input_pair(s) for s in steps]
    by_gap = np.argsort(gaps, kind="stable")  # ascending machine gaps
    for rank, g in enumerate(by_gap):
        i = g + 1  # gap g is between machine levels g and g+1
        assert set(pairs[rank]) == {i, 4 + i - 1}  # |0,i> <-> |1,i-1>
    assert set(pairs[3]) == {3, 4}  # final swap |03> <-> |10>


def test_every_trajectory_vertex_subspace_passive():
    for gaps in itertools.permutations((0.1, 0.3, 0.7)):
        cool = qubit_machine_instance(gaps)
        traj = build(cool.problem)
        for i in range(len(traj.steps) + 1):
            assert subspace_passive(traj.vertex_input(i), cool)
    # constructed violation: swap p00 and p03
    cool = demo_coherent_erasure()
    p = np.array(cool.problem.initial_populations)
    p[[0, 3]] = p[[3, 0]]
    assert not subspace_passive(p, cool)


def test_subspace_passive_rejects_wrong_kind():
    inc = demo_incoherent_cooling()
    with pytest.raises(WrongInstanceKind):
        subspace_passive(inc.problem.initial_populations, inc)
    qutrit = coherent_instance(
        SystemSpec(energies=(0.0, 1.0, 2.0)), SystemSpec(energies=(0.0, 1.0)), beta=1.0
    )
    with pytest.raises(WrongInstanceKind):
        qubit_gradient(qutrit, 0, 1)


def test_free_energy_bound():
    cool = demo_coherent_erasure()
    assert free_energy_bound(cool, cool.alpha_in) == 0.0
    assert free_energy_bound(cool, 1.0) == pytest.approx(math.log(2) - 0.15, abs=1e-12)
    for alpha in (1.5, float("nan")):
        with pytest.raises(AlphaOutOfRange):
            free_energy_bound(cool, alpha)
    traj = build(cool.problem)
    omega_in = omega_opt(traj, cool.alpha_in)
    for alpha in np.linspace(traj.alpha_min, traj.alpha_max, 100):
        work = omega_opt(traj, float(alpha)) - omega_in
        assert work >= free_energy_bound(cool, float(alpha)) - 1e-9


def test_incoherent_demo_structure():
    inc = demo_incoherent_cooling()
    assert inc.generalized.structure.sizes == (1, 3, 4, 3, 1)
    cands = swap_candidates_generalized(inc.generalized, inc.problem.initial_populations)
    assert len(cands) == 1
    i, j, grad = cands[0]
    assert {i, j} == {4, 7}  # |020> <-> |101>
    assert grad == pytest.approx(-1.0, abs=1e-12)


def test_incoherent_incommensurate_spacings_freeze_everything():
    inst = incoherent_instance(
        SystemSpec(energies=(0.0, 1.0)),
        SystemSpec(energies=(0.0, math.sqrt(2), 2 * math.sqrt(2))),
        SystemSpec(energies=(0.0, math.pi)),
        beta_machine=1.0,
        beta_bath=0.0,
    )
    assert inst.generalized.structure.sizes == tuple([1] * 12)
    traj = build_generalized(inst.generalized)
    assert len(traj.steps) == 0
    # ladder system+machine with a mismatched bath: blocks survive but the
    # bath cannot trade energy, so populations inside each block are equal
    # and nothing moves either
    inst2 = incoherent_instance(
        SystemSpec(energies=(0.0, 1.0)),
        SystemSpec(energies=(0.0, 1.0, 2.0)),
        SystemSpec(energies=(0.0, math.pi)),
        beta_machine=1.0,
        beta_bath=0.0,
    )
    traj2 = build_generalized(inst2.generalized)
    assert len(traj2.steps) == 0
