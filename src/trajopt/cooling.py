"""Thermodynamic front-end: cooling instances, thermal states, free-energy bound.

Coherent cooling: system and machine interact through an arbitrary joint
unitary; the target is the system ground population, the cost the joint
average energy. Incoherent cooling adds a heat bath and restricts to
unitaries conserving the total (non-interacting) energy, so the conserved
machinery applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, target_value, validate
from .conserved import GeneralizedInstance, from_populations
from .errors import AlphaOutOfRange, DimensionOverflow, WrongInstanceKind

BUILD_DIM_CAP = 4096


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Local Hamiltonian eigenvalues plus optional initial populations.

    When populations are omitted the subsystem starts thermal at the
    temperature the assembling call supplies.
    """

    energies: np.ndarray
    initial_populations: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))
        if self.initial_populations is not None:
            object.__setattr__(
                self,
                "initial_populations",
                np.asarray(self.initial_populations, dtype=float),
            )

    @property
    def dim(self) -> int:
        return len(self.energies)

    def populations(self, beta: float) -> np.ndarray:
        if self.initial_populations is not None:
            return self.initial_populations
        return thermal_populations(self.energies, beta)


@dataclass(frozen=True, eq=False)
class CoolingInstance:
    """Assembled cooling problem plus bookkeeping.

    `problem` is the flat instance; `generalized` is set for the incoherent
    (energy-conserving) scenario. Flat index order is system-major:
    (s, m) -> s*dM + m, and (s, m, b) -> s*dM*dB + m*dB + b.
    """

    problem: ProblemInstance
    system: SystemSpec
    machine: SystemSpec
    beta: float
    bath: SystemSpec | None = None
    beta_bath: float | None = None
    generalized: GeneralizedInstance | None = None

    @property
    def kind(self) -> str:
        return "incoherent" if self.generalized is not None else "coherent"

    @property
    def alpha_in(self) -> float:
        return target_value(self.problem.initial_populations, self.problem.target)

    @property
    def ground_indices(self) -> np.ndarray:
        return np.nonzero(self.problem.target == 1.0)[0]


def thermal_populations(energies, beta: float) -> np.ndarray:
    """Gibbs weights e^{-beta E} / Z; beta=0 is uniform, beta=inf ground-only."""
    energies = np.asarray(energies, dtype=float)
    if beta == 0.0:
        return np.full(len(energies), 1.0 / len(energies))
    if math.isinf(beta) and beta > 0:
        ground = np.abs(energies - energies.min()) <= 1e-12
        return ground / ground.sum()
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def _ground_projector(energies: np.ndarray) -> np.ndarray:
    return (np.abs(energies - energies.min()) <= 1e-12).astype(float)


def coherent_instance(
    system: SystemSpec, machine: SystemSpec, beta: float, max_dim: int = BUILD_DIM_CAP
) -> CoolingInstance:
    """System plus machine under arbitrary joint unitaries.

    The machine starts thermal at beta; the system uses its stated
    populations (thermal at beta when omitted). Target is the system
    ground-subspace population; cost is the joint energy.
    """
    d = system.dim * machine.dim
    if d > max_dim:
        raise DimensionOverflow(f"joint dim {d} exceeds cap {max_dim}")
    p_s = system.populations(beta)
    tau_m = thermal_populations(machine.energies, beta)
    lam = np.kron(p_s, tau_m)
    target = np.kron(_ground_projector(system.energies), np.ones(machine.dim))
    cost = (system.energies[:, None] + machine.energies[None, :]).ravel()
    problem = validate(
        ProblemInstance(
            eigenvalues=lam,
            target=target,
            cost=cost,
            initial_populations=lam,
        )
    )
    return CoolingInstance(problem=problem, system=system, machine=machine, beta=beta)


def incoherent_instance(
    system: SystemSpec,
    machine: SystemSpec,
    bath: SystemSpec,
    beta_machine: float,
    beta_bath: float,
    max_dim: int = BUILD_DIM_CAP,
) -> CoolingInstance:
    """System, machine and bath under total-energy-conserving unitaries.

    Machine thermal at beta_machine, bath at beta_bath, system defaults to
    thermal at beta_machine. Cost is the bath energy; the conserved vector
    is the total energy, so swaps act inside degenerate energy shells.
    """
    d = system.dim * machine.dim * bath.dim
    if d > max_dim:
        raise DimensionOverflow(f"joint dim {d} exceeds cap {max_dim}")
    p_s = system.populations(beta_machine)
    tau_m = thermal_populations(machine.energies, beta_machine)
    tau_b = thermal_populations(bath.energies, beta_bath)
    lam = np.kron(np.kron(p_s, tau_m), tau_b)
    ones_m, ones_b = np.ones(machine.dim), np.ones(bath.dim)
    target = np.kron(np.kron(_ground_projector(system.energies), ones_m), ones_b)
    cost = np.kron(np.ones(system.dim * machine.dim), bath.energies)
    total = (
        system.energies[:, None, None]
        + machine.energies[None, :, None]
        + bath.energies[None, None, :]
    ).ravel()
    problem = validate(
        ProblemInstance(
            eigenvalues=lam,
            target=target,
            cost=cost,
            conserved=total,
            initial_populations=lam,
        )
    )
    ginst = from_populations(problem)
    return CoolingInstance(
        problem=ginst.base,
        system=system,
        machine=machine,
        bath=bath,
        beta=beta_machine,
        beta_bath=beta_bath,
        generalized=ginst,
    )


def _require_coherent_qubit(cool: CoolingInstance) -> None:
    if cool.kind != "coherent":
        raise WrongInstanceKind("operation needs a coherent instance")
    if cool.system.dim != 2:
        raise WrongInstanceKind("operation needs a qubit system")


def free_energy_bound(cool: CoolingInstance, alpha: float) -> float:
    """Free-energy change of a qubit system between ground populations.

    Delta F = [E(alpha) - S(alpha)/beta] - [E(alpha_in) - S(alpha_in)/beta]
    with entropy in nats; a lower bound on the optimal work cost.
    """
    _require_coherent_qubit(cool)
    if cool.beta <= 0:
        raise WrongInstanceKind("free-energy bound needs beta > 0")
    if not -1e-9 <= alpha <= 1.0 + 1e-9:
        raise AlphaOutOfRange(f"ground population {alpha!r} outside [0, 1]")
    alpha = min(max(alpha, 0.0), 1.0)
    e = np.sort(cool.system.energies)

    def f(a: float) -> float:
        energy = a * e[0] + (1.0 - a) * e[1]
        ent = 0.0
        for w in (a, 1.0 - a):
            if w > 0.0:
                ent -= w * math.log(w)
        return energy - ent / cool.beta

    return f(alpha) - f(cool.alpha_in)


def subspace_passive(p, cool: CoolingInstance, eps: float = 1e-12) -> bool:
    """Within each system level, populations non-increasing with machine energy."""
    _require_coherent_qubit(cool)
    p = np.asarray(p, dtype=float)
    d_m = cool.machine.dim
    by_energy = np.argsort(cool.machine.energies, kind="stable")
    e_sorted = cool.machine.energies[by_energy]
    for s in range(2):
        row = p[s * d_m : (s + 1) * d_m][by_energy]
        for i in range(d_m - 1):
            for j in range(i + 1, d_m):
                if e_sorted[j] - e_sorted[i] > 1e-12 and row[j] > row[i] + eps:
                    return False
    return True


def qubit_gradient(cool: CoolingInstance, i: int, j: int) -> float:
    """Cost-per-target gradient of the swap |0 i> <-> |1 j| for a qubit system."""
    _require_coherent_qubit(cool)
    e = np.sort(cool.system.energies)
    gap = e[1] - e[0]
    return float(cool.machine.energies[i] - cool.machine.energies[j] - gap)


def cooling_steps(traj, alpha_in: float):
    """Steps of a built trajectory at or above the initial target value."""
    starts = traj.alphas[:-1]
    return tuple(traj.steps[i] for i in np.flatnonzero(starts >= alpha_in - 1e-9).tolist())


def demo_coherent_erasure() -> CoolingInstance:
    """Maximally mixed qubit (gap 0.3) with a four-level machine at beta = 1."""
    system = SystemSpec(energies=(0.0, 0.3), initial_populations=(0.5, 0.5))
    machine = SystemSpec(energies=(0.0, 0.1, 0.4, 1.1))
    return coherent_instance(system, machine, beta=1.0)


def demo_incoherent_cooling(delta: float = 1.0) -> CoolingInstance:
    """Qubit-qutrit-qubit ladder, spacing delta, hot bath at infinite temperature.

    System starts thermal at the machine temperature, so exactly one
    energy-preserving swap cools it.
    """
    system = SystemSpec(energies=(0.0, delta))
    machine = SystemSpec(energies=(0.0, delta, 2.0 * delta))
    bath = SystemSpec(energies=(0.0, delta))
    return incoherent_instance(system, machine, bath, beta_machine=1.0, beta_bath=0.0)
