"""Optimal unitary trajectories under commuting target and cost observables.

Given a state spectrum and the diagonals of two commuting observables, the
package constructs the trajectory of states minimizing the cost at every
attainable target value, lifts it to doubly-stochastic matrices and
two-level unitaries, supports a third conserved observable, and verifies
everything against brute-force polytope oracles.

The package namespace is lazy: each public name is imported from its
module on first access, so importing one module (the command line, say)
loads only the modules that one needs.
"""

import importlib

# Each public name, by the module that defines it. A name is imported on
# first access, so `import trajopt.cli` loads only what a subcommand runs.
_EXPORTS = {
    "core": (
        "COEFF_EPS", "PreferredOrder", "ProblemInstance", "cost_value", "majorizes",
        "preferred_order", "target_value", "validate",
    ),
    "polytope": ("AvSwap", "VertexSet", "av_swaps", "enumerate_vertices", "is_edge"),
    "trajectory": (
        "MinimumUniqueness", "OptimalTrajectory", "SwapStep", "build", "entry_point",
        "maximal_vertex", "minimal_vertex", "next_step", "omega_opt", "state_at",
        "swap_candidates", "uniqueness_at_minimum",
    ),
    "lift": (
        "LiftedPoint", "TTransform", "TwoLevelRotation", "lift_point", "rotation_matrix",
        "t_transform_matrix", "unistochastic_of",
    ),
    "conserved": (
        "BlockStructure", "block_decompose", "block_spectra", "build_generalized",
        "coherence_mass", "dephase", "from_density_matrix", "from_populations",
        "generalized_vertex_count",
    ),
    "cooling": (
        "CoolingInstance", "SystemSpec", "coherent_instance", "cooling_steps",
        "demo_coherent_erasure", "demo_incoherent_cooling", "free_energy_bound",
        "incoherent_instance", "qubit_gradient", "subspace_passive", "thermal_populations",
    ),
    "oracle": (
        "AuditReport", "InducedPolygon", "envelope_min_cost", "induced_polygon",
        "monte_carlo_audit",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(
    ("cli", "conserved", "cooling", "core", "errors", "fileio", "lift", "oracle", "polytope",
     "simplex", "trajectory")
)


def __getattr__(name: str):
    """Resolve a public name or a submodule on access (PEP 562).

    The result is not stored in this namespace, so a name patched on its
    module (by a test or a tracer) is what `trajopt.<name>` returns.
    """
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF, key=str.lower)
