"""Spans around calls into trajopt's public functions, and the per-layer metrics.

A layer is one module of ``src/trajopt/``. While a ``Tracer`` is installed,
every public function listed in ``LAYERS`` is replaced, at every name under
which a ``trajopt`` module looks it up, by a wrapper that records one span:
name, layer, parent span, job id, tag, start, end and an optional ``info``
value taken from the call. Nothing under ``src/`` is edited; ``uninstall``
puts the original objects back.

A function that is already running (``dumps_canonical`` recursing into
itself) records only its outermost call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public functions wrapped per layer. Names a later version of the package
# no longer has are skipped. Per-element helpers (fileio.format_float) stay
# unwrapped: a span on each of a million floats would swamp what it measures.
LAYERS = {
    "core": ("validate", "preferred_order", "cluster_ranks", "target_value", "cost_value"),
    "cooling": (
        "coherent_instance", "incoherent_instance", "thermal_populations",
        "free_energy_bound", "subspace_passive", "qubit_gradient", "cooling_steps",
        "demo_coherent_erasure", "demo_incoherent_cooling",
    ),
    "trajectory": (
        "build", "omega_opt", "state_at", "next_step", "swap_candidates",
        "minimal_vertex", "maximal_vertex", "uniqueness_at_minimum", "entry_point",
    ),
    "conserved": (
        "from_populations", "build_generalized", "block_decompose", "block_spectra",
        "dephase", "coherence_mass", "from_density_matrix",
        "enumerate_generalized_vertices", "generalized_vertex_count",
        "swap_candidates_generalized", "maximal_point_generalized",
    ),
    "lift": (
        "lift_point", "rotation_matrix", "t_transform_matrix", "unistochastic_of",
        "minimal_permutation", "apply_chain",
    ),
    "fileio": (
        "dumps_canonical", "trajectory_to_dict", "trajectory_from_dict",
        "trajectory_to_runtime", "load_json", "load_instance", "write_text",
        "instance_to_dict", "instance_from_dict", "lifted_to_dict",
    ),
    "oracle": (
        "induced_polygon", "envelope_min_cost", "monte_carlo_audit", "convex_hull",
        "sample_doubly_stochastic",
    ),
    "polytope": (
        "majorizes", "degeneracy_classes", "vertex_count", "enumerate_vertices",
        "av_swaps", "segment_weight", "is_edge", "edge_pairs", "av_swap_pairs",
    ),
    "simplex": ("solve_lp",),
    "cli": ("main", "cmd_build", "cmd_eval", "cmd_lift", "cmd_verify", "cmd_cool"),
}


def _trajectory_info(args, kwargs, traj):
    blocks = getattr(traj, "block_of_position", None)
    return {
        "steps": len(traj.steps),
        "dim": int(traj.dim),
        "blocks": 1 if blocks is None else int(np.max(blocks)) + 1,
    }


def _lift_info(args, kwargs, lifted):
    traj, alpha = args[0], args[1]
    return {"steps_composed": int(np.searchsorted(traj.breakpoints[:, 0], alpha, "left"))}


# Counts taken from a call's arguments and result, keyed by span name.
INFO = {
    "trajectory.build": _trajectory_info,
    "conserved.build_generalized": _trajectory_info,
    "lift.lift_point": _lift_info,
    "polytope.enumerate_vertices": lambda a, k, r: {"vertices": int(r.count)},
    "polytope.edge_pairs": lambda a, k, r: {"pairs": a[0].count * (a[0].count - 1) // 2},
    "oracle.monte_carlo_audit": lambda a, k, r: {"samples": int(r.n_samples)},
    "fileio.dumps_canonical": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
}

# Span fields, in the order a span record stores them.
NAME, LAYER, PARENT, JOB, TAG, START, END, DATA = range(8)


class Tracer:
    """In-memory span recorder; one caller, so spans nest strictly."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None
        self.tag = None

    def open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, parent, self.job, self.tag, perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, data=None) -> None:
        rec = self.spans[sid]
        rec[END] = perf_counter()
        rec[DATA] = data
        self._stack.pop()

    def write(self, path) -> None:
        fields = ("name", "layer", "parent", "job", "tag", "start", "end", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **dict(zip(fields, rec))}) + "\n")


def _call_info(info, args, kwargs, result):
    if info is None or result is None:
        return None
    try:
        return info(args, kwargs, result)
    except (AttributeError, TypeError, IndexError):
        return None  # a result shape this version of the benchmark does not know


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    info = INFO.get(name)
    active = False

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nonlocal active
        if active:
            return fn(*args, **kwargs)
        active = True
        sid = tracer.open(name, layer)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            active = False
            tracer.close(sid, _call_info(info, args, kwargs, result))

    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every listed function wherever a trajopt module binds it.

    Returns the patch list that ``uninstall`` reverts.
    """
    wrappers = {}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"trajopt.{layer}")
        for fname in names:
            fn = getattr(module, fname, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, _wrap(tracer, fn, f"{layer}.{fname}", layer))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "trajopt" and not modname.startswith("trajopt."):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[attr] = hit[1]
                patched.append((namespace, attr, value))
    return patched


def uninstall(patched: list) -> None:
    for namespace, attr, value in patched:
        namespace[attr] = value


@contextmanager
def installed(tracer: Tracer):
    patched = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patched)


def self_times(spans: list) -> np.ndarray:
    """Duration of each span minus the time its direct children cover."""
    own = np.array([rec[END] - rec[START] for rec in spans], dtype=float)
    out = own.copy()
    for rec, dur in zip(spans, own):
        if rec[PARENT] is not None:
            out[rec[PARENT]] -= dur
    return out


def _outermost_total(spans: list, names: set, tag=None) -> float:
    """Summed duration of spans named in ``names`` with no such ancestor."""
    total = 0.0
    for rec in spans:
        if rec[NAME] not in names or (tag is not None and rec[TAG] != tag):
            continue
        parent = rec[PARENT]
        while parent is not None and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent is None:
            total += rec[END] - rec[START]
    return total


def _info_sum(spans: list, name: str, key: str, tag=None) -> int:
    return sum(
        rec[DATA][key]
        for rec in spans
        if rec[NAME] == name and rec[DATA] is not None and (tag is None or rec[TAG] == tag)
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of a traced run: {name: (value, unit)}."""

    def total(*names, tag=None):
        return _outermost_total(spans, set(names), tag)

    def count(name):
        return sum(1 for rec in spans if rec[NAME] == name)

    steps = _info_sum(spans, "trajectory.build", "steps")
    per_step = {
        tag: 1e6 * _ratio(total("trajectory.build", tag=tag),
                          _info_sum(spans, "trajectory.build", "steps", tag))
        for tag in ("generic", "degenerate")
    }
    built = [rec[DATA] for rec in spans
             if rec[NAME] in ("trajectory.build", "conserved.build_generalized") and rec[DATA]]
    g_steps = _info_sum(spans, "conserved.build_generalized", "steps")
    audit_samples = _info_sum(spans, "oracle.monte_carlo_audit", "samples")
    pairs = _info_sum(spans, "polytope.edge_pairs", "pairs")
    serialize = total("fileio.trajectory_to_dict", "fileio.instance_to_dict",
                      "fileio.lifted_to_dict", "fileio.dumps_canonical")
    bytes_out = _info_sum(spans, "fileio.dumps_canonical", "bytes")

    m = {
        "core.validate_s": (total("core.validate"), "s"),
        "core.preferred_order_s": (total("core.preferred_order"), "s"),
        "core.calls": (sum(1 for rec in spans if rec[LAYER] == "core"), "count"),
        "cooling.instance_s": (total("cooling.coherent_instance", "cooling.incoherent_instance"), "s"),
        "trajectory.build_s": (total("trajectory.build"), "s"),
        "trajectory.steps": (steps, "count"),
        "trajectory.build_us_per_step.generic": (per_step["generic"], "us/step"),
        "trajectory.build_us_per_step.degenerate": (per_step["degenerate"], "us/step"),
        "trajectory.omega_opt_s": (total("trajectory.omega_opt"), "s"),
        "trajectory.state_at_s": (total("trajectory.state_at"), "s"),
        "trajectory.vertices_mb": (
            max([(b["steps"] + 1) * b["dim"] * 8 / 1e6 for b in built], default=0.0), "MB"),
        "conserved.from_populations_s": (total("conserved.from_populations"), "s"),
        "conserved.build_generalized_s": (total("conserved.build_generalized"), "s"),
        "conserved.build_us_per_step": (
            1e6 * _ratio(total("conserved.build_generalized"), g_steps), "us/step"),
        "conserved.blocks": (
            max([rec[DATA]["blocks"] for rec in spans
                 if rec[NAME] == "conserved.build_generalized" and rec[DATA]], default=0), "count"),
        "lift.lift_point_s": (total("lift.lift_point"), "s"),
        "lift.steps_composed": (_info_sum(spans, "lift.lift_point", "steps_composed"), "count"),
        "fileio.serialize_s": (serialize, "s"),
        "fileio.bytes_out": (bytes_out, "B"),
        "fileio.parse_s": (total("fileio.load_json", "fileio.load_instance", "fileio.instance_from_dict",
                                 "fileio.trajectory_from_dict", "fileio.trajectory_to_runtime"), "s"),
        "fileio.us_per_kb": (1e6 * _ratio(serialize, bytes_out / 1024), "us/KB"),
        "oracle.audit_s": (total("oracle.monte_carlo_audit"), "s"),
        "oracle.audit_samples": (audit_samples, "count"),
        "oracle.audit_us_per_sample": (
            1e6 * _ratio(total("oracle.monte_carlo_audit"), audit_samples), "us/sample"),
        "oracle.polygon_s": (total("oracle.induced_polygon"), "s"),
        "oracle.envelope_s": (total("oracle.envelope_min_cost"), "s"),
        "polytope.enumerate_s": (total("polytope.enumerate_vertices"), "s"),
        "polytope.vertices": (_info_sum(spans, "polytope.enumerate_vertices", "vertices"), "count"),
        "polytope.edge_pairs_s": (total("polytope.edge_pairs"), "s"),
        "polytope.is_edge_calls": (count("polytope.is_edge"), "count"),
        "polytope.edge_cache_hit_ratio": (
            1.0 - _ratio(count("polytope.is_edge"), pairs) if pairs else 0.0, "ratio"),
        "simplex.solve_lp_s": (total("simplex.solve_lp"), "s"),
        "simplex.solve_lp_calls": (count("simplex.solve_lp"), "count"),
        "cli.cool_s": (total("cli.cmd_cool"), "s"),
        "cli.build_s": (total("cli.cmd_build"), "s"),
        "cli.eval_s": (total("cli.cmd_eval"), "s"),
        "cli.lift_s": (total("cli.cmd_lift"), "s"),
    }
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (float(sum(t for rec, t in zip(spans, own) if rec[LAYER] == layer)), "s")
    return m
