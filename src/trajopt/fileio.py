"""Instance and trajectory files: canonical JSON with fixed float formatting.

Floats are emitted with 17 significant digits so files reload bit-exactly,
and field order is fixed so build -> load -> re-serialize is byte-identical.

A trajectory file stores the minimal-point vertex and the steps, not every
vertex, as the runtime trajectory does: the reader makes the step arrays
with the function the builder uses, so a reloaded trajectory equals the
built one bit for bit.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .core import PreferredOrder, ProblemInstance
from .errors import ParseError

if TYPE_CHECKING:
    from .trajectory import OptimalTrajectory

TOOL_VERSION = "0.2.0"
TIE_BREAK = "lexicographic-kl"

INSTANCE_FIELDS = (
    "eigenvalues",
    "target",
    "cost",
    "conserved",
    "initial_populations",
    "eps_pop",
    "eps_grad",
)

TRAJECTORY_FIELDS = (
    "alpha_range",
    "breakpoints",
    "steps",
    "initial_vertex",
    "target",
    "cost",
    "metadata",
)


def format_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Serialize dicts/lists/scalars to JSON with deterministic formatting.

    Dict order is insertion order; scalar lists stay on one line.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        lines = []
        for k, v in obj.items():
            # a plain finite float or int is formatted here, as _dumps_scalar
            # would; encode_basestring_ascii is what json.dumps(str) runs
            t = type(v)
            if t is float and math.isfinite(v):
                text = "%.17g" % (v + 0.0)
            elif t is int:
                text = str(v)
            else:
                text = dumps_canonical(v, indent + 2)
            lines.append(f"{pad}  {encode_basestring_ascii(str(k))}: {text}")
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        types = set(map(type, items))
        if types == {float} and all(map(math.isfinite, items)):
            # one pass for a float row; v + 0.0 turns -0.0 into 0.0, as format_float does
            return "[" + ", ".join(["%.17g" % (v + 0.0) for v in items]) + "]"
        if types == {int}:
            return "[" + ", ".join(map(str, items)) + "]"
        if types == {list}:
            cells = [v for row in items for v in row]
            if set(map(type, cells)) == {float} and all(map(math.isfinite, cells)):
                # rows of plain finite floats, each written as the float-row branch writes it
                rows = [pad + "  [" + ", ".join(["%.17g" % (v + 0.0) for v in row]) + "]" for row in items]
                return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
        if types == {dict}:
            inner = _flat_dict_rows(items, pad + "  ")
            if inner is not None:
                return "[\n" + inner + "\n" + pad + "]"
        if not any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
            return "[" + ", ".join(map(_dumps_scalar, items)) + "]"
        inner = ",\n".join(f"{pad}  {dumps_canonical(v, indent + 2)}" for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    return _dumps_scalar(obj)


def _flat_dict_rows(items, pad: str):
    """Dicts of plain finite floats and ints under str keys, each as the dict
    branch writes it at `pad`, joined by ",\\n"; None if a dict is empty or
    holds any other key or value.

    Each key sequence's fixed text is split once around its values, so a row
    is one join of that text with the row's formatted values. A join
    allocates the row's exact size; a %-format over a template can leave
    each row in a larger block, which raised the peak RSS of a build.
    """
    frames = {}
    rows = []
    for row in items:
        keys = tuple(row)
        parts = frames.get(keys)
        if parts is None:
            if set(map(type, keys)) != {str}:
                return None
            heads = [f",\n{pad}  {encode_basestring_ascii(k)}: " for k in keys]
            heads[0] = pad + "{" + heads[0][1:]
            parts = frames[keys] = [None] * (2 * len(keys) + 1)
            parts[0::2] = heads + ["\n" + pad + "}"]
        texts = []
        for v in row.values():
            t = type(v)
            if t is float and math.isfinite(v):
                texts.append("%.17g" % (v + 0.0))
            elif t is int:
                texts.append(str(v))
            else:
                return None
        parts[1::2] = texts
        rows.append("".join(parts))
    return ",\n".join(rows)


def _dumps_scalar(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _float(raw, field: str) -> float:
    """A JSON number as a float.

    bool is an int subclass, but true and false are not numbers; an
    integer beyond float range (JSON integers are unbounded) is refused
    rather than left to overflow.
    """
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ParseError(f"{field}: expected a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ParseError(f"{field}: a {len(str(abs(raw)))}-digit integer is too large for a float") from None


def _number_list(raw, field: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{field}: expected a non-empty number array")
    return np.array([_float(v, f"{field}[{i}]") for i, v in enumerate(raw)])


def _number(raw, field: str, default: float) -> float:
    return default if raw is None else _float(raw, field)


def instance_to_dict(inst: ProblemInstance) -> dict:
    out = {
        "eigenvalues": list(map(float, inst.eigenvalues)),
        "target": list(map(float, inst.target)),
        "cost": list(map(float, inst.cost)),
    }
    if inst.conserved is not None:
        out["conserved"] = list(map(float, inst.conserved))
    if inst.initial_populations is not None:
        out["initial_populations"] = list(map(float, inst.initial_populations))
    out["eps_pop"] = float(inst.eps_pop)
    out["eps_grad"] = float(inst.eps_grad)
    return out


def instance_from_dict(doc: dict) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise ParseError("instance file must contain a JSON object")
    unknown = set(doc) - set(INSTANCE_FIELDS)
    if unknown:
        raise ParseError(f"unknown instance fields: {sorted(unknown)}")
    for field in ("eigenvalues", "target", "cost"):
        if field not in doc:
            raise ParseError(f"{field}: required field missing")
    return ProblemInstance(
        eigenvalues=_number_list(doc["eigenvalues"], "eigenvalues"),
        target=_number_list(doc["target"], "target"),
        cost=_number_list(doc["cost"], "cost"),
        conserved=(
            _number_list(doc["conserved"], "conserved")
            if doc.get("conserved") is not None
            else None
        ),
        initial_populations=(
            _number_list(doc["initial_populations"], "initial_populations")
            if doc.get("initial_populations") is not None
            else None
        ),
        eps_pop=_number(doc.get("eps_pop"), "eps_pop", 1e-12),
        eps_grad=_number(doc.get("eps_grad"), "eps_grad", 1e-12),
    )


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc.msg} at line {exc.lineno})")
    except ValueError as exc:  # an integer beyond Python's digit limit for int()
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON (arrays or objects nested too deeply)") from None


def load_instance(path: str) -> ProblemInstance:
    return instance_from_dict(load_json(path))


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def trajectory_to_dict(traj: OptimalTrajectory) -> dict:
    meta = {
        "tool_version": TOOL_VERSION,
        "tie_break": TIE_BREAK,
        "eps_pop": float(traj.eps_pop),
        "eps_grad": float(traj.eps_grad),
        "basis": "preferred",
        "order": traj.order.perm.tolist(),
    }
    if traj.block_of_position is not None:
        meta["block_of_position"] = traj.block_of_position.tolist()
    alphas = traj.alphas.tolist()
    return {
        "alpha_range": [alphas[0], alphas[-1]],
        "breakpoints": traj.breakpoints.tolist(),
        "steps": [
            {"k": k, "l": l, "gradient": grad, "alpha_start": start, "alpha_end": end}
            for k, l, grad, start, end in zip(
                traj.ks.tolist(), traj.ls.tolist(), traj.gradients.tolist(), alphas, alphas[1:]
            )
        ],
        "initial_vertex": traj.initial_vertex.tolist(),
        "target": traj.target_pref.tolist(),
        "cost": traj.cost_pref.tolist(),
        "metadata": meta,
    }


def _index(raw, field: str, d: int) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"{field}: expected an integer index, got {raw!r}")
    if not 0 <= raw < d:
        raise ParseError(f"{field}: index {raw} outside [0, {d})")
    return raw


def _check_number(raw, field: str) -> None:
    value = raw if type(raw) is float else _float(raw, field)  # a file holds mostly floats
    if not math.isfinite(value):
        raise ParseError(f"{field}: expected a finite number, got {raw!r}")


def _check_length(raw, field: str, d: int) -> None:
    if not isinstance(raw, list) or len(raw) != d:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ParseError(f"{field}: expected {d} entries, one per position of metadata.order, got {got}")


def trajectory_from_dict(doc: dict) -> dict:
    """Validate a trajectory document; returns it unchanged.

    Every index the reader uses is checked: `metadata.order` is a
    permutation of 0..d-1, each step's k and l are distinct positions in
    [0, d), and `initial_vertex`, `target`, `cost` and `block_of_position`
    hold one entry per position. Every number is finite (Python's json
    reads NaN and Infinity). Step i runs exactly from the alpha of
    breakpoint i to that of breakpoint i + 1. A version 0.1.0 file, which
    stores every vertex and no `initial_vertex`, is rejected.
    """
    if not isinstance(doc, dict):
        raise ParseError("trajectory file must contain a JSON object")
    for field in TRAJECTORY_FIELDS:
        if field not in doc:
            hint = " (a version 0.1.0 file; rebuild it)" if "vertices" in doc else ""
            raise ParseError(f"{field}: required field missing{hint}")
    meta = doc["metadata"]
    if not isinstance(meta, dict):
        raise ParseError("metadata: expected an object")
    for field in ("order", "eps_pop", "eps_grad"):
        if field not in meta:
            raise ParseError(f"metadata.{field}: required field missing")
    _check_number(meta["eps_pop"], "metadata.eps_pop")
    _check_number(meta["eps_grad"], "metadata.eps_grad")
    order = meta["order"]
    if not isinstance(order, list) or not order:
        raise ParseError("metadata.order: expected a non-empty index array")
    d = len(order)
    seen = [False] * d
    for i, raw in enumerate(order):
        j = _index(raw, f"metadata.order[{i}]", d)
        if seen[j]:
            raise ParseError(f"metadata.order[{i}]: index {j} repeats, so order is not a permutation")
        seen[j] = True
    for field in ("initial_vertex", "target", "cost"):
        _check_length(doc[field], field, d)
        for i, raw in enumerate(doc[field]):
            _check_number(raw, f"{field}[{i}]")
    blocks = meta.get("block_of_position")
    if blocks is not None:
        _check_length(blocks, "metadata.block_of_position", d)
        for i, raw in enumerate(blocks):
            _index(raw, f"metadata.block_of_position[{i}]", d)
    steps = doc["steps"]
    if not isinstance(steps, list):
        raise ParseError("steps: expected an array")
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise ParseError(f"steps[{i}]: expected an object")
        k = _index(step.get("k"), f"steps[{i}].k", d)
        if _index(step.get("l"), f"steps[{i}].l", d) == k:
            raise ParseError(f"steps[{i}]: k and l are both {k}")
        for field in ("gradient", "alpha_start", "alpha_end"):
            _check_number(step.get(field), f"steps[{i}].{field}")
    rows = doc["breakpoints"]
    if not isinstance(rows, list) or not all(isinstance(row, list) and len(row) == 2 for row in rows):
        raise ParseError("breakpoints: expected [alpha, omega] number pairs")
    if len(rows) != len(steps) + 1:
        raise ParseError(f"breakpoints: expected {len(steps) + 1} [alpha, omega] pairs, one more than the steps")
    for i, row in enumerate(rows):
        for j, raw in enumerate(row):  # numpy would take "1.5" and true as numbers
            _check_number(raw, f"breakpoints[{i}][{j}]")
    breakpoints = np.asarray(rows, dtype=float)
    if np.any(np.diff(breakpoints[:, 0]) <= 0):
        raise ParseError("breakpoints: alpha values must be strictly increasing")
    alphas = breakpoints[:, 0].tolist()
    for i, step in enumerate(steps):
        for field, row in (("alpha_start", i), ("alpha_end", i + 1)):
            if step[field] != alphas[row]:
                raise ParseError(f"steps[{i}].{field}: {step[field]!r} is not the alpha of breakpoints[{row}], {alphas[row]!r}")
    return doc


def trajectory_to_runtime(doc: dict) -> OptimalTrajectory:
    """Rebuild the runtime trajectory of a trajectory document.

    The step arrays are made by the function the build uses, and
    delta_alphas is replayed from the steps on first read, for a build and
    a reload alike, so the result equals the built trajectory in every
    field. `metadata.block_of_position`, written when the instance has a
    conserved vector, reloads as the built array. Files write zeros
    unsigned, so a -0.0 of the build reloads as 0.0.
    """
    from .trajectory import _trajectory

    doc = trajectory_from_dict(doc)
    meta = doc["metadata"]
    perm = np.asarray(meta["order"], dtype=int)
    inverse = np.argsort(perm)
    perm.setflags(write=False)
    inverse.setflags(write=False)
    steps = doc["steps"]
    breakpoints = doc["breakpoints"]
    blocks = meta.get("block_of_position")
    return _trajectory(
        PreferredOrder(perm=perm, inverse=inverse),
        _number_list(doc["target"], "target"),
        _number_list(doc["cost"], "cost"),
        _number_list(doc["initial_vertex"], "initial_vertex"),
        [s["k"] for s in steps],
        [s["l"] for s in steps],
        [float(s["gradient"]) for s in steps],
        [float(alpha) for alpha, _ in breakpoints],
        [float(omega) for _, omega in breakpoints],
        float(meta["eps_pop"]),
        float(meta["eps_grad"]),
        None if blocks is None else np.asarray(blocks, dtype=int),
    )


def lifted_to_dict(lifted, alpha: float) -> dict:
    return {
        "alpha": float(alpha),
        "unitary": lifted.unitary.tolist(),
        "doubly_stochastic": lifted.doubly_stochastic.tolist(),
        "density_diagonal": lifted.density_diagonal.tolist(),
    }
