"""Instance and trajectory files: canonical JSON with fixed float formatting.

Floats are emitted with 17 significant digits so files reload bit-exactly,
and field order is fixed so build -> load -> re-serialize is byte-identical.

One generator (`_pieces`) makes the canonical text as pieces, none longer
than one row: a dict entry, a line of scalars (a float row of a list or a
2-D array, an int list), or one flat dict of a list. `dumps_canonical`
joins them; `write_canonical` writes them to an open stream or to a path (through a
new file renamed over the output where that keeps the output's links,
owner and mode; in place otherwise), so writing a document holds about
one row beyond the document itself; `same_canonical` compares two
documents' texts a piece at a time.

A trajectory file stores the minimal-point vertex and the steps, not every
vertex, as the runtime trajectory does: the reader makes the step arrays
with the function the builder uses, so a reloaded trajectory equals the
built one bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import stat
from itertools import islice
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

    Dict order is insertion order; scalar lists stay on one line. The text
    is the join of `_pieces`, the pieces `write_canonical` writes.
    """
    return "".join(_pieces(obj, indent))


def write_canonical(target, obj) -> None:
    """Write the canonical text of obj and a final newline, a piece at a time.

    target is an open text stream or a path. A new path, or a regular file
    with one link that this process owns and may write, is written to a new
    file in its directory, which takes the old file's mode and group and
    replaces the output only once the whole document is written: a document that raises
    part-way (a non-finite value) leaves the old output as it was and no new
    file behind. Any other path is written in place, as open(path, "w")
    writes it, errors included: a symlink (/dev/stdout, /dev/fd/N), a device,
    a pipe, a file with other links or owners, a file this process may not
    write, or an output whose directory takes no new file.
    """
    if hasattr(target, "write"):
        target.writelines(_pieces(obj, 0))
        target.write("\n")
        return
    path = os.fspath(target)
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    fd = None
    if st is None or (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
        and os.access(path, os.W_OK)
    ):
        head, name = os.path.split(path)
        tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
        try:
            # O_EXCL: a fresh file, never one a link points to; 0o666 less the umask, as open(path, "w") makes
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            pass
    if fd is None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_canonical(fh, obj)
        return
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            if st is not None:  # the old file's group (a setgid directory may give another) and mode
                os.fchown(fh.fileno(), -1, st.st_gid)
                os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            write_canonical(fh, obj)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def same_canonical(a, b) -> bool:
    """Whether a and b have the same canonical text, compared a piece at a time.

    Neither text is built whole; the comparison stops at the first piece
    that differs. Pieces may split the two texts at different places.
    """
    left, right = _pieces(a, 0), _pieces(b, 0)
    x = y = ""
    while True:
        if not x:
            x = next(left, None)
        if not y:
            y = next(right, None)
        if x is None or y is None:
            return x is None and y is None
        n = min(len(x), len(y))
        if x[:n] != y[:n]:
            return False
        x, y = x[n:], y[n:]


_SEQUENCES = (list, tuple, np.ndarray)
_CONTAINERS = (dict, list, tuple, np.ndarray)


def _pieces(obj, indent: int):
    """The canonical text of obj as a sequence of strings, none longer than one row.

    A piece is a dict entry, a line of scalars (a float row, an int list),
    one flat dict of a list, or the brackets around them. A list of
    scalars is one line; a list holding any dict, list, tuple or array
    puts each item on its own line. Each row's fast path (plain finite
    floats, flat dicts) writes the text the general path would, so a row
    that fails it goes the general way and the text does not change.
    """
    if isinstance(obj, dict):
        yield from _dict_pieces(obj, indent)
    elif isinstance(obj, _SEQUENCES):
        items = _items(obj)
        line = _line(items)
        if line is None:
            yield from _row_pieces(items, indent)
        else:
            yield line
    else:
        yield _dumps_scalar(obj)


def _items(seq):
    """The items of a list, tuple or array; a numeric 1-D array's as Python scalars.

    Lists, tuples and arrays of more dimensions are not copied: the items
    of a 2-D array are its rows.
    """
    if isinstance(seq, np.ndarray) and seq.ndim == 1 and seq.dtype.kind in "fiu":
        return seq.tolist()
    return seq


def _line(items):
    """The one-line text of a sequence of scalars; None if an item is a container."""
    types = set(map(type, items))
    if types == {float} and all(map(math.isfinite, items)):
        # v + 0.0 turns -0.0 into 0.0, as format_float does
        return "[" + ", ".join(["%.17g" % (v + 0.0) for v in items]) + "]"
    if types == {int}:
        return "[" + ", ".join(map(str, items)) + "]"
    if any(issubclass(t, _CONTAINERS) for t in types):
        return None
    return "[" + ", ".join(map(_dumps_scalar, items)) + "]"


def _dict_pieces(obj: dict, indent: int):
    """A dict's entries, one piece each when the value fits on its line, and its braces."""
    if not obj:
        yield "{}"
        return
    pad = " " * indent
    lead = "{\n"
    frames = {}
    for k, v in obj.items():
        # encode_basestring_ascii is what json.dumps(str) runs
        head = f"{lead}{pad}  {encode_basestring_ascii(str(k))}: "
        text = _one_piece(v, pad + "  ", frames)
        if text is None:
            yield head
            yield from _pieces(v, indent + 2)
        else:
            yield head + text
        lead = ",\n"
    yield "\n" + pad + "}"


def _row_pieces(items, indent: int):
    """A sequence with a container in it: one item per line, each one piece when it fits."""
    pad = " " * indent
    lead, sep = "[\n" + pad + "  ", ",\n" + pad + "  "
    frames = {}
    for v in items:
        text = _one_piece(v, pad + "  ", frames)
        if text is None:
            yield lead
            yield from _pieces(v, indent + 2)
        else:
            yield lead + text
        lead = sep
    yield "\n" + pad + "]"


def _one_piece(v, pad: str, frames: dict):
    """The text of v at `pad` when it is one piece (a scalar, a line of
    scalars or a flat dict); None when v takes several lines."""
    # a plain finite float or int is formatted here, as _dumps_scalar would
    t = type(v)
    if t is float and math.isfinite(v):
        return "%.17g" % (v + 0.0)
    if t is int:
        return str(v)
    if isinstance(v, dict):
        return _flat_dict(v, frames, pad)
    if isinstance(v, _SEQUENCES):
        return _line(_items(v))
    return _dumps_scalar(v)


def _flat_dict(row: dict, frames: dict, pad: str):
    """A dict of plain finite floats and ints under str keys, as `_dict_pieces`
    writes it at `pad`; None for a dict that is empty or holds any other key
    or value, which `_dict_pieces` writes in several pieces.

    Each key sequence's fixed text is split once around its values and kept
    in frames (False for a sequence that is not all str), so a row is one
    join of that text with the row's formatted values. A join allocates the
    row's exact size; a %-format over a template can leave each row in a
    larger block, which raised the peak RSS of a build.
    """
    keys = tuple(row)
    parts = frames.get(keys)
    if parts is None:
        if not keys or set(map(type, keys)) != {str}:
            frames[keys] = False
            return None
        heads = [f",\n{pad}  {encode_basestring_ascii(k)}: " for k in keys]
        heads[0] = "{" + heads[0][1:]
        parts = frames[keys] = [None] * (2 * len(keys) + 1)
        parts[0::2] = heads + ["\n" + pad + "}"]
    elif parts is False:
        return None
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
    return "".join(parts)


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
    # one float per alpha, shared by its breakpoint and the steps it bounds;
    # the other columns are read through memoryviews, with no list copy
    alphas = traj.alphas.tolist()
    return {
        "alpha_range": [alphas[0], alphas[-1]],
        "breakpoints": [[alpha, omega] for alpha, omega in zip(alphas, memoryview(traj.omegas))],
        "steps": [
            {"k": k, "l": l, "gradient": grad, "alpha_start": start, "alpha_end": end}
            for k, l, grad, start, end in zip(
                memoryview(traj.ks), memoryview(traj.ls), memoryview(traj.gradients), alphas, islice(alphas, 1, None)
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
    """The lift document; the d x d matrices stay the float64 arrays of the
    lift, which the serializer formats one row at a time."""
    return {
        "alpha": float(alpha),
        "unitary": lifted.unitary,
        "doubly_stochastic": lifted.doubly_stochastic,
        "density_diagonal": lifted.density_diagonal.tolist(),
    }
