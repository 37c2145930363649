"""Instance and trajectory files: canonical JSON with fixed float formatting.

Floats are emitted with 17 significant digits so files reload bit-exactly,
and field order is fixed so build -> load -> re-serialize is byte-identical.

One generator (`_pieces`) makes the canonical text as pieces, none longer
than one row: a dict entry or a list row (each joined to the first piece
of its value), a line of scalars, or at most 512 scalars of a numeric 1-D
array, whose one line is streamed a slice at a time. `dumps_canonical`
joins them; `write_canonical` writes them to an open stream or to a path
(through a new file renamed over the output where that keeps the
output's links, owner and mode; in place otherwise), so writing a
document holds about one row beyond the document itself; `same_canonical`
compares two documents' texts a piece at a time.

A trajectory file (version 0.4.0) stores the columns of the runtime
trajectory and nothing that can be derived from them: `breakpoints`, the
two rows [alphas, omegas] with one entry per vertex; `ks` and `ls`, one
entry per step (whose gradients they give); the minimal-point vertex
`initial_vertex`, `target`, `cost` and `metadata`. The reader checks each
column whole and makes the trajectory with the function the builder
uses, so a reloaded trajectory equals the built one bit for bit.

Instance and trajectory files share one reader per kind of value:
`_number` for a scalar, `_numbers` for a column of numbers and `_indices`
for a column of indices. A number must be a finite JSON number (not
true, false, a string, NaN, an infinity or an integer beyond float range),
and a refused column names its first bad entry.
"""

from __future__ import annotations

import json
import math
import os
import stat
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .core import PreferredOrder, ProblemInstance
from .errors import NonFiniteValue, ParseError

if TYPE_CHECKING:
    from .trajectory import OptimalTrajectory

TOOL_VERSION = "0.4.0"
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
    "breakpoints",
    "ks",
    "ls",
    "initial_vertex",
    "target",
    "cost",
    "metadata",
)

# a key that only an older trajectory file holds, and that file's version
_OLD_FORMATS = (("vertices", "0.1.0"), ("steps", "0.2.0"), ("gradients", "0.3.0"))


def format_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def dumps_canonical(obj) -> str:
    """Serialize dicts/lists/scalars to JSON with deterministic formatting.

    Dict order is insertion order; scalar lists stay on one line. The text
    is the join of `_pieces`, the pieces `write_canonical` writes.
    """
    return "".join(_pieces(obj, 0))


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
# scalars of a numeric 1-D array per piece: a slice's list and text stay small
_CHUNK = 512


def _pieces(obj, indent: int):
    """The canonical text of obj as a sequence of strings, none longer than one row.

    A piece is a dict entry or a row of a list, joined to the first piece
    of its value; a line of scalars; at most _CHUNK scalars of a numeric
    1-D array, whose line is streamed a slice at a time; or the brackets
    around them. A list of scalars is one line; a list holding any dict,
    list, tuple or array puts each item on its own line.
    """
    if isinstance(obj, dict):
        yield from _dict_pieces(obj, indent)
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "fiu":
        lead = "["
        for start in range(0, len(obj), _CHUNK):
            yield lead + _scalars(obj[start : start + _CHUNK].tolist())
            lead = ", "
        yield "]" if lead == ", " else "[]"
    elif isinstance(obj, _SEQUENCES):
        text = _scalars(obj)
        if text is None:
            yield from _row_pieces(obj, indent)
        else:
            yield "[" + text + "]"
    else:
        yield _dumps_scalar(obj)


def _scalars(items):
    """The items of a sequence formatted and joined by ", "; None if an item is a container."""
    types = set(map(type, items))
    if types == {float} and all(map(math.isfinite, items)):
        # v + 0.0 turns -0.0 into 0.0, as format_float does
        return ", ".join(["%.17g" % (v + 0.0) for v in items])
    if types == {int}:
        return ", ".join(map(str, items))
    if any(issubclass(t, _CONTAINERS) for t in types):
        return None
    return ", ".join(map(_dumps_scalar, items))


def _dict_pieces(obj: dict, indent: int):
    """A dict's entries, each joined to the first piece of its value, and its braces."""
    if not obj:
        yield "{}"
        return
    pad = " " * indent
    lead = "{\n"
    for k, v in obj.items():
        pieces = _pieces(v, indent + 2)
        # encode_basestring_ascii is what json.dumps(str) runs
        yield f"{lead}{pad}  {encode_basestring_ascii(str(k))}: " + next(pieces)
        yield from pieces
        lead = ",\n"
    yield "\n" + pad + "}"


def _row_pieces(items, indent: int):
    """A sequence with a container in it: one item per line, each joined to its lead."""
    pad = " " * indent
    lead = "[\n"
    for v in items:
        pieces = _pieces(v, indent + 2)
        yield lead + pad + "  " + next(pieces)
        yield from pieces
        lead = ",\n"
    yield "\n" + pad + "]"


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


def _number(raw, field: str) -> float:
    """A finite JSON number as a float.

    bool is an int subclass, but true and false are not numbers; an
    integer beyond float range (JSON integers are unbounded) is refused
    rather than left to overflow; Python's json reads NaN and Infinity.
    """
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ParseError(f"{field}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:
        raise ParseError(f"{field}: a {len(str(abs(raw)))}-digit integer is too large for a float") from None
    if not math.isfinite(value):
        raise ParseError(f"{field}: expected a finite number, got {raw!r}")
    return value


def _column(raw, field: str, length: int | None, kind: str, types: set, dtype):
    """The whole-column test `_numbers` and `_indices` share.

    raw as an array of dtype, or None when an entry's type is not in types
    or its value overflows dtype, for the caller to name the entry. raw
    must be a list, of length entries if length is given.
    """
    if length is not None and (not isinstance(raw, list) or len(raw) != length):
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ParseError(f"{field}: expected {length} entries, one per position of metadata.order, got {got}")
    if not isinstance(raw, list):
        raise ParseError(f"{field}: expected {kind} array")
    if set(map(type, raw)) <= types:  # numpy would read "1.5" and true as numbers
        try:
            return np.array(raw, dtype=dtype)
        except OverflowError:  # an integer beyond the range of dtype
            pass
    return None


def _numbers(raw, field: str, length: int | None = None) -> np.ndarray:
    """A JSON array of finite numbers as a float64 array.

    The column is tested whole; its entries are walked only to name the
    first bad one.
    """
    out = _column(raw, field, length, "a number", {float, int}, float)
    if out is None or not np.isfinite(out).all():
        for i, v in enumerate(raw):
            _number(v, f"{field}[{i}]")
    return out


def _indices(raw, field: str, d: int, length: int | None = None) -> np.ndarray:
    """A JSON array of indices in [0, d) as an int64 array, tested whole as `_numbers` is."""
    out = _column(raw, field, length, "an index", {int}, np.int64)  # bool is not int here
    if out is None or ((out < 0) | (out >= d)).any():
        for i, v in enumerate(raw):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ParseError(f"{field}[{i}]: expected an integer index, got {v!r}")
            if not 0 <= v < d:
                raise ParseError(f"{field}[{i}]: index {v} outside [0, {d})")
    return out


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
    required = ("eigenvalues", "target", "cost")
    for field in required:
        if field not in doc:
            raise ParseError(f"{field}: required field missing")
    # an absent or null optional field takes the ProblemInstance default
    return ProblemInstance(**{
        field: (_number if field.startswith("eps_") else _numbers)(doc[field], field)
        for field in INSTANCE_FIELDS
        if field in required or doc.get(field) is not None
    })


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
    """The trajectory document; its columns are the trajectory's own arrays,
    which the serializer writes _CHUNK scalars at a time."""
    meta = {
        "tool_version": TOOL_VERSION,
        "tie_break": TIE_BREAK,
        "eps_pop": float(traj.eps_pop),
        "eps_grad": float(traj.eps_grad),
        "basis": "preferred",
        "order": traj.order.perm,
    }
    if traj.block_of_position is not None:
        meta["block_of_position"] = traj.block_of_position
    return {
        "breakpoints": [traj.alphas, traj.omegas],
        "ks": traj.ks,
        "ls": traj.ls,
        "initial_vertex": traj.initial_vertex,
        "target": traj.target_pref,
        "cost": traj.cost_pref,
        "metadata": meta,
    }


def trajectory_from_dict(doc: dict) -> dict:
    """Validate a trajectory document by reading it (`trajectory_to_runtime`); returns it unchanged."""
    trajectory_to_runtime(doc)
    return doc


def trajectory_to_runtime(doc: dict) -> OptimalTrajectory:
    """The runtime trajectory of a trajectory document, checked column by column.

    Every index the reader uses is checked: `metadata.order` is a
    permutation of 0..d-1, `ks` and `ls` hold positions in [0, d) with
    k != l at each step, and `initial_vertex`, `target`, `cost` and
    `block_of_position` hold one entry per position. Every number is
    finite (Python's json reads NaN and Infinity), and so is every step's
    gradient; `ks` and `ls` hold one entry per step and each `breakpoints`
    row one more; the alphas increase strictly, and every step raises the
    target (its delta_alpha, replayed from `initial_vertex`, is above 0).
    An unknown top-level field is refused by name, and files of versions
    0.1.0 (every vertex), 0.2.0 (one object per step) and 0.3.0 (a
    `gradients` column) with a hint.

    The arrays go to the function the build makes its trajectory with,
    which derives the gradients, so the result equals the built trajectory
    in every field, `metadata.block_of_position` included; its
    delta_alphas are already replayed, for the check above. Files write
    zeros unsigned, so a -0.0 of the build reloads as 0.0.
    """
    from .trajectory import _trajectory

    if not isinstance(doc, dict):
        raise ParseError("trajectory file must contain a JSON object")
    old = [version for key, version in _OLD_FORMATS if key in doc]
    hint = f" (a version {old[0]} file; rebuild it)" if old else ""
    for field in TRAJECTORY_FIELDS:
        if field not in doc:
            raise ParseError(f"{field}: required field missing{hint}")
    unknown = set(doc) - set(TRAJECTORY_FIELDS)
    if unknown:
        raise ParseError(f"unknown trajectory fields: {sorted(unknown)}{hint}")
    meta = doc["metadata"]
    if not isinstance(meta, dict):
        raise ParseError("metadata: expected an object")
    for field in ("order", "eps_pop", "eps_grad"):
        if field not in meta:
            raise ParseError(f"metadata.{field}: required field missing")
    eps_pop = _number(meta["eps_pop"], "metadata.eps_pop")
    eps_grad = _number(meta["eps_grad"], "metadata.eps_grad")
    if not isinstance(meta["order"], list) or not meta["order"]:
        raise ParseError("metadata.order: expected a non-empty index array")
    d = len(meta["order"])
    perm = _indices(meta["order"], "metadata.order", d)
    _, first = np.unique(perm, return_index=True)
    if len(first) < d:
        i = int(np.setdiff1d(np.arange(d), first)[0])
        raise ParseError(f"metadata.order[{i}]: index {perm[i]} repeats, so order is not a permutation")
    p0, target, cost = (_numbers(doc[field], field, d) for field in ("initial_vertex", "target", "cost"))
    blocks = meta.get("block_of_position")
    if blocks is not None:
        blocks = _indices(blocks, "metadata.block_of_position", d, d)
    rows = doc["breakpoints"]
    if not isinstance(rows, list) or len(rows) != 2:
        raise ParseError("breakpoints: expected two rows, [alphas, omegas]")
    alphas = _numbers(rows[0], "breakpoints[0]")
    omegas = _numbers(rows[1], "breakpoints[1]")
    ks = _indices(doc["ks"], "ks", d)
    ls = _indices(doc["ls"], "ls", d)
    if not len(ks) == len(ls) == len(alphas) - 1 == len(omegas) - 1:
        raise ParseError(
            "ks and ls must hold one entry per step and each breakpoints row one more; got "
            f"{len(ks)} ks, {len(ls)} ls, {len(alphas)} alphas and {len(omegas)} omegas"
        )
    same = np.flatnonzero(ks == ls)
    if len(same):
        i = int(same[0])
        raise ParseError(f"ks[{i}], ls[{i}]: k and l are both {ks[i]}")
    if np.any(np.diff(alphas) <= 0):
        raise ParseError("breakpoints: alpha values must be strictly increasing")
    inverse = np.argsort(perm)
    perm.setflags(write=False)
    inverse.setflags(write=False)
    order = PreferredOrder(perm=perm, inverse=inverse)
    try:
        traj = _trajectory(order, target, cost, p0, ks, ls, alphas, omegas, eps_pop, eps_grad, blocks)
    except NonFiniteValue as exc:  # a step's gradient, derived from target and cost
        raise ParseError(str(exc)) from None
    lowers = np.flatnonzero(traj.delta_alphas <= 0)
    if len(lowers):
        i = int(lowers[0])
        raise ParseError(
            f"step {i} changes the target by {float(traj.delta_alphas[i])!r}: "
            f"swapping positions {ks[i]} and {ls[i]} of vertex {i} does not raise it"
        )
    return traj


def lifted_to_dict(lifted, alpha: float) -> dict:
    """The lift document; the d x d matrices stay the float64 arrays of the
    lift, which the serializer formats one row at a time."""
    return {
        "alpha": float(alpha),
        "unitary": lifted.unitary,
        "doubly_stochastic": lifted.doubly_stochastic,
        "density_diagonal": lifted.density_diagonal.tolist(),
    }
