"""Trajectory files: reload equals build, every index the reader uses is checked."""

import copy
import dataclasses
import io
import json
import os
import re
import stat
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_single_step_rule, random_instance, replayed_vertices, tie_instance
from trajopt import fileio
from trajopt.cli import main
from trajopt.core import ProblemInstance, validate
from trajopt.errors import ParseError
from trajopt.trajectory import OptimalTrajectory, build

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(json.loads((GOLDEN / "cases.json").read_text()))


def _bits(x):
    """dtype, shape, write flag and bytes of x; zeros unsigned, as files write them."""
    x = np.asarray(x)
    flag = x.flags.writeable if x.ndim else None
    if x.dtype.kind == "f":
        x = x + 0.0  # -0.0 + 0.0 is 0.0; every other value keeps its bits
    return x.dtype, x.shape, flag, x.tobytes()


def assert_same_trajectory(got, want):
    """Every field of got equals the one of want bit for bit, up to the sign of zeros."""
    assert _bits(got.order.perm) == _bits(want.order.perm)
    assert _bits(got.order.inverse) == _bits(want.order.inverse)
    assert len(got.steps) == len(want.steps)
    for g, w in zip(got.steps, want.steps):
        for field in dataclasses.fields(g):
            gv, wv = getattr(g, field.name), getattr(w, field.name)
            assert type(gv) is type(wv), field.name
            assert _bits(gv) == _bits(wv), field.name
    for field in dataclasses.fields(OptimalTrajectory):
        if field.name == "order":
            continue
        gv, wv = getattr(got, field.name), getattr(want, field.name)
        if wv is None:
            assert gv is None, field.name
        else:
            assert _bits(gv) == _bits(wv), field.name


def reload(traj):
    text = fileio.dumps_canonical(fileio.trajectory_to_dict(traj))
    return fileio.trajectory_to_runtime(json.loads(text))


@pytest.mark.parametrize("name", CASES)
def test_golden_build_file_reloads_as_built(name):
    inst = validate(fileio.load_instance(str(GOLDEN / name / "instance.json")))
    built = build(inst)
    loaded = fileio.trajectory_to_runtime(fileio.load_json(str(GOLDEN / name / "build.json")))
    assert_same_trajectory(loaded, built)
    assert_single_step_rule(loaded)


def test_random_trajectories_reload_as_built(rng):
    for i in range(30):
        d = int(rng.integers(2, 31))
        conserved = None if i < 20 else rng.integers(0, int(rng.integers(1, 5)), d).astype(float)
        if i % 3 == 0:
            inst = random_instance(rng, d)
            if conserved is not None:
                inst = validate(
                    ProblemInstance(
                        eigenvalues=inst.eigenvalues,
                        target=inst.target,
                        cost=inst.cost,
                        conserved=conserved,
                    )
                )
        elif i % 3 == 1 and conserved is None:
            inst = random_instance(rng, d, degenerate=True)
        else:
            inst = tie_instance(rng, d, conserved=conserved)
        built = build(inst)
        loaded = reload(built)
        assert_same_trajectory(loaded, built)
        assert_single_step_rule(loaded)


@pytest.mark.xfail(
    strict=True,
    raises=ParseError,
    reason="known defect: a step of delta_alpha 1e-21 leaves alpha unchanged in float64, "
    "so the file's breakpoint alphas are not strictly increasing",
)
def test_float_invisible_step_reloads():
    inst = validate(ProblemInstance(
        eigenvalues=np.array([0.5 + 5e-11, 0.5 - 5e-11]),
        target=np.array([0.3, 0.3 + 1e-11]),
        cost=np.array([1.0, 0.0]),
    ))
    traj = build(inst)
    assert len(traj.steps) == 1
    assert_same_trajectory(reload(traj), traj)


@pytest.fixture
def doc():
    """The generic golden trajectory document: d = 6, 15 steps."""
    return fileio.load_json(str(GOLDEN / "generic" / "build.json"))


def _rejects(doc, match):
    with pytest.raises(ParseError, match=match):
        fileio.trajectory_to_runtime(doc)


@pytest.mark.parametrize("field, value", [("k", -1), ("k", 6), ("l", -2), ("l", 9)])
def test_step_index_outside_dim_rejected(doc, field, value):
    doc[field + "s"][3] = value
    _rejects(doc, rf"{field}s\[3\]: index {value} outside \[0, 6\)")


def test_step_with_k_equal_l_rejected(doc):
    doc["ls"][5] = doc["ks"][5]
    _rejects(doc, r"ks\[5\], ls\[5\]: k and l are both")


def test_order_that_is_not_a_permutation_rejected(doc):
    bad = copy.deepcopy(doc)
    bad["metadata"]["order"][4] = bad["metadata"]["order"][1]
    _rejects(bad, r"metadata\.order\[4\]: index \d repeats")
    doc["metadata"]["order"][0] = -1
    _rejects(doc, r"metadata\.order\[0\]: index -1 outside \[0, 6\)")


def test_non_number_rejected(doc):
    bad = copy.deepcopy(doc)
    bad["initial_vertex"][2] = "1.5"
    _rejects(bad, r"initial_vertex\[2\]: expected a number")
    for value in ("1.5", True):
        bad = copy.deepcopy(doc)
        bad["breakpoints"][1][3] = value
        _rejects(bad, r"breakpoints\[1\]\[3\]: expected a number")
    doc["metadata"]["eps_grad"] = None
    _rejects(doc, r"metadata\.eps_grad: expected a number")


_BAD_ANYWHERE = [True, False, "1.5", 10**400, -(10**400), float("nan"), float("inf"), float("-inf")]
_COLUMNS = ["ks", "ls", "initial_vertex", "alphas", "omegas"]
# (what to do, to which column, the value set): each makes the generic document invalid
_DAMAGE = (
    st.tuples(st.just("set"), st.sampled_from(_COLUMNS), st.sampled_from(_BAD_ANYWHERE))
    | st.tuples(st.just("set"), st.sampled_from(["ks", "ls"]), st.sampled_from([-1, 6, 2.0]))
    | st.tuples(st.just("k == l"), st.just("ls"), st.none())
    | st.tuples(st.just("drop"), st.sampled_from(_COLUMNS), st.none())
)


@settings(max_examples=60)
@given(damage=_DAMAGE, i=st.integers(0, 14))
def test_one_bad_column_entry_is_a_parse_error(damage, i):
    action, name, value = damage
    doc = fileio.load_json(str(GOLDEN / "generic" / "build.json"))
    columns = dict(zip(_COLUMNS, [doc["ks"], doc["ls"], doc["initial_vertex"], *doc["breakpoints"]]))
    i %= len(columns[name])  # initial_vertex holds 6 entries, the step columns 15 or 16
    if action == "set":
        columns[name][i] = value
    elif action == "k == l":
        columns["ls"][i] = columns["ks"][i]
    else:
        del columns[name][i]
    with pytest.raises(ParseError):  # never a TypeError, IndexError or ValueError
        fileio.trajectory_to_runtime(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", str(GOLDEN / "generic" / "instance.json"), "--samples", "10", "--trajectory", str(path)])
    assert code == 2 and err.getvalue().startswith("error: ")


@pytest.mark.parametrize(
    "path, value",
    [(("eps_grad",), True), (("eps_pop",), False), (("target", 0), True),
     (("eigenvalues", 2), False), (("cost", 1), "0.5")],
)
def test_instance_non_number_rejected(path, value):
    # bool is an int subclass, so an unchecked true would read as 1.0
    inst = fileio.load_json(str(GOLDEN / "generic" / "instance.json"))
    _set(inst, path, value)
    label = path[0] + "".join(f"[{k}]" for k in path[1:])
    with pytest.raises(ParseError, match=re.escape(label) + ": expected a number, got"):
        fileio.instance_from_dict(inst)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "path", [("target", 0), ("eigenvalues", 2), ("cost", 5), ("eps_pop",), ("eps_grad",)]
)
def test_instance_non_finite_number_rejected(path, value):
    # the instance reader names the entry, as the trajectory reader does
    inst = fileio.load_json(str(GOLDEN / "generic" / "instance.json"))
    _set(inst, path, value)
    label = path[0] + "".join(f"[{k}]" for k in path[1:])
    with pytest.raises(ParseError, match=re.escape(label) + ": expected a finite number, got"):
        fileio.instance_from_dict(inst)


@pytest.mark.parametrize("field", ["eigenvalues", "cost", "conserved", "initial_populations"])
def test_instance_vector_given_as_a_string_rejected(field):
    inst = fileio.load_json(str(GOLDEN / "generic" / "instance.json"))
    inst[field] = "0.5, 0.5"
    with pytest.raises(ParseError, match=f"{field}: expected a number array"):
        fileio.instance_from_dict(inst)


@pytest.mark.parametrize("field", ["initial_vertex", "target", "cost"])
def test_vector_of_wrong_length_rejected(doc, field):
    doc[field] = doc[field][:-1]
    _rejects(doc, rf"{field}: expected 6 entries, one per position of metadata\.order, got 5")


def _set(doc, path, value):
    """Set the entry of doc reached by a path of keys and indices."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "path",
    [
        ("breakpoints", 1, 3),
        ("breakpoints", 0, 0),
        ("initial_vertex", 2),
        ("breakpoints", 0, 5),
        ("initial_vertex", 0),
        ("target", 2),
        ("cost", 5),
        ("metadata", "eps_pop"),
        ("metadata", "eps_grad"),
    ],
)
def test_non_finite_number_rejected(doc, path, value):
    # Python's json reads NaN and Infinity, and comparisons with NaN are False
    _set(doc, path, value)
    label = path[0] + "".join(f".{k}" if isinstance(k, str) else f"[{k}]" for k in path[1:])
    _rejects(doc, re.escape(label) + ": expected a finite number")


@pytest.mark.parametrize("path", [("breakpoints", 1, 3), ("initial_vertex", 0)])
def test_verify_rejects_non_finite_trajectory_file(doc, path, tmp_path, capsys):
    _set(doc, path, float("nan"))
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    instance = GOLDEN / "generic" / "instance.json"
    code = main(["verify", str(instance), "--samples", "10", "--trajectory", str(bad)])
    assert code == 2
    assert f"{path[0]}[" in capsys.readouterr().err


def _old_document(doc, version):
    """doc in the layout of an older version: 0.3.0 also stores a gradients
    column; 0.2.0 holds one object per step and every alpha again in them;
    0.1.0 also every vertex, and no initial vertex."""
    traj = fileio.trajectory_to_runtime(doc)
    if version == "0.3.0":
        return dict(doc, gradients=traj.gradients.tolist(), metadata=dict(doc["metadata"], tool_version=version))
    alphas = traj.alphas.tolist()
    old = {
        "alpha_range": [alphas[0], alphas[-1]],
        "breakpoints": traj.breakpoints.tolist(),
        "steps": [{"k": s.k, "l": s.l, "gradient": s.gradient, "alpha_start": s.alpha_start, "alpha_end": s.alpha_end}
                  for s in traj.steps],
    }
    if version == "0.1.0":
        old["vertices"] = replayed_vertices(traj).tolist()
    else:
        old.update({key: doc[key] for key in ("initial_vertex", "target", "cost")})
    old["metadata"] = dict(doc["metadata"], tool_version=version)
    return old


@pytest.mark.parametrize(
    "version, refusal",
    [("0.1.0", "ks: required field missing"), ("0.2.0", "ks: required field missing"),
     ("0.3.0", "unknown trajectory fields: ['gradients']")],
    ids=["0.1.0", "0.2.0", "0.3.0"],
)
def test_old_version_document_rejected(doc, tmp_path, capsys, version, refusal):
    hint = f"(a version {version} file; rebuild it)"
    _rejects(_old_document(doc, version), re.escape(f"{refusal} {hint}"))
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_old_document(doc, version)))
    instance = GOLDEN / "generic" / "instance.json"
    code = main(["verify", str(instance), "--samples", "10", "--trajectory", str(path)])
    assert code == 2
    assert hint in capsys.readouterr().err


def test_unknown_top_level_field_rejected(doc):
    doc["notes"] = "built by hand"
    _rejects(doc, re.escape("unknown trajectory fields: ['notes']") + "$")


def _edit_target(doc):
    # step 3 swaps positions 4 and 0; giving them one target makes its gradient a division by zero
    assert (doc["ks"][3], doc["ls"][3]) == (4, 0)
    doc["target"][0] = doc["target"][4]


def _edit_cost(doc):
    # step 14 swaps positions 2 and 1, whose targets lie 0.04 apart; with this
    # cost at 2 its gradient overflows, and no earlier step's does
    assert (doc["ks"][14], doc["ls"][14]) == (2, 1)
    doc["cost"][2] = 1e308


@pytest.mark.parametrize(
    "edit, step, k, l", [(_edit_target, 3, 4, 0), (_edit_cost, 14, 2, 1)], ids=["equal-targets", "overflow"]
)
def test_step_with_a_non_finite_gradient_rejected(doc, tmp_path, capsys, edit, step, k, l):
    # the gradient is derived from the file's own target and cost, so a
    # file cannot hold a step the build would refuse
    edit(doc)
    _rejects(copy.deepcopy(doc), rf"^step {step} has gradient -?inf: the cost difference of positions {k} and {l} ")
    assert _verify_error(doc, tmp_path, capsys).startswith(f"error: step {step} ")


def _verify_error(doc, tmp_path, capsys):
    """What `verify --trajectory` prints on stderr for doc, after checking that it exits 2."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    instance = GOLDEN / "generic" / "instance.json"
    assert main(["verify", str(instance), "--samples", "10", "--trajectory", str(path)]) == 2
    return capsys.readouterr().err


def test_step_that_lowers_the_target_rejected(doc, tmp_path, capsys):
    # step 5 moved to position 5 leaves every column valid on its own, but
    # the replay then swaps positions 5 and 0 at step 7 the wrong way round
    doc["ks"][5] = 5
    _rejects(copy.deepcopy(doc), r"^step 7 changes the target by -2\.14\d*: swapping positions 5 and 0 of vertex 7 ")
    assert _verify_error(doc, tmp_path, capsys).startswith("error: step 7 changes the target by -2.14")


def test_dumps_canonical_scalar_lists():
    items = [1.5, -0.0, 3, True, None, "x", np.float64(0.1), np.int64(-4), 1e-300]
    want = '[1.5, 0, 3, true, null, "x", 0.10000000000000001, -4, 1e-300]'
    assert fileio.dumps_canonical(items) == want
    assert fileio.dumps_canonical(np.array([-0.0, 2.0])) == "[0, 2]"
    assert fileio.dumps_canonical({"a": [[1.0, 2], []]}) == '{\n  "a": [\n    [1, 2],\n    []\n  ]\n}'
    for bad in (float("nan"), [1.0, float("inf")], np.array([0.0, -np.inf])):
        with pytest.raises(ValueError, match="non-finite"):
            fileio.dumps_canonical(bad)


def _recursive_dumps(obj, indent=0):
    """Reference serializer: every value recurses to one scalar at a time
    and every key goes through json.dumps."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(f"{pad}  {json.dumps(str(k))}: {_recursive_dumps(v, indent + 2)}" for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
            return "[" + ", ".join(map(fileio._dumps_scalar, items)) + "]"
        inner = ",\n".join(f"{pad}  {_recursive_dumps(v, indent + 2)}" for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    return fileio._dumps_scalar(obj)


_SCALARS = [1.5, -0.0, 0.0, 3, -7, 0, 10**30, True, False, None, "x", 'q"\\\n\u00e9\U0001f600',
            np.float64(0.1), np.float64(-0.0), np.int64(-4), np.int32(5), 1e-300, 5e-324, 1.7976931348623157e308]


def test_dumps_canonical_dict_scalars_match_the_recursive_serializer():
    doc = {f"k{i}": v for i, v in enumerate(_SCALARS)}
    doc.update({"\u00e9\t\"key\"": 2.5, 7: 1, "list": _SCALARS, "empty": {}, "rows": [[0.5, -0.0], []],
                "nested": {"step": {"k": 1, "l": 2, "gradient": -0.0, "alpha_start": 0.1}, "arr": np.array([1.0, 2.0])}})
    assert fileio.dumps_canonical(doc) == _recursive_dumps(doc)
    traj = fileio.trajectory_to_dict(build(validate(ProblemInstance(
        eigenvalues=[0.5, 0.3, 0.2], target=[1.0, 0.0, 0.0], cost=[0.0, -0.0, 1.0]))))
    assert fileio.dumps_canonical(traj) == _recursive_dumps(traj)


_JSON_SCALAR = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
)
_JSON_DOC = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(st.text(max_size=4), _JSON_DOC, max_size=6))
def test_dumps_canonical_equals_the_recursive_serializer(doc):
    text = fileio.dumps_canonical(doc)
    assert text == _recursive_dumps(doc)
    assert _streamed(doc) == text + "\n"
    assert fileio.same_canonical(doc, doc)
    # a reloaded document has ints where the original had integral floats, and no numpy scalars
    assert fileio.same_canonical(doc, json.loads(text))
    assert not fileio.same_canonical(doc, dict(doc, extra=None))  # drawn keys have at most 4 characters


def test_dumps_canonical_lists_of_flat_dicts_match_the_recursive_serializer():
    step = {"k": 1, "l": 2, "gradient": -0.0, "alpha_start": 0.1, "alpha_end": 5e-324}
    lists = [
        [step, dict(step, k=0, gradient=-1.5), {"alpha_end": 2.0, "k": 3}],
        [{"a%s": -0.0, "%d\u00e9": 10**30, "\"q\"": -7}, {"b": 0}],
        [{"a": 1.0}, {"a": [1.0, -0.0]}],  # a nested value
        [{"a": 1.0}, {"b": {"c": -0.0}}],
        [{"a": 1.0}, {}],
        [{1: 1.0}, {1.0: 2.0}, {True: 3}],  # keys that hash alike but print apart
        [{"a": True}, {"a": None}, {"a": "x"}, {"a": np.float64(-0.0)}, {"a": np.int64(4)}],
    ]
    for items in lists:
        for doc in (items, {"outer": {"steps": items}}):
            assert fileio.dumps_canonical(doc) == _recursive_dumps(doc)
            assert _streamed(doc) == _recursive_dumps(doc) + "\n"


@given(st.lists(st.dictionaries(st.text(max_size=3), st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
                                max_size=4), max_size=5))
def test_dumps_canonical_equals_the_recursive_serializer_on_flat_dict_lists(items):
    assert fileio.dumps_canonical({"rows": items}) == _recursive_dumps({"rows": items})
    assert _streamed({"rows": items}) == _recursive_dumps({"rows": items}) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float64("-inf")])
def test_dumps_canonical_refuses_non_finite_dict_values(bad):
    for doc in ({"a": 1.0, "b": bad}, {"a": {"b": [bad]}}, {"a": {"b": bad}}, {"a": [{"b": 1}, {"b": bad}]}):
        with pytest.raises(ValueError, match="non-finite"):
            fileio.dumps_canonical(doc)


@pytest.mark.parametrize(
    "path",
    [("breakpoints", 1, 3), ("target", 2), ("initial_vertex", 0), ("metadata", "eps_grad")],
)
def test_huge_integer_rejected(doc, path):
    # math.isfinite and float() overflow on an integer beyond float range
    _set(doc, path, -(10**400))
    label = path[0] + "".join(f".{k}" if isinstance(k, str) else f"[{k}]" for k in path[1:])
    _rejects(doc, re.escape(label) + ": a 401-digit integer is too large for a float")


@pytest.mark.parametrize("path", [("target", 0), ("eigenvalues", 2), ("eps_pop",), ("eps_grad",)])
def test_instance_huge_integer_rejected(path):
    inst = fileio.load_json(str(GOLDEN / "generic" / "instance.json"))
    _set(inst, path, 10**400)
    label = path[0] + "".join(f"[{k}]" for k in path[1:])
    with pytest.raises(ParseError, match=re.escape(label) + ": a 401-digit integer is too large for a float"):
        fileio.instance_from_dict(inst)
    _set(inst, path, 10**300)  # a large integer that fits a float is still a number
    parsed = getattr(fileio.instance_from_dict(inst), path[0])
    assert (parsed if len(path) == 1 else parsed[path[1]]) == 1e300


def _streamed(doc) -> str:
    out = io.StringIO()
    fileio.write_canonical(out, doc)
    return out.getvalue()


def test_float64_arrays_write_as_their_lists():
    rng = np.random.default_rng(4)
    for m in (rng.normal(size=(4, 3)), np.array([[-0.0, 1e-300], [5e-324, 2.5]]), np.zeros((0, 3)), np.zeros((2, 0)),
              rng.normal(size=(3, 3)).astype(np.float32)):
        want = fileio.dumps_canonical({"m": m.tolist(), "v": m[0].tolist() if len(m) else []})
        doc = {"m": m, "v": m[0] if len(m) else m.reshape(-1)}
        assert fileio.dumps_canonical(doc) == want
        assert _streamed(doc) == want + "\n"
    with pytest.raises(ValueError, match="non-finite"):
        fileio.dumps_canonical({"m": np.array([[1.0, 2.0], [np.nan, 0.0]])})


def test_same_canonical_compares_across_piece_boundaries():
    # a numeric array streams 512 scalars a piece, the equal list in one piece
    column = np.arange(1200) * 0.5
    plain, array = {"r": [column.tolist()]}, {"r": [column]}
    assert list(fileio._pieces(plain, 0)) != list(fileio._pieces(array, 0))
    assert fileio.same_canonical(plain, array)
    assert not fileio.same_canonical(plain, {"r": [np.append(column[:-1], 0.25)]})
    assert not fileio.same_canonical({"a": [1, 2]}, {"a": [1, 2, 3]})


def test_write_canonical_to_a_file_holds_about_a_row(tmp_path):
    rng = np.random.default_rng(2)
    d = 200
    traj = build(validate(ProblemInstance(
        eigenvalues=rng.dirichlet(np.ones(d)), target=rng.normal(size=d), cost=rng.normal(size=d))))
    doc = fileio.trajectory_to_dict(traj)
    path = tmp_path / "trajectory.json"
    tracemalloc.start()
    try:
        fileio.write_canonical(path, doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_text() == fileio.dumps_canonical(doc) + "\n"
    assert peak < size / 10, f"{peak} B held to write {size} B"


def test_write_canonical_leaves_the_old_file_when_a_value_is_not_finite(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"old contents\n")
    rows = [{"k": i, "gradient": 0.5 * i} for i in range(20_000)]  # well past one write buffer
    rows[-1]["gradient"] = float("nan")
    with pytest.raises(ValueError, match="non-finite"):
        fileio.write_canonical(path, {"steps": rows})
    assert path.read_bytes() == b"old contents\n"
    assert sorted(os.listdir(tmp_path)) == ["out.json"]
    rows[-1]["gradient"] = 1.0
    fileio.write_canonical(path, {"steps": rows})
    assert path.read_text() == fileio.dumps_canonical({"steps": rows}) + "\n"
    assert sorted(os.listdir(tmp_path)) == ["out.json"]


def test_write_canonical_makes_files_as_open_does(tmp_path):
    fileio.write_canonical(tmp_path / "new.json", {"a": 1})
    with open(tmp_path / "reference.json", "w"):
        pass
    assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "reference.json").stat().st_mode


def test_write_canonical_writes_a_pipe_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader, so opening to write does not block
    try:
        fileio.write_canonical(fifo, {"a": [1.5, 2.0]})
        assert os.read(reader, 1 << 16).decode() == fileio.dumps_canonical({"a": [1.5, 2.0]}) + "\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_write_canonical_keeps_the_mode_of_the_file_it_replaces(tmp_path):
    doc = {"a": [1.5, 2.0]}
    private = tmp_path / "private.json"
    private.write_text("old\n")
    private.chmod(0o600)
    fileio.write_canonical(private, doc)
    assert private.read_text() == fileio.dumps_canonical(doc) + "\n"
    assert stat.S_IMODE(private.stat().st_mode) == 0o600
    # a read-only file is refused, or (by a superuser) written, as open(path, "w") does
    read_only = tmp_path / "read-only.json"
    read_only.write_text("old\n")
    read_only.chmod(0o444)
    if os.access(read_only, os.W_OK):
        fileio.write_canonical(read_only, doc)
        assert read_only.read_text() == fileio.dumps_canonical(doc) + "\n"
    else:
        with pytest.raises(PermissionError, match=re.escape(repr(str(read_only)))):
            fileio.write_canonical(read_only, doc)
        assert read_only.read_text() == "old\n"
    assert stat.S_IMODE(read_only.stat().st_mode) == 0o444
    assert sorted(os.listdir(tmp_path)) == ["private.json", "read-only.json"]


def test_write_canonical_writes_links_in_place(tmp_path):
    doc = {"a": [1.5, 2.0]}
    want = fileio.dumps_canonical(doc) + "\n"
    target = tmp_path / "target.json"
    target.write_text("old\n")
    (tmp_path / "symlink.json").symlink_to(target)
    fileio.write_canonical(tmp_path / "symlink.json", doc)
    assert (tmp_path / "symlink.json").is_symlink() and target.read_text() == want
    os.link(target, tmp_path / "hardlink.json")
    fileio.write_canonical(tmp_path / "hardlink.json", {"b": 1})
    assert target.read_text() == fileio.dumps_canonical({"b": 1}) + "\n"
    assert os.path.samefile(target, tmp_path / "hardlink.json")


def test_write_canonical_writes_in_place_where_no_new_file_can_be_made(tmp_path, monkeypatch):
    # as in a read-only directory: the output, writable itself, is written in place
    path = tmp_path / "out.json"
    path.write_text("old\n")

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(fileio.os, "open", refuse)
    fileio.write_canonical(path, {"a": 1})
    assert path.read_text() == fileio.dumps_canonical({"a": 1}) + "\n"
    assert sorted(os.listdir(tmp_path)) == ["out.json"]
