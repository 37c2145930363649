"""Trajectory files: reload equals build, every index the reader uses is checked."""

import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
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
    doc["steps"][3][field] = value
    _rejects(doc, rf"steps\[3\]\.{field}: index {value} outside \[0, 6\)")


def test_step_with_k_equal_l_rejected(doc):
    doc["steps"][5]["l"] = doc["steps"][5]["k"]
    _rejects(doc, r"steps\[5\]: k and l are both")


def test_order_that_is_not_a_permutation_rejected(doc):
    bad = copy.deepcopy(doc)
    bad["metadata"]["order"][4] = bad["metadata"]["order"][1]
    _rejects(bad, r"metadata\.order\[4\]: index \d repeats")
    doc["metadata"]["order"][0] = -1
    _rejects(doc, r"metadata\.order\[0\]: index -1 outside \[0, 6\)")


def test_non_number_rejected(doc):
    bad = copy.deepcopy(doc)
    bad["steps"][2]["gradient"] = "1.5"
    _rejects(bad, r"steps\[2\]\.gradient: expected a number")
    for value in ("1.5", True):
        bad = copy.deepcopy(doc)
        bad["breakpoints"][3][1] = value
        _rejects(bad, r"breakpoints\[3\]\[1\]: expected a number")
    doc["metadata"]["eps_grad"] = None
    _rejects(doc, r"metadata\.eps_grad: expected a number")


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


@pytest.mark.parametrize("field, row", [("alpha_start", 4), ("alpha_end", 5)])
def test_step_alpha_off_its_breakpoint_rejected(doc, field, row):
    # cooling_steps reads the step alphas, state_at and omega_opt the breakpoints
    doc["steps"][4][field] += 1e-9
    _rejects(doc, rf"steps\[4\]\.{field}: .* is not the alpha of breakpoints\[{row}\]")


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
        ("breakpoints", 3, 1),
        ("breakpoints", 0, 0),
        ("steps", 2, "gradient"),
        ("steps", 4, "alpha_end"),
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


@pytest.mark.parametrize("path", [("breakpoints", 3, 1), ("initial_vertex", 0)])
def test_verify_rejects_non_finite_trajectory_file(doc, path, tmp_path, capsys):
    _set(doc, path, float("nan"))
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    instance = GOLDEN / "generic" / "instance.json"
    code = main(["verify", str(instance), "--samples", "10", "--trajectory", str(bad)])
    assert code == 2
    assert f"{path[0]}[" in capsys.readouterr().err


def test_version_1_document_rejected(doc, tmp_path, capsys):
    v1 = {key: doc[key] for key in ("alpha_range", "breakpoints", "steps")}
    v1["vertices"] = replayed_vertices(fileio.trajectory_to_runtime(doc)).tolist()
    v1["metadata"] = dict(doc["metadata"], tool_version="0.1.0")
    _rejects(v1, "initial_vertex: required field missing")
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(v1))
    instance = GOLDEN / "generic" / "instance.json"
    code = main(["verify", str(instance), "--samples", "10", "--trajectory", str(path)])
    assert code == 2
    assert "initial_vertex" in capsys.readouterr().err


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
    assert fileio.dumps_canonical(doc) == _recursive_dumps(doc)


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


@given(st.lists(st.dictionaries(st.text(max_size=3), st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
                                max_size=4), max_size=5))
def test_dumps_canonical_equals_the_recursive_serializer_on_flat_dict_lists(items):
    assert fileio.dumps_canonical({"rows": items}) == _recursive_dumps({"rows": items})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float64("-inf")])
def test_dumps_canonical_refuses_non_finite_dict_values(bad):
    for doc in ({"a": 1.0, "b": bad}, {"a": {"b": [bad]}}, {"a": {"b": bad}}, {"a": [{"b": 1}, {"b": bad}]}):
        with pytest.raises(ValueError, match="non-finite"):
            fileio.dumps_canonical(doc)


@pytest.mark.parametrize(
    "path",
    [("breakpoints", 3, 1), ("steps", 2, "gradient"), ("initial_vertex", 0), ("metadata", "eps_grad")],
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
