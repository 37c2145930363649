import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajopt
from trajopt import fileio
from trajopt.cli import main

GENERIC = Path(__file__).resolve().parent / "golden" / "generic" / "instance.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def instance_file(tmp_path, capsys):
    code, out, _ = run(capsys, "cool", "--demo", "working-example")
    assert code == 0
    path = tmp_path / "instance.json"
    path.write_text(out)
    return str(path)


def test_cool_demo_fields(instance_file):
    text = open(instance_file).read()
    doc = json.loads(text)
    assert list(doc) == ["eigenvalues", "target", "cost", "initial_populations", "eps_pop", "eps_grad"]
    assert len(doc["eigenvalues"]) == 8
    assert doc["cost"][:4] == [0, 0.1, 0.4, 1.1]
    # loading and re-serializing the instance reproduces the bytes
    from trajopt.core import validate

    inst = validate(fileio.instance_from_dict(doc))
    assert fileio.dumps_canonical(fileio.instance_to_dict(inst)) + "\n" == text


def test_cool_explicit_flags(capsys):
    code, out, _ = run(
        capsys,
        "cool",
        "--system-energies", "0,0.3",
        "--system-populations", "0.5,0.5",
        "--machine-energies", "0,0.1,0.4,1.1",
        "--beta", "1",
    )
    assert code == 0
    code2, out2, _ = run(capsys, "cool", "--demo", "working-example")
    assert out == out2


def test_cool_incoherent_demo(capsys):
    code, out, _ = run(capsys, "cool", "--demo", "incoherent")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["eigenvalues"]) == 12
    assert "conserved" in doc
    assert len({round(v, 9) for v in doc["conserved"]}) == 5


def test_cool_bad_flags(capsys):
    code, _, err = run(capsys, "cool", "--system-energies", "0,x", "--machine-energies", "0", "--beta", "1")
    assert code == 2 and "system-energies" in err


def test_build_eval_roundtrip(tmp_path, capsys, instance_file):
    out_path = str(tmp_path / "traj.json")
    code, _, _ = run(capsys, "build", instance_file, out_path)
    assert code == 0
    text = open(out_path).read()
    doc = fileio.load_json(out_path)
    assert fileio.dumps_canonical(fileio.trajectory_from_dict(doc)) + "\n" == text

    code, out, _ = run(capsys, "eval", instance_file, "--grid", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,omega,work"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    # every breakpoint appears and matches the stored omega digit for digit
    for alpha, omega in doc["breakpoints"]:
        key = fileio.format_float(alpha)
        assert key in rows
        assert rows[key][1] == fileio.format_float(omega)
    # work is zero at the initial target value
    assert float(rows[fileio.format_float(0.5)][2]) == 0.0


def test_trajectory_file_evaluates_standalone(tmp_path, capsys, instance_file):
    from trajopt.trajectory import omega_opt

    out_path = str(tmp_path / "traj.json")
    run(capsys, "build", instance_file, out_path)
    doc = fileio.load_json(out_path)
    runtime = fileio.trajectory_to_runtime(doc)
    for alpha, omega in doc["breakpoints"]:
        assert omega_opt(runtime, float(alpha)) == float(omega)


def test_eps_flags_override_instance(tmp_path, capsys, instance_file):
    out_path = str(tmp_path / "traj.json")
    run(capsys, "--eps-pop", "1e-9", "--eps-grad", "1e-9", "build", instance_file, out_path)
    doc = fileio.load_json(out_path)
    assert doc["metadata"]["eps_pop"] == 1e-9
    assert doc["metadata"]["eps_grad"] == 1e-9


def test_malformed_json_is_parse_error(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "build", str(broken), str(tmp_path / "o.json"))
    assert code == 2 and "invalid JSON" in err


def test_eval_single_alpha(capsys, instance_file):
    code, out, _ = run(capsys, "eval", instance_file, "--alpha", "0.5")
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_eval_alpha_out_of_range(capsys, instance_file):
    code, out, err = run(capsys, "eval", instance_file, "--alpha", "2.0")
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("sub", ["eval", "lift"])
def test_nan_alpha_exits_out_of_range_without_traceback(tmp_path, sub):
    # NaN compares false with both ends of the range; it used to pass the
    # range check and end in a ValueError traceback
    argv = [sub, str(GENERIC)] + ([str(tmp_path / "lift.json")] if sub == "lift" else []) + ["--alpha", "nan"]
    env = dict(os.environ, PYTHONPATH=str(Path(trajopt.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "trajopt.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: alpha nan outside") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "lift.json").exists()


def test_build_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"eigenvalues": [0.5, "x"], "target": [1, 0], "cost": [0, 1]}')
    code, _, err = run(capsys, "build", str(bad), str(tmp_path / "out.json"))
    assert code == 2 and "eigenvalues" in err

    missing = tmp_path / "missing_field.json"
    missing.write_text('{"eigenvalues": [0.5, 0.5], "cost": [0, 1]}')
    code, _, err = run(capsys, "build", str(missing), str(tmp_path / "out.json"))
    assert code == 2 and "target" in err

    code, _, _ = run(capsys, "build", str(tmp_path / "nope.json"), str(tmp_path / "out.json"))
    assert code == 1


def test_lift_output(tmp_path, capsys, instance_file):
    out_path = str(tmp_path / "lift.json")
    code, _, _ = run(capsys, "lift", instance_file, out_path, "--alpha", "0.52")
    assert code == 0
    doc = json.loads(open(out_path).read())
    u = np.array(doc["unitary"], dtype=float)
    ds = np.array(doc["doubly_stochastic"], dtype=float)
    assert np.max(np.abs(u.T @ u - np.eye(8))) <= 1e-12
    assert np.max(np.abs(u**2 - ds)) <= 1e-12
    # lifting at alpha_min is a permutation matrix
    code, _, _ = run(capsys, "lift", instance_file, out_path, "--alpha", "0.34497293037343785")
    perm = np.array(json.loads(open(out_path).read())["unitary"])
    assert np.isin(perm, [0.0, 1.0]).all()


def test_verify_pass_and_json(capsys, instance_file):
    code, out, _ = run(capsys, "verify", instance_file, "--samples", "500")
    assert code == 0 and out.strip().endswith("OK")
    code, out, _ = run(capsys, "verify", instance_file, "--samples", "200", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"envelope-equivalence", "monte-carlo-audit"} <= names


def test_verify_edge_check_small_instance(tmp_path, capsys):
    inst = {
        "eigenvalues": [0.4, 0.3, 0.2, 0.1],
        "target": [0, 0, 1, 1],
        "cost": [0, 1, 0, 1],
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(inst))
    code, out, _ = run(capsys, "verify", str(path), "--samples", "200")
    assert code == 0
    assert "PASS  edge-structure" in out


def test_verify_tamper_negative_control(tmp_path, capsys, instance_file):
    traj_path = str(tmp_path / "traj.json")
    run(capsys, "build", instance_file, traj_path)
    code, _, _ = run(capsys, "verify", instance_file, "--samples", "100", "--trajectory", traj_path)
    assert code == 0
    doc = fileio.load_json(traj_path)
    doc["steps"][2]["gradient"] += 1e-3
    tampered = str(tmp_path / "tampered.json")
    open(tampered, "w").write(json.dumps(doc))
    code, out, _ = run(capsys, "verify", instance_file, "--samples", "100", "--trajectory", tampered)
    assert code == 4
    assert "FAIL" in out


def test_verify_conserved_instance(tmp_path, capsys):
    code, out, _ = run(capsys, "cool", "--demo", "incoherent")
    path = tmp_path / "inc.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path), "--samples", "300")
    assert code == 0


def test_verify_large_flat_instance_skips_enumeration_runs_audit(tmp_path, capsys):
    rng = np.random.default_rng(5)
    lam = rng.dirichlet(np.ones(12))
    inst = {
        "eigenvalues": list(map(float, lam)),
        "target": list(map(float, rng.normal(size=12))),
        "cost": list(map(float, rng.normal(size=12))),
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(inst))
    code, out, _ = run(capsys, "verify", str(path), "--samples", "300")
    assert code == 0
    assert "SKIP  envelope-equivalence" in out
    assert "PASS  monte-carlo-audit" in out


def test_enum_cap_env_var(tmp_path, capsys, instance_file, monkeypatch):
    monkeypatch.setenv("TRAJOPT_MAX_ENUM_DIM", "4")
    code, out, _ = run(capsys, "verify", instance_file, "--samples", "100")
    assert code == 0
    assert "skipped" in out and "envelope-equivalence" in out


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_non_positive_samples(capsys, instance_file, samples):
    code, out, err = run(capsys, "verify", instance_file, "--samples", samples)
    assert code == 2
    assert "--samples" in err and out == ""


def _tampered_instance(tmp_path, field, value):
    """The generic golden instance with field (or its entry 0) set to value."""
    doc = json.loads(GENERIC.read_text())
    if isinstance(doc.get(field), list):
        doc[field][0] = value
    else:
        doc[field] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity and reads them back
    return str(path)


@pytest.mark.parametrize(
    "field, value",
    [("target", float("nan")), ("eigenvalues", float("inf")), ("cost", -float("inf")),
     ("eps_pop", float("nan")), ("eps_grad", float("nan")), ("eps_grad", float("inf"))],
)
def test_non_finite_instance_is_a_parse_error(tmp_path, capsys, field, value):
    path = _tampered_instance(tmp_path, field, value)
    code, _, err = run(capsys, "build", path, str(tmp_path / "traj.json"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


@pytest.mark.parametrize("field", ["eps_grad", "eps_pop", "target", "cost"])
def test_boolean_instance_number_is_a_parse_error(tmp_path, capsys, field):
    # true is no number: read as 1.0 it would merge every eps_grad tie class
    path = _tampered_instance(tmp_path, field, True)
    code, out, err = run(capsys, "build", path, str(tmp_path / "traj.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err and "True" in err


@pytest.mark.parametrize("flag", ["--eps-pop", "--eps-grad"])
def test_non_finite_tolerance_flag_is_a_parse_error(tmp_path, capsys, flag):
    code, _, err = run(capsys, flag, "nan", "build", str(GENERIC), str(tmp_path / "traj.json"))
    assert code == 2 and flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("field", ["target", "eps_grad"])
def test_non_finite_instance_exits_without_traceback(tmp_path, field):
    path = _tampered_instance(tmp_path, field, float("nan"))
    env = dict(os.environ, PYTHONPATH=str(Path(trajopt.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "trajopt.cli", "build", path, str(tmp_path / "traj.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and field in proc.stderr


@pytest.mark.parametrize("field", ["target", "eps_grad", "eigenvalues"])
def test_huge_integer_instance_number_is_a_parse_error(tmp_path, capsys, field):
    # JSON integers are unbounded; 10**400 overflows float() and used to
    # end in an OverflowError traceback
    path = _tampered_instance(tmp_path, field, 10**400)
    code, out, err = run(capsys, "build", path, str(tmp_path / "traj.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err
    assert "401-digit integer is too large for a float" in err


@pytest.mark.parametrize("path", [("breakpoints", 3, 1), ("steps", 2, "gradient"), ("metadata", "eps_pop")])
def test_verify_rejects_huge_integer_in_trajectory_file(tmp_path, capsys, path):
    code, _, _ = run(capsys, "build", str(GENERIC), str(tmp_path / "traj.json"))
    assert code == 0
    doc = json.loads((tmp_path / "traj.json").read_text())
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = 10**400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(GENERIC), "--samples", "10", "--trajectory", str(bad))
    assert code == 2 and out == ""
    label = path[0] + "".join(f".{k}" if isinstance(k, str) else f"[{k}]" for k in path[1:])
    assert label in err and "too large for a float" in err


def test_integer_beyond_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # Python's json refuses integer literals past sys.get_int_max_str_digits()
    # with a plain ValueError, not a JSONDecodeError
    text = json.dumps(dict(json.loads(GENERIC.read_text()), eps_grad=0)).replace('"eps_grad": 0', '"eps_grad": ' + "1" * 5000)
    path = tmp_path / "instance.json"
    path.write_text(text)
    code, out, err = run(capsys, "build", str(path), str(tmp_path / "traj.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "invalid JSON" in err


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    # json recurses once per nesting level and raised RecursionError
    path = tmp_path / "instance.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "build", str(path), str(tmp_path / "traj.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err
