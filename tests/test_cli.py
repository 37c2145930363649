import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajopt
from trajopt import fileio, polytope
from trajopt.cli import main
from trajopt.core import block_indices, block_of_input, validate
from trajopt.trajectory import build

GENERIC = Path(__file__).resolve().parent / "golden" / "generic" / "instance.json"
FLAT_D5 = GENERIC.parent.parent / "negative-zero-gradient" / "instance.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child(*argv, code=None):
    """Run `python -m trajopt.cli *argv` in a fresh interpreter, or `python -c code *argv`."""
    env = dict(os.environ, PYTHONPATH=str(Path(trajopt.__file__).resolve().parents[1]))
    launch = ["-m", "trajopt.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *launch, *map(str, argv)], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.fixture
def instance_file(tmp_path, capsys):
    code, out, _ = run(capsys, "cool", "--demo", "working-example")
    assert code == 0
    path = tmp_path / "instance.json"
    path.write_text(out)
    return str(path)


@pytest.fixture
def incoherent_file(tmp_path, capsys):
    code, out, _ = run(capsys, "cool", "--demo", "incoherent")
    assert code == 0
    path = tmp_path / "incoherent.json"
    path.write_text(out)
    return str(path)


def test_cool_demo_fields(instance_file):
    text = Path(instance_file).read_text()
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


def test_cool_unknown_demo_exits_2(capsys):
    # argparse's choices refuse it before cmd_cool runs
    with pytest.raises(SystemExit) as exc:
        main(["cool", "--demo", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_cool_bad_flags(capsys):
    code, _, err = run(capsys, "cool", "--system-energies", "0,x", "--machine-energies", "0", "--beta", "1")
    assert code == 2 and "system-energies" in err


@pytest.mark.parametrize("flag, raw", [
    ("--machine-energies", ","), ("--system-energies", ",,"), ("--bath-energies", ","),
])
def test_cool_empty_energy_list_is_a_parse_error(capsys, flag, raw):
    # an empty list reached thermal_populations, whose minimum of a
    # zero-size array ended in a ValueError traceback and exit 1
    flags = {"--system-energies": "0,1", "--machine-energies": "0,1", flag: raw}
    argv = ["cool", *(tok for item in flags.items() for tok in item), "--beta", "1"]
    if flag == "--bath-energies":
        argv += ["--beta-bath", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag}: expected at least one number, got {raw!r}\n"


@pytest.mark.parametrize("flag, raw, message", [
    ("--beta", "nan", "expected a number, got nan"),
    ("--beta-bath", "nan", "expected a number, got nan"),
    ("--system-energies", "0,nan", "expected finite numbers, got '0,nan'"),
    ("--system-populations", "nan,1", "expected finite numbers, got 'nan,1'"),
    ("--machine-energies", "0,inf", "expected finite numbers, got '0,inf'"),
    ("--bath-energies", "-inf,0", "expected finite numbers, got '-inf,0'"),
])
def test_cool_names_the_flag_of_a_non_finite_number(capsys, flag, raw, message):
    # each used to be refused by validate, by the name of the assembled
    # field ("eigenvalues contains non-finite entries")
    flags = {"--system-energies": "0,1", "--machine-energies": "0,1", "--beta": "1"}
    if flag in ("--bath-energies", "--beta-bath"):
        flags.update({"--bath-energies": "0,1", "--beta-bath": "1"})
    flags[flag] = raw
    code, out, err = run(capsys, "cool", *(f"{k}={v}" for k, v in flags.items()))
    assert (code, out, err) == (2, "", f"error: {flag}: {message}\n")


@pytest.mark.parametrize("beta, eigenvalues", [("inf", [1, 0, 0, 0]), ("-inf", [0, 0, 0, 1])])
def test_cool_takes_an_infinite_beta(capsys, beta, eigenvalues):
    # thermal_populations' ground-only and top-only limits
    code, out, err = run(capsys, "cool", "--system-energies", "0,1", "--machine-energies", "0,1", f"--beta={beta}")
    assert code == 0 and err == ""
    assert json.loads(out)["eigenvalues"] == eigenvalues
    code, out, err = run(capsys, "cool", "--system-energies", "0,1", "--machine-energies", "0,1",
                         "--bath-energies", "0,1", f"--beta={beta}", f"--beta-bath={beta}")
    assert code == 0 and err == ""


def test_cool_refuses_system_populations_of_the_wrong_length(capsys):
    code, out, err = run(capsys, "cool", "--system-energies", "0,1", "--system-populations", "0.5,0.3,0.2",
                         "--machine-energies", "0,1", "--beta", "1")
    assert (code, out, err) == (2, "", "error: 3 initial populations for 2 energies\n")


def test_cool_at_a_negative_beta_favours_the_top_levels(capsys):
    # exp(-beta * (E - E.min())) overflowed at beta = -710
    code, out, err = run(capsys, "cool", "--system-energies", "0,1", "--machine-energies", "0,1", "--beta=-710")
    assert code == 0 and err == ""
    assert json.loads(out)["eigenvalues"][-1] == 1.0


def test_cool_with_overflowing_energies_prints_no_numpy_warning(capsys):
    # machine energies 2e308 apart: the upper level's weight vanishes and
    # cool writes the instance; system and machine energies whose sum
    # overflows: validate refuses the inf cost; numpy prints nothing
    argv = ["cool", "--system-energies", "0,1", "--machine-energies=-1e308,1e308", "--beta", "1"]
    proc = _child(*argv)
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "") and code == 0
    proc = _child("cool", "--system-energies", "0,1e308", "--machine-energies", "0,1e308", "--beta", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: cost contains non-finite entries\n")


def test_build_eval_roundtrip(tmp_path, capsys, instance_file):
    out_path = str(tmp_path / "traj.json")
    code, _, _ = run(capsys, "build", instance_file, out_path)
    assert code == 0
    text = Path(out_path).read_text()
    doc = fileio.load_json(out_path)
    assert fileio.dumps_canonical(fileio.trajectory_from_dict(doc)) + "\n" == text

    code, out, _ = run(capsys, "eval", instance_file, "--grid", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,omega,work"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    # every breakpoint appears and matches the stored omega digit for digit
    for alpha, omega in zip(*doc["breakpoints"]):
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
    for alpha, omega in zip(*doc["breakpoints"]):
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


def test_eval_grid_zero_prints_the_breakpoints_only(capsys, instance_file):
    code, out, _ = run(capsys, "eval", instance_file, "--grid", "0")
    assert code == 0
    traj = build(validate(fileio.load_instance(instance_file)))
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,omega,work"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [fileio.format_float(alpha), fileio.format_float(omega)] for alpha, omega in traj.breakpoints
    ]


@pytest.mark.parametrize("n", ["-1", "-200"])
def test_negative_grid_is_a_parse_error(capsys, instance_file, n):
    code, out, err = run(capsys, "eval", instance_file, "--grid", n)
    assert code == 2 and out == ""
    assert err == f"error: --grid must be at least 0, got {n}\n"


def test_negative_grid_exits_without_traceback():
    # np.linspace refused the count with a ValueError traceback and exit 1
    proc = _child("eval", GENERIC, "--grid", "-1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: --grid must be at least 0, got -1\n"


@pytest.mark.parametrize("sub", ["eval", "lift"])
def test_nan_alpha_exits_out_of_range_without_traceback(tmp_path, sub):
    # NaN compares false with both ends of the range; it used to pass the
    # range check and end in a ValueError traceback
    argv = [sub, GENERIC] + ([tmp_path / "lift.json"] if sub == "lift" else []) + ["--alpha", "nan"]
    proc = _child(*argv)
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

    out = tmp_path / "no-such-dir" / "out.json"
    code, _, err = run(capsys, "build", str(GENERIC), str(out))
    assert code == 1 and err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


def test_lift_output(tmp_path, capsys, instance_file):
    out_path = str(tmp_path / "lift.json")
    code, _, _ = run(capsys, "lift", instance_file, out_path, "--alpha", "0.52")
    assert code == 0
    doc = json.loads(Path(out_path).read_text())
    u = np.array(doc["unitary"], dtype=float)
    ds = np.array(doc["doubly_stochastic"], dtype=float)
    assert np.max(np.abs(u.T @ u - np.eye(8))) <= 1e-12
    assert np.max(np.abs(u**2 - ds)) <= 1e-12
    # lifting at alpha_min is a permutation matrix
    code, _, _ = run(capsys, "lift", instance_file, out_path, "--alpha", "0.34497293037343785")
    perm = np.array(json.loads(Path(out_path).read_text())["unitary"])
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


def test_verify_runs_the_edge_check_on_a_near_tie(tmp_path, capsys):
    # two eigenvalues 1e-10 apart, 6.7e-10 of the spread: the face test
    # works on value ranks, so it decides the edges of a swap that short
    # (an LP test printed "FAIL edge-structure: 360 edges, 240 predicted")
    lam = np.array([0.3, 0.25, 0.2, 0.15, 0.15 - 1e-10])
    inst = {
        "eigenvalues": (lam / lam.sum()).tolist(),
        "target": [0, 1, 2, 3, 4.5],
        "cost": [0.3, -1, 0.7, 2, 0.1],
    }
    path = tmp_path / "near_tie.json"
    path.write_text(json.dumps(inst))
    code, out, _ = run(capsys, "verify", str(path), "--samples", "200")
    assert code == 0 and "FAIL" not in out
    assert "PASS  edge-structure: 240 edges, 240 predicted" in out


def test_verify_tamper_negative_control(tmp_path, capsys, instance_file):
    traj_path = str(tmp_path / "traj.json")
    run(capsys, "build", instance_file, traj_path)
    code, _, _ = run(capsys, "verify", instance_file, "--samples", "100", "--trajectory", traj_path)
    assert code == 0
    doc = fileio.load_json(traj_path)
    doc["breakpoints"][1][2] += 1e-3  # an omega
    tampered = str(tmp_path / "tampered.json")
    Path(tampered).write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", instance_file, "--samples", "100", "--trajectory", tampered)
    assert code == 4
    assert "FAIL" in out


def test_verify_conserved_instance(tmp_path, capsys):
    code, out, _ = run(capsys, "cool", "--demo", "incoherent")
    path = tmp_path / "inc.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path), "--samples", "300")
    assert code == 0


def test_verify_checks_the_edges_of_each_conserved_block(capsys, incoherent_file, monkeypatch):
    # blocks of 1, 3, 4, 3 and 1 positions: each block's own edges are its
    # adjacent-value swaps, and the line sums the blocks' counts
    assert sorted(map(len, block_indices(block_of_input(fileio.load_instance(incoherent_file)), 12))) == [1, 1, 3, 3, 4]
    code, out, _ = run(capsys, "verify", incoherent_file, "--samples", "200")
    assert code == 0
    assert "PASS  edge-structure: 18 edges, 18 predicted\n" in out
    swaps = polytope.av_swap_pairs
    dropped = []

    def one_pair_short(vset, eps):
        pairs = swaps(vset, eps=eps)
        if pairs and not dropped:
            dropped.append(min(pairs))
            pairs.discard(dropped[0])
        return pairs

    monkeypatch.setattr(polytope, "av_swap_pairs", one_pair_short)
    code, out, _ = run(capsys, "verify", incoherent_file, "--samples", "200")
    assert code == 4 and len(dropped) == 1
    assert "FAIL  edge-structure: 18 edges, 17 predicted\n" in out and out.endswith("FAIL: edge-structure\n")


def _drawn_instance(d):
    rng = np.random.default_rng(d)
    return {
        "eigenvalues": rng.dirichlet(np.ones(d)).tolist(),
        "target": rng.normal(size=d).tolist(),
        "cost": rng.normal(size=d).tolist(),
    }


FLAT_GOLDEN = sorted(
    path.parent.name
    for path in GENERIC.parent.parent.glob("*/instance.json")
    if "conserved" not in json.loads(path.read_text())
)


@pytest.mark.parametrize("source", FLAT_GOLDEN + [f"drawn-d{d}" for d in range(2, 10)])
def test_verify_reports_the_same_with_a_constant_conserved_vector(tmp_path, capsys, source):
    # one block is the flat polytope, and verify has one path for both; at
    # d=9 a conserved instance used to skip the envelope check (362 880
    # product vertices over a cap of 200 000) and every conserved
    # instance the edge check
    if source.startswith("drawn-d"):
        doc = _drawn_instance(int(source[len("drawn-d"):]))
    else:
        doc = json.loads((GENERIC.parent.parent / source / "instance.json").read_text())
    flat, one_block = tmp_path / "flat.json", tmp_path / "one_block.json"
    flat.write_text(json.dumps(doc))
    one_block.write_text(json.dumps(dict(doc, conserved=[1.5] * len(doc["eigenvalues"]))))
    code, out, _ = run(capsys, "verify", str(flat), "--samples", "200")
    assert code == 0 and out.endswith("OK\n")
    assert run(capsys, "verify", str(one_block), "--samples", "200") == (code, out, "")


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


def test_verify_skip_line_stays_short_with_many_blocks(tmp_path, capsys):
    # 40 blocks of 5 distinct values: 120**40 product vertices, an 84-digit
    # number, where the cap allows 9! = 362 880; the refusal stops
    # multiplying once the product passes the cap
    rng = np.random.default_rng(8)
    d = 200
    doc = {
        "eigenvalues": rng.dirichlet(np.ones(d)).tolist(),
        "target": rng.normal(size=d).tolist(),
        "cost": rng.normal(size=d).tolist(),
        "conserved": np.repeat(np.arange(40.0), 5).tolist(),
    }
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "--samples", "100")
    assert code == 0
    (line,) = [line for line in out.splitlines() if "envelope-equivalence" in line]
    assert line.startswith("SKIP  envelope-equivalence: skipped (at least ") and len(line) < 100


def test_enum_cap_env_var(tmp_path, capsys, instance_file, monkeypatch):
    monkeypatch.setenv("TRAJOPT_MAX_ENUM_DIM", "4")
    code, out, _ = run(capsys, "verify", instance_file, "--samples", "100")
    assert code == 0
    assert "skipped" in out and "envelope-equivalence" in out


@pytest.mark.parametrize("raw", ["0", "-3", "x"])
def test_enum_cap_below_one_is_a_parse_error(capsys, instance_file, monkeypatch, raw):
    # a cap below 1 skipped every enumerated check and exited 0
    monkeypatch.setenv("TRAJOPT_MAX_ENUM_DIM", raw)
    code, out, err = run(capsys, "verify", instance_file, "--samples", "100")
    assert (code, out) == (2, "")
    assert err == f"error: TRAJOPT_MAX_ENUM_DIM must be a whole number of at least 1, got {raw!r}\n"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_non_positive_samples(capsys, instance_file, samples):
    code, out, err = run(capsys, "verify", instance_file, "--samples", samples)
    assert code == 2
    assert "--samples" in err and out == ""


def test_verify_rejects_a_negative_seed(capsys, instance_file):
    # np.random.default_rng refused it with a ValueError traceback and exit 1
    code, out, err = run(capsys, "verify", instance_file, "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: --seed must be at least 0, got -1\n"


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
    proc = _child("build", path, tmp_path / "traj.json")
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


@pytest.mark.parametrize("path", [("breakpoints", 1, 3), ("initial_vertex", 2), ("metadata", "eps_pop")])
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


# The modules a child loads. `import trajopt.cli` loads only what every
# subcommand uses; each subcommand adds the modules it runs.
CLI_MODULES = {"trajopt", "trajopt.cli", "trajopt.core", "trajopt.errors", "trajopt.fileio"}
_LIST_MODULES = 'print(*sorted(m for m in sys.modules if m.split(".")[0] == "trajopt"), file=sys.stderr)'
# Runs the CLI as `python -m trajopt.cli` does, then lists the trajopt modules loaded.
_RUN_AND_LIST = f"""
import runpy, sys
try:
    runpy.run_module("trajopt.cli", run_name="__main__", alter_sys=True)
finally:
    {_LIST_MODULES}
"""


def _loaded(proc) -> set:
    return set(proc.stderr.splitlines()[-1].split())


def test_cli_import_loads_only_the_shared_modules():
    proc = _child(code=f"import sys, trajopt.cli\n{_LIST_MODULES}")
    assert proc.returncode == 0, proc.stderr
    assert _loaded(proc) == CLI_MODULES


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["build", str(GENERIC), "{tmp}/traj.json"], {"trajectory"}),
        (["build", "{inst}", "{tmp}/traj.json"], {"trajectory"}),
        (["build", "{incoherent}", "{tmp}/traj.json"], {"trajectory"}),
        (["eval", "{inst}", "--grid", "5"], {"trajectory"}),
        (["lift", "{inst}", "{tmp}/lift.json", "--alpha", "0.5"], {"trajectory", "lift"}),
        (["cool", "--demo", "working-example"], {"cooling"}),
        (["cool", "--demo", "incoherent"], {"cooling"}),
        (["verify", str(FLAT_D5), "--samples", "50"], {"trajectory", "conserved", "oracle", "polytope"}),
        (["verify", "{incoherent}", "--samples", "50"], {"trajectory", "conserved", "oracle", "polytope"}),
    ],
    ids=[
        "build-generic", "build-cooling", "build-conserved", "eval", "lift", "cool", "cool-incoherent", "verify",
        "verify-conserved",
    ],
)
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, instance_file, incoherent_file, argv, extra):
    # {inst} is a cooling instance: it has initial populations, so validate
    # checks majorization; {incoherent} has a conserved vector, which
    # `trajectory.build` reads itself, so its build loads no `conserved`, and
    # an incoherent cooling instance is a plain validated instance; `verify`
    # runs the edge-structure check on FLAT_D5 (flat, d=5) and on each block
    # of {incoherent}, one path for both, which solves no LP
    argv = [a.format(inst=instance_file, incoherent=incoherent_file, tmp=tmp_path) for a in argv]
    proc = _child(*argv, code=_RUN_AND_LIST)
    assert proc.returncode == 0, proc.stderr
    # runpy runs the cli module as __main__, not as trajopt.cli
    assert _loaded(proc) == CLI_MODULES - {"trajopt.cli"} | {f"trajopt.{m}" for m in extra}


def test_eval_grid_leaves_numpy_ma_unloaded(instance_file):
    # np.unique imports numpy.ma, which costs an `eval` child 14-16 ms and
    # its memory; the grid is deduped by np.unique's sort and mask instead
    code = _RUN_AND_LIST.replace(_LIST_MODULES, 'print("numpy.ma" in sys.modules, file=sys.stderr)')
    proc = _child("eval", instance_file, "--grid", "200", code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("alpha,omega,work\n")
    assert proc.stderr.splitlines()[-1] == "False"


def test_package_names_are_their_modules_attributes():
    assert sorted(trajopt.__all__) == sorted(trajopt._MODULE_OF)
    for name in trajopt.__all__:
        module = importlib.import_module(f"trajopt.{trajopt._MODULE_OF[name]}")
        assert getattr(trajopt, name) is getattr(module, name), name
    assert set(dir(trajopt)) >= set(trajopt.__all__)


def test_package_name_follows_a_patched_module(monkeypatch):
    from trajopt import trajectory

    patched = object()
    monkeypatch.setattr(trajectory, "build", patched)
    assert trajopt.build is patched


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        trajopt.no_such_name
    assert not hasattr(trajopt, "no_such_name")


def test_package_namespace_in_a_fresh_interpreter():
    code = """
import sys
import trajopt
assert "trajopt.cooling" not in sys.modules
assert trajopt.cooling.thermal_populations([0.0, 1.0], 0.0).tolist() == [0.5, 0.5]
from trajopt import *
assert all(globals()[name] is getattr(trajopt, name) for name in trajopt.__all__)
"""
    proc = _child(code=code)
    assert proc.returncode == 0, proc.stderr


# A cost difference whose quotient by the target difference overflows, and a
# cost difference that overflows itself: each step gradient is -inf.
_OVERFLOWS = {
    "quotient": {"eigenvalues": [0.6, 0.4], "target": [0.0, 1e-11], "cost": [1e300, 0.0]},
    "difference": {"eigenvalues": [0.6, 0.4], "target": [0.0, 1.0], "cost": [1e308, -1e308]},
}


@pytest.mark.filterwarnings("error")  # an overflow warning would be a second stderr line
@pytest.mark.parametrize("name", list(_OVERFLOWS))
@pytest.mark.parametrize("sub", ["build", "eval", "lift", "verify"])
def test_non_finite_gradient_exits_before_any_output(tmp_path, capsys, name, sub):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_OVERFLOWS[name]))
    out_file = tmp_path / "out.json"
    argv = {
        "build": ["build", path, out_file],
        "eval": ["eval", path, "--grid", "3"],
        "lift": ["lift", path, out_file, "--alpha", "0.5"],
        "verify": ["verify", path, "--samples", "10"],
    }[sub]
    code, out, err = run(capsys, *map(str, argv))
    assert code == 2 and out == ""
    assert err.startswith("error: step 0 has gradient -inf") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["instance.json"]


@pytest.mark.filterwarnings("error")
def test_eval_work_overflow_exits_before_any_row(tmp_path, capsys):
    # finite gradients, but omega - e.p0 spans 2e308 at the last vertex
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"eigenvalues": [1.0, 0.0, 0.0], "target": [0.0, 0.0, 1.0],
                                "cost": [1e308, -1e308, 0.0], "initial_populations": [1.0, 0.0, 0.0]}))
    code, out, err = run(capsys, "eval", str(path), "--grid", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: work") and err.count("\n") == 1


@pytest.mark.skipif(not (os.path.islink("/dev/stdout") and os.path.isdir("/proc/self/fd")),
                    reason="needs /dev/stdout and /proc/self/fd links")
def test_build_writes_through_a_stdout_link_to_a_file(tmp_path, capsys):
    # `trajopt build INSTANCE /dev/stdout > FILE`: the link resolves to FILE,
    # which gets the document; the link itself stays as it was. A link made
    # here goes first, so a build that replaced links fails on it before it
    # could replace /dev/stdout
    own = tmp_path / "stdout-link"
    own.symlink_to("/proc/self/fd/1")
    reference = tmp_path / "reference.json"
    assert run(capsys, "build", str(GENERIC), str(reference))[0] == 0
    env = dict(os.environ, PYTHONPATH=str(Path(trajopt.__file__).resolve().parents[1]))
    for out in (own, "/dev/fd/1", "/dev/stdout"):
        links = {link: os.readlink(link) for link in (own, "/dev/fd", "/dev/stdout")}
        with open(tmp_path / "stdout.json", "w") as stdout:
            proc = subprocess.run([sys.executable, "-m", "trajopt.cli", "build", str(GENERIC), str(out)],
                                  stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert {link: os.readlink(link) for link in links} == links, out
        assert (tmp_path / "stdout.json").read_bytes() == reference.read_bytes(), out
