"""The golden corpus: `cool`, `build`, `eval --grid 50` and `lift` bytes are frozen.

The expected files were written by tests/golden/generate.py; see its
docstring for when they may be regenerated.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from trajopt.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run(capsys, *argv) -> str:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_instance_verifies(name, capsys):
    # every oracle check passes or is skipped on the corpus; the edge test
    # (the face test on Rado's inequalities) runs on negative-zero-gradient
    # (flat, d=5) and on each block of conserved and incoherent
    code = main(["verify", str(GOLDEN / name / "instance.json"), "--samples", "500"])
    out = capsys.readouterr().out
    assert code == 0 and "FAIL" not in out, out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path, capsys):
    case = GOLDEN / name
    instance = case / "instance.json"
    if CASES[name]["cool"] is not None:
        assert run(capsys, *CASES[name]["cool"]) == instance.read_text()

    run(capsys, "build", instance, tmp_path / "build.json")
    assert (tmp_path / "build.json").read_bytes() == (case / "build.json").read_bytes()

    out = run(capsys, "eval", instance, "--grid", 50)
    assert out == (case / "eval.csv").read_text()

    run(capsys, "lift", instance, tmp_path / "lift.json", "--alpha", CASES[name]["lift_alpha"])
    assert (tmp_path / "lift.json").read_bytes() == (case / "lift.json").read_bytes()


def test_generate_check_finds_the_whole_corpus_unchanged(capsys):
    # covers what test_golden_bytes does not compare: cases.json (the lift
    # alphas) and the instance.json files the generator writes
    spec = importlib.util.spec_from_file_location("generate", GOLDEN / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    assert generate.check_corpus() == 0
    assert capsys.readouterr().out == ""
