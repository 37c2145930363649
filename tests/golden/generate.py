"""Regenerate the golden corpus: small instances and the bytes trajopt writes for them.

Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py          # rewrite the corpus
    PYTHONPATH=src python tests/golden/generate.py --check  # compare, write nothing

``--check`` regenerates the corpus in a temporary directory, prints the
path of each corpus file whose bytes would change, and exits 1 if any
would.

Each case directory holds ``instance.json`` and the outputs of
``build`` (``build.json``), ``eval --grid 50`` (``eval.csv``) and
``lift --alpha <mid>`` (``lift.json``); ``cases.json`` lists the cases, the
``cool`` arguments that print a demo instance, and the lift target value.
These bytes are the output contract that ``tests/test_golden.py`` checks.
Regenerate only for an intended change of output, and record which files
changed and why.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from trajopt.cli import main
from trajopt.fileio import format_float

HERE = Path(__file__).resolve().parent
GRID = 50


def _generic():
    rng = np.random.default_rng(11)
    d = 6
    return {
        "eigenvalues": rng.dirichlet(np.ones(d)).tolist(),
        "target": rng.normal(size=d).tolist(),
        "cost": rng.normal(size=d).tolist(),
    }


def _degenerate_eps_ties():
    """Planted ties in the spectrum, target and cost; cost nudged below eps_grad."""
    rng = np.random.default_rng(0)
    d = 7
    k = int(rng.integers(2, d + 1))
    vals = rng.uniform(0.1, 1.0, k)
    lam = vals[rng.integers(0, k, d)]
    lam = lam / lam.sum()
    a = rng.integers(0, 3, d).astype(float)
    e = rng.choice([0.0, 0.25, 1.0], d) + rng.integers(0, 2, d) * 0.5
    e = e + rng.choice([0, 1], d) * 3e-13
    return {
        "eigenvalues": lam.tolist(),
        "target": a.tolist(),
        "cost": e.tolist(),
        "eps_grad": 1e-9,
    }


def _negative_zero_gradient():
    """Cost entries -0.0 and 0.0, so one step's gradient is -0.0."""
    return {
        "eigenvalues": [0.4, 0.25, 0.2, 0.1, 0.05],
        "target": [2.0, 1.0, 3.0, 0.0, 1.0],
        "cost": [1.0, 0.0, -0.0, 1.0, -0.0],
    }


def _conserved():
    """Three conserved blocks with tied populations, target and cost."""
    rng = np.random.default_rng(16)
    d = 9
    lam = rng.choice([0.05, 0.1, 0.2, 0.3], d)
    return {
        "eigenvalues": (lam / lam.sum()).tolist(),
        "target": rng.integers(0, 3, d).astype(float).tolist(),
        "cost": rng.choice([0.0, 0.5, 1.0, 1.5], d).tolist(),
        "conserved": rng.permutation([0.0] * 4 + [1.0] * 3 + [2.0] * 2).tolist(),
    }


CASES = {
    "generic": _generic,
    "degenerate-eps-ties": _degenerate_eps_ties,
    "negative-zero-gradient": _negative_zero_gradient,
    "working-example": ["cool", "--demo", "working-example"],
    "incoherent": ["cool", "--demo", "incoherent"],
    "conserved": _conserved,
}


def run_cli(argv) -> str:
    """stdout of ``trajopt <argv>``, run in process; fails on a nonzero exit."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"trajopt {' '.join(map(str, argv))} exited {code}")
    return buf.getvalue()


def write_case(root, name, source) -> dict:
    case = root / name
    case.mkdir(exist_ok=True)
    instance = case / "instance.json"
    if isinstance(source, list):
        instance.write_text(run_cli(source))
    else:
        # json.dumps keeps -0.0 and round-trips every float exactly
        instance.write_text(json.dumps(source(), indent=1) + "\n")
    run_cli(["build", instance, case / "build.json"])
    (case / "eval.csv").write_text(run_cli(["eval", instance, "--grid", GRID]))
    alphas = json.loads((case / "build.json").read_text())["breakpoints"][0]
    alpha = format_float((alphas[0] + alphas[-1]) / 2)
    run_cli(["lift", instance, case / "lift.json", "--alpha", alpha])
    return {"cool": source if isinstance(source, list) else None, "lift_alpha": alpha}


def write_corpus(root) -> None:
    manifest = {name: write_case(root, name, source) for name, source in CASES.items()}
    (root / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


def check_corpus() -> int:
    """Print each corpus file that regeneration would change; 1 if any."""
    changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        write_corpus(fresh)
        for path in sorted(p for p in fresh.rglob("*") if p.is_file()):
            disk = HERE / path.relative_to(fresh)
            if not disk.is_file() or disk.read_bytes() != path.read_bytes():
                print(disk.relative_to(HERE.parents[1]))
                changed += 1
    return 1 if changed else 0


def main_generate(argv) -> int:
    if argv == ["--check"]:
        return check_corpus()
    if argv:
        print("usage: generate.py [--check]", file=sys.stderr)
        return 2
    write_corpus(HERE)
    return 0


if __name__ == "__main__":
    sys.exit(main_generate(sys.argv[1:]))
