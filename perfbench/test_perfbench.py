"""Tests of the benchmark itself; not part of the package's test suite.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from trajopt import fileio, trajectory  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# incoherent-ladder is not gated, but still runs by name.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["incoherent-ladder"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in spec:
        assert any(ln.startswith(f"{m['name']} ") and f" {m['unit']}" in ln for ln in lines[:-1])
    assert any(ln.startswith("error_rate ") for ln in lines)
    assert any(ln.startswith("machine ") for ln in lines)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "flat", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrupted_trajectory_raises_error_rate(monkeypatch, capsys):
    real_build = trajectory.build

    def corrupted_build(inst):
        traj = real_build(inst)
        bp = traj.breakpoints.copy()
        bp[len(bp) // 2, 1] += 1e-3
        return dataclasses.replace(traj, breakpoints=bp)

    monkeypatch.setattr(trajectory, "build", corrupted_build)
    assert run.main(["--workload", "flat", "--seed", "1", "--seconds", "0.2", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_cli_check_catches_a_tampered_trajectory_file(tmp_path):
    wl = workloads.CoolingCli(True, workdir=tmp_path)
    wl.in_process = True
    job = wl.make_pool(2)[0]
    alpha = wl.run(job)
    fails, steps = wl.check(job, alpha)
    assert fails == [] and steps > 0
    doc = json.loads((tmp_path / "trajectory.json").read_text())
    doc["breakpoints"][1][1] += 1e-3
    (tmp_path / "trajectory.json").write_text(json.dumps(doc))
    fails, _ = wl.check(job, alpha)
    assert "support-touch-end" in fails and "eval-omega" in fails


def test_checks_reject_tampered_cli_outputs():
    bp = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.75]])
    good = "alpha,omega,work\n0,1,0.5\n0.25,0.75,0.25\n0.5,0.5,0\n1,0.75,0.25\n"
    assert checks.eval_csv_failures(good, bp, 0.5) == []
    assert "eval-omega" in checks.eval_csv_failures(good.replace("0.25,0.75,0.25", "0.25,0.7,0.2"), bp, 0.5)
    assert "eval-breakpoints" in checks.eval_csv_failures(good.replace("0.5,0.5,0\n", ""), bp, 0.5)

    theta = 0.3
    u = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    doc = {"alpha": 0.1, "unitary": u.tolist(), "doubly_stochastic": (u**2).tolist(),
           "density_diagonal": [0.6, 0.4]}
    assert checks.lift_failures(doc, 0.1, np.array([0.6, 0.4])) == []
    skewed = dict(doc, unitary=(1.01 * u).tolist())
    assert "lift-orthogonal" in checks.lift_failures(skewed, 0.1, np.array([0.6, 0.4]))


def test_envelope_check_is_exact_and_catches_a_wrong_step():
    raw = workloads.degenerate_instance(np.random.default_rng(5), 24, 6)
    traj = trajectory.build(raw)
    blocks = checks.flat_blocks(raw.eigenvalues)
    grads = np.array([s.gradient for s in traj.steps])
    assert checks.trajectory_failures(blocks, raw.target, raw.cost, traj.breakpoints, grads) == []
    swapped = grads.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]
    assert checks.trajectory_failures(blocks, raw.target, raw.cost, traj.breakpoints, swapped)


def test_spans_nest_and_layer_self_time_fits_in_the_job():
    tracer = tracing.Tracer()
    for i, wl in enumerate((workloads.Flat(True, tracer), workloads.VerifySmall(True, tracer))):
        pool = wl.make_pool(7)
        job = run.run_job(wl, pool[0], tracer, i)
        assert not job.failures
    spans = tracer.spans
    assert trajectory.build is not None and not hasattr(trajectory.build, "__wrapped__")
    own = tracing.self_times(spans)
    assert np.all(own >= -1e-12)
    for rec in spans:
        if rec[tracing.PARENT] is not None:
            parent = spans[rec[tracing.PARENT]]
            assert parent[tracing.START] <= rec[tracing.START] <= rec[tracing.END] <= parent[tracing.END]
            assert parent[tracing.JOB] == rec[tracing.JOB]
    for root_id, root in enumerate(spans):
        if root[tracing.NAME] != "job":
            continue
        inside = [i for i, rec in enumerate(spans) if rec[tracing.JOB] == root[tracing.JOB]
                  and rec[tracing.LAYER] != "bench" and _under(spans, i, root_id)]
        assert inside
        assert sum(own[i] for i in inside) <= root[tracing.END] - root[tracing.START]
    names = {rec[tracing.NAME] for rec in spans}
    assert {"trajectory.build", "core.validate", "oracle.monte_carlo_audit", "simplex.solve_lp"} <= names


def _under(spans, i, root_id):
    parent = spans[i][tracing.PARENT]
    while parent is not None and parent != root_id:
        parent = spans[parent][tracing.PARENT]
    return parent == root_id


def test_recursive_function_records_its_outermost_call_only():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        fileio.dumps_canonical({"a": [1.0, {"b": [2.0, 3.0]}]})
    assert [rec[tracing.NAME] for rec in tracer.spans] == ["fileio.dumps_canonical"]
    assert tracer.spans[0][tracing.DATA]["bytes"] > 0
    assert not hasattr(fileio.dumps_canonical, "__wrapped__")


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    assert run.tail_time(list(range(1, 101))) == (90, 90.0, 10)
    assert run.tail_time(list(range(1, 201))) == (190, 95.0, 10)
    # Too few jobs for a p90 with ten beyond: the interpolated p90.
    assert run.tail_time(list(range(1, 21))) == (pytest.approx(18.1), 90.0, 2)
    assert run.tail_time([3.0, 1.0, 2.0]) == (pytest.approx(2.8), 90.0, 1)
    assert run.tail_time([2.0]) == (2.0, 100.0, 0)


def test_job_times_are_relative_to_the_references_around_them():
    jobs = [run.Job(2.0, [], 1, False), run.Job(3.0, [], 1, False)]
    assert run.relative(jobs, [1.0, 3.0, 1.0]) == [1.0, 1.5]


def test_instances_keep_their_shape_across_seeds():
    def steps(wl, seed):
        job = wl.make_pool(seed)[0]
        return wl.check(job, wl.run(job))

    for wl in (workloads.Flat(True), workloads.VerifySmall(True), workloads.IncoherentLadder(True)):
        (fails1, steps1), (fails2, steps2) = steps(wl, 1), steps(wl, 2)
        assert fails1 == fails2 == [] and steps1 == steps2 > 0
    a, b = (workloads.degenerate_instance(np.random.default_rng(seed), 24, 6) for seed in (1, 2))
    assert np.array_equal(a.target, b.target) and np.array_equal(a.cost, b.cost)
    assert np.array_equal(np.argsort(a.eigenvalues, kind="stable"), np.argsort(b.eigenvalues, kind="stable"))
    assert not np.array_equal(a.eigenvalues, b.eigenvalues)
