"""trajopt benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload flat --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports trajopt from its
``src/``. Set-up (a fresh interpreter importing trajopt, the run's job
inputs, one warm-up job) is done SETUP_ROUNDS times and its median reported
as ``setup_s``. Jobs then run back to back for ``--seconds``; the next starts
when the previous one ends. Every job's output is checked after its timer
stops, and a job with an exception, a non-zero exit code or a failed check
counts as failed.

Job times are reported in ``ref``: multiples of the time of a reference pass
(reference.py, no trajopt code) run before and after each job, in process or,
for the CLI workload, as a child like the job's own. The host's speed drifts
between regimes up to 2x apart, so seconds differ between runs of the same
code by more than any useful bound; the ratio cancels most of the drift.
Wall-clock seconds are printed beside them.

With ``--trace 0`` the last line carries the end-to-end metrics. With
``--trace 1`` every other job runs under a tracer (see tracing.py), the last
line carries the per-layer metrics, and ``trace.overhead_s`` is the traced
minus the untraced median job time of that run. Lines before the last give
the machine record, each metric with its unit, the tail percentile, and the
error rate; a copy of the result, and the spans of a traced run, go to
``.bench_build/perfbench/``. ``--smoke`` shrinks every instance for tests.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child: one BLAS thread (at
# most nproc) keeps `lift`'s dense products from competing with the caller.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import namedtuple  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_ROUNDS = 3
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile
TAIL_MIN_PCT = 90.0  # below this the "tail" would sit near the median
STARTUP_PROBES = 3

Job = namedtuple("Job", "seconds failures steps traced")


def tail_time(times: list) -> tuple:
    """(time, percentile, jobs beyond) at the highest percentile with TAIL_BEYOND jobs beyond.

    A run too short for that percentile to reach TAIL_MIN_PCT (fewer than
    100 jobs) reports its p90 instead, interpolated between the jobs around
    it, with the jobs beyond it counted. The slowest job alone would swing
    with a single stall of the host.
    """
    s = sorted(times)
    idx = len(s) - TAIL_BEYOND - 1
    if idx >= 0 and 100.0 * (idx + 1) / len(s) >= TAIL_MIN_PCT:
        return s[idx], 100.0 * (idx + 1) / len(s), len(s) - 1 - idx
    if len(s) == 1:
        return s[0], 100.0, 0
    p90 = statistics.quantiles(s, n=10, method="inclusive")[-1]
    return p90, TAIL_MIN_PCT, sum(1 for t in s if t > p90)


def relative(jobs: list, refs: list) -> list:
    """Each job's time in ref: its seconds over the mean of the references around it."""
    return [j.seconds / (0.5 * (a + b)) for j, a, b in zip(jobs, refs, refs[1:])]


def machine_record() -> dict:
    import numpy as np

    cpu = next((ln.split(":", 1)[1].strip() for ln in _read_lines("/proc/cpuinfo")
                if ln.startswith("model name")), platform.processor())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
    }


def _read_lines(path: str) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError:
        return []


def _steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over CPUs (from /proc/stat)."""
    fields = next((ln.split() for ln in _read_lines("/proc/stat") if ln.startswith("cpu ")), [])
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    libs = {ln.split()[-1] for ln in _read_lines("/proc/self/maps") if "openblas" in ln.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_job(wl, job, tracer=None, job_id=None) -> Job:
    """Run one job under the timer, then check its output."""
    import tracing

    with tracing.installed(tracer) if tracer else nullcontext():
        if tracer:
            tracer.job = job_id
            sid = tracer.open("job", "bench")
        t0 = perf_counter()
        try:
            out, fails = wl.run(job), []
        except Exception as exc:  # a failed job is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            out, fails = None, [f"exception: {type(exc).__name__}: {exc}"]
        seconds = perf_counter() - t0
        if tracer:
            tracer.close(sid)
        steps = 0
        if not fails:
            if tracer:
                sid = tracer.open("check", "bench")
            try:
                fails, steps = wl.check(job, out)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                fails = [f"check raised {type(exc).__name__}: {exc}"]
            if tracer:
                tracer.close(sid)
    if fails:
        print(f"job {job_id} failed: {'; '.join(fails[:5])}", file=sys.stderr)
    return Job(seconds, fails, steps, tracer is not None)


def set_up(wl, seed: int, env: dict):
    """One set-up: fresh-interpreter import, job inputs, one warm-up job."""
    import workloads

    t0 = perf_counter()
    code = workloads.spawn([sys.executable, "-c", "import trajopt.cli"], env, ROOT)
    if code != 0:
        raise RuntimeError(f"importing trajopt in a child exited with code {code}")
    pool = wl.make_pool(seed)
    prep = perf_counter() - t0
    warm = run_job(wl, pool[0], job_id="warm-up")
    return prep + warm.seconds, pool, warm


def measure(wl, pool: list, seconds: float, tracer=None) -> tuple:
    """Closed loop for `seconds`, a reference pass before and after each job.

    With a tracer, every other job is traced. Returns the jobs and the
    len(jobs) + 1 reference times.
    """
    jobs, refs = [], [wl.reference()]
    t0 = perf_counter()
    while not jobs or perf_counter() - t0 < seconds:
        i = len(jobs)
        traced = tracer if tracer is not None and i % 2 == 0 else None
        jobs.append(run_job(wl, pool[(i + 1) % len(pool)], traced, i))
        refs.append(wl.reference())
    return jobs, refs


def end_to_end(setups: list, jobs: list, refs: list, wl) -> tuple:
    """Gated metrics, and the same job figures in wall-clock seconds for the record."""
    rel = relative(jobs, refs)
    steps = sum(j.steps for j in jobs)
    tail, pct, beyond = tail_time(rel)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_ref": (statistics.median(rel), "ref"),
        "job_tail_ref": (tail, "ref"),
        "steps_per_ref": (steps / sum(rel), "1/ref"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    times = [j.seconds for j in jobs]
    wall = {
        "ref_p50_s": (statistics.median(refs), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_time(times)[0], "s"),
        "steps_per_s": (steps / sum(times), "1/s"),
    }
    note = {"job_tail_ref": f"p{pct:.1f} of {len(rel)} jobs, {beyond} beyond",
            "setup_s": f"median of {len(setups)} set-ups"}
    return metrics, wall, note


def cli_probe(wl, env: dict) -> dict:
    """CLI numbers only children give: start-up time, and peak RSS per
    subcommand as the warm-up job's children left it."""
    import workloads

    startup = []
    for _ in range(STARTUP_PROBES):
        t0 = perf_counter()
        workloads.spawn([sys.executable, "-c", "import trajopt.cli"], env, ROOT)
        startup.append(perf_counter() - t0)
    probe = {"cli.startup_s": statistics.median(startup)}
    probe.update((f"cli.child_rss_mb.{sub}", rss) for sub, rss in wl.child_rss.items())
    return probe


def per_layer(tracer, jobs: list, refs: list, probe: dict) -> tuple:
    """Per-layer metrics; CLI probe values read 0 on workloads without children."""
    import tracing
    import workloads

    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.startup_s"] = (probe.get("cli.startup_s", 0.0), "s")
    for sub in workloads.CoolingCli.SUBCOMMANDS:
        metrics[f"cli.child_rss_mb.{sub}"] = (probe.get(f"cli.child_rss_mb.{sub}", 0.0), "MB")
    traced = [j.seconds for j in jobs if j.traced]
    plain = [j.seconds for j in jobs if not j.traced] or traced
    rel = relative(jobs, refs)
    rel_traced = [r for r, j in zip(rel, jobs) if j.traced]
    rel_plain = [r for r, j in zip(rel, jobs) if not j.traced] or rel_traced
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(rel_traced) / statistics.median(rel_plain) - 1.0, "ratio")
    metrics["trace.jobs"] = (len(traced), "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics, {"trace.overhead_s": f"traced p50 of {len(traced)} minus untraced p50 of {len(plain)}",
                     "trace.overhead_ratio": "traced over untraced p50 in ref, minus one"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "trajopt" / "__init__.py").is_file():
        print(f"error: no trajopt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    load_before, steal_before = os.getloadavg(), _steal_s()
    machine = machine_record()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    cls = workloads.WORKLOADS[args.workload]
    wl = (cls(args.smoke, tracer, workdir=workdir, env=env) if cls is workloads.CoolingCli
          else cls(args.smoke, tracer))
    try:
        rounds = [set_up(wl, args.seed, env) for _ in range(1 if args.trace else SETUP_ROUNDS)]
        pool = rounds[0][1]
        warm = [r[2] for r in rounds]
        probe = {}
        if args.trace and isinstance(wl, workloads.CoolingCli):
            probe = cli_probe(wl, env)
            wl.in_process = True  # traced and untraced jobs alike call cli.main
        jobs, refs = measure(wl, pool, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = {}
    if args.trace:
        metrics, notes = per_layer(tracer, jobs, refs, probe)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        notes["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, wall, notes = end_to_end([r[0] for r in rounds], jobs, refs, wl)
    attempted = warm + jobs
    failed = sum(1 for j in attempted if j.failures)
    machine["loadavg_before"] = load_before
    machine["loadavg_after"] = os.getloadavg()
    machine["cpu_steal_s"] = round(_steal_s() - steal_before, 2)

    print("machine " + json.dumps(machine))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
          + (" smoke" if args.smoke else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    for name, (value, unit) in wall.items():
        print(f"wall.{name} {value:.6g} {unit}  (wall clock; not in the result)")
    print(f"error_rate {failed / len(attempted):.6g} ratio  ({failed} failed of {len(attempted)} jobs)")
    if "spans" in notes:
        print(f"spans written to {notes['spans']}")
    result = {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, machine=machine, notes=notes,
                  error_rate=failed / len(attempted), job_seconds=[j.seconds for j in jobs],
                  reference_seconds=refs, wall={k: v for k, (v, _) in wall.items()})
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
