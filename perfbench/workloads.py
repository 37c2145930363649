"""The four workloads: instance shapes, one job each, and the job's output check.

Every workload fixes the shape of its instances (dimension, tie pattern,
ladder sizes); the seed only draws values, so every job does similar work.
A workload object offers

* ``make_pool(seed)``: the job inputs of one run, the same for the same seed;
* ``run(job)``: the work that is timed;
* ``check(job, out)``: ``(failed check names, trajectory steps)``, untimed.

Calls into trajopt go through module attributes (``trajectory.build``), so
a traced run sees them at the names ``tracing.install`` wraps.
"""

from __future__ import annotations

import io
import os
import resource
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from trajopt import cli, conserved, cooling, core, fileio, oracle, polytope, trajectory

import checks
import reference

POOL = 16  # distinct job inputs per run; jobs cycle through them
CHILD_TIMEOUT_S = 150.0
RSS_MARK = "perfbench-peak-rss-kb "
# Runs `python -m trajopt.cli` and then prints the child's own peak RSS
# (VmHWM of the address space exec gave it) to stderr. Neither wait4 nor
# RUSAGE_CHILDREN can give it: Linux carries the parent's high-water mark
# into the child across fork and exec, so every child would read at least
# the benchmark's own peak.
CLI_CHILD = f"""\
import runpy, sys
sys.argv[0] = "trajopt"
try:
    runpy.run_module("trajopt.cli", run_name="__main__", alter_sys=True)
finally:
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM:"):
            sys.stderr.write("\\n{RSS_MARK}" + line.split()[1] + "\\n")
"""
# Cost levels of a degenerate instance: {0, 0.25, 1} plus {0, 0.5}, as the
# test suite's random degenerate instances draw them.
COST_LEVELS = np.array([0.0, 0.25, 1.0, 0.5, 0.75, 1.5])


def spawn(argv: list, env: dict, cwd, stdout_path=None, stderr_path=None) -> int:
    """Run a child to completion and return its exit code.

    The wait blocks until the child exits; ``Popen.wait(timeout=...)`` would
    poll in sleeps of up to 50 ms and round every child's time up to them.
    A timer kills a child that runs past CHILD_TIMEOUT_S.
    """
    with open(stdout_path or os.devnull, "wb") as out, open(stderr_path or os.devnull, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()
        timer.join()


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def generic_instance(rng, d: int) -> core.ProblemInstance:
    """Dirichlet spectrum, normal target and cost: no ties, d(d-1)/2 steps."""
    return core.ProblemInstance(
        eigenvalues=rng.dirichlet(np.ones(d)), target=rng.normal(size=d), cost=rng.normal(size=d)
    )


def _layout(d: int):
    """Generator for a tie pattern that depends on the dimension only, not the seed."""
    return np.random.default_rng(d)


def degenerate_instance(rng, d: int, n_values: int) -> core.ProblemInstance:
    """Ties planted in spectrum, target and cost with a fixed pattern.

    n_values distinct populations fill the d entries in equal shares, the
    target takes 0, 1, 2 and the cost the six COST_LEVELS in equal shares.
    Where each value sits, and the order of the populations, are the same
    for every seed, so is the trajectory's step sequence; the seed draws
    the populations' magnitudes.
    """
    layout = _layout(d)
    labels = layout.permutation(np.arange(d) % n_values)
    a = layout.permutation(np.arange(d) % 3).astype(float)
    e = COST_LEVELS[layout.permutation(np.arange(d) % len(COST_LEVELS))]
    vals = np.sort(rng.uniform(0.1, 1.0, n_values))[::-1]
    lam = vals[labels]
    return core.ProblemInstance(eigenvalues=lam / lam.sum(), target=a, cost=e)


def conserved_instance(rng, d: int, n_blocks: int) -> core.ProblemInstance:
    """Generic instance plus a conserved vector with n_blocks equal blocks in a fixed layout."""
    inst = generic_instance(rng, d)
    c = _layout(d).permutation(np.arange(d) % n_blocks).astype(float)
    return core.ProblemInstance(
        eigenvalues=inst.eigenvalues, target=inst.target, cost=inst.cost, conserved=c
    )


def _gradients(traj) -> np.ndarray:
    return np.array([s.gradient for s in traj.steps], dtype=float)


def _omega_grid(traj, n: int):
    grid = np.linspace(traj.alpha_min, traj.alpha_max, n)
    return grid, np.array([trajectory.omega_opt(traj, float(x)) for x in grid])


class Workload:
    name = ""

    def __init__(self, smoke: bool = False, tracer=None):
        self.tracer = tracer

    def make_pool(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [self.make_job(rng) for _ in range(POOL)]

    def make_job(self, rng):
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    def reference(self) -> float:
        """Seconds of one reference pass, run the way this workload's jobs run."""
        return reference.reference_s()

    def _tag(self, tag) -> None:
        if self.tracer is not None:
            self.tracer.tag = tag


class Flat(Workload):
    """validate -> build -> omega_opt grid, one generic and one degenerate instance."""

    name = "flat"

    def __init__(self, smoke: bool = False, tracer=None):
        super().__init__(smoke, tracer)
        self.d_generic, self.d_degenerate, self.n_values, self.grid = (
            (12, 16, 4, 50) if smoke else (128, 256, 32, 1000)
        )

    def make_job(self, rng):
        return (
            ("generic", generic_instance(rng, self.d_generic)),
            ("degenerate", degenerate_instance(rng, self.d_degenerate, self.n_values)),
        )

    def run(self, job):
        out = []
        for kind, raw in job:
            self._tag(kind)
            traj = trajectory.build(core.validate(raw))
            out.append((traj, *_omega_grid(traj, self.grid)))
        self._tag(None)
        return out

    def check(self, job, out):
        fails, steps = [], 0
        for (kind, raw), (traj, grid, omegas) in zip(job, out):
            d = len(raw.eigenvalues)
            found = checks.trajectory_failures(
                checks.flat_blocks(raw.eigenvalues), raw.target, raw.cost,
                traj.breakpoints, _gradients(traj),
            ) + checks.grid_failures(grid, omegas, traj.breakpoints)
            if kind == "generic" and len(traj.steps) != d * (d - 1) // 2:
                found.append("step-count")
            fails += [f"{kind}:{name}" for name in found]
            steps += len(traj.steps)
        return fails, steps


class IncoherentLadder(Workload):
    """incoherent_instance -> build_generalized -> omega_opt grid on a 2 x L x L ladder."""

    name = "incoherent-ladder"

    def __init__(self, smoke: bool = False, tracer=None):
        super().__init__(smoke, tracer)
        self.levels, self.grid = (4, 50) if smoke else (16, 1000)

    def make_job(self, rng):
        # A bath hotter than the machine fixes the population order inside
        # every energy shell, hence the step count; only the values move.
        return float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 0.4))

    def _specs(self):
        ladder = np.arange(self.levels, dtype=float)
        return cooling.SystemSpec((0.0, 1.0)), cooling.SystemSpec(ladder), cooling.SystemSpec(ladder)

    def run(self, job):
        beta_machine, beta_bath = job
        system, machine, bath = self._specs()
        cool = cooling.incoherent_instance(system, machine, bath, beta_machine, beta_bath)
        traj = conserved.build_generalized(cool.generalized)
        return (cool, traj, *_omega_grid(traj, self.grid))

    def check(self, job, out):
        cool, traj, grid, omegas = out
        beta_machine, beta_bath = job
        system, machine, bath = self._specs()
        gibbs = [np.exp(-b * s.energies) / np.exp(-b * s.energies).sum()
                 for s, b in ((system, beta_machine), (machine, beta_machine), (bath, beta_bath))]
        lam = np.kron(np.kron(gibbs[0], gibbs[1]), gibbs[2])
        shells = (system.energies[:, None, None] + machine.energies[None, :, None]
                  + bath.energies[None, None, :]).ravel()
        problem = cool.problem
        fails = []
        if np.abs(np.asarray(problem.eigenvalues) - lam).max() > checks.REL_TOL:
            fails.append("instance-populations")
        blocks = checks.shell_blocks(lam, shells)
        if len(blocks) != 2 * self.levels:
            fails.append("shell-count")
        fails += checks.trajectory_failures(
            blocks, problem.target, problem.cost, traj.breakpoints, _gradients(traj)
        )
        fails += checks.grid_failures(grid, omegas, traj.breakpoints)
        return fails, len(traj.steps)


class VerifySmall(Workload):
    """The checks `trajopt verify` runs, over a fixed mix of small instances."""

    name = "verify-small"
    # (kind, dim): flat generic, flat degenerate, conserved with two blocks.
    MIX = (
        ("generic", 4), ("generic", 5), ("generic", 6), ("generic", 7),
        ("degenerate", 5), ("degenerate", 8), ("conserved", 6), ("conserved", 8),
    )
    SMOKE_MIX = (("generic", 4), ("degenerate", 5), ("conserved", 4))
    ENUM_CAP = 9
    EDGE_DIM = 5
    N_ALPHAS = 50

    def __init__(self, smoke: bool = False, tracer=None):
        super().__init__(smoke, tracer)
        self.mix = self.SMOKE_MIX if smoke else self.MIX
        self.samples = 100 if smoke else 1000

    def make_job(self, rng):
        job = []
        for kind, d in self.mix:
            if kind == "generic":
                raw = generic_instance(rng, d)
            elif kind == "degenerate":
                raw = degenerate_instance(rng, d, max(2, d // 2))
            else:
                raw = conserved_instance(rng, d, 2)
            job.append((kind, raw, int(rng.integers(2**31))))
        return job

    def run(self, job):
        out = [self._verify(kind, raw, seed) for kind, raw, seed in job]
        self._tag(None)
        return out

    def _verify(self, kind, raw, seed):
        self._tag(kind)
        inst = core.validate(raw)
        if inst.conserved is None:
            ginst = None
            traj = trajectory.build(inst)
            verts = polytope.enumerate_vertices(inst.eigenvalues, eps=inst.eps_pop, max_dim=self.ENUM_CAP)
        else:
            ginst = conserved.from_populations(inst)
            traj = conserved.build_generalized(ginst)
            verts = conserved.enumerate_generalized_vertices(ginst, max_block_dim=self.ENUM_CAP)
        poly = oracle.induced_polygon(verts, inst.target, inst.cost)
        alphas = np.random.default_rng(seed).uniform(traj.alpha_min, traj.alpha_max, self.N_ALPHAS)
        worst = max(
            abs(trajectory.omega_opt(traj, float(x)) - oracle.envelope_min_cost(poly, float(x)))
            for x in alphas
        )
        edges_ok = None
        if ginst is None and inst.dim <= self.EDGE_DIM:
            edges_ok = polytope.av_swap_pairs(verts, eps=inst.eps_pop) == polytope.edge_pairs(verts)
        audit = oracle.monte_carlo_audit(
            ginst if ginst is not None else inst, traj, n_samples=self.samples, seed=seed
        )
        return traj, worst, edges_ok, audit.passed

    def check(self, job, out):
        fails, steps = [], 0
        for i, ((kind, raw, _), (traj, worst, edges_ok, audit_ok)) in enumerate(zip(job, out)):
            if raw.conserved is None:
                blocks = checks.flat_blocks(raw.eigenvalues)
            else:
                blocks = checks.shell_blocks(raw.eigenvalues, raw.conserved)
            found = checks.trajectory_failures(blocks, raw.target, raw.cost, traj.breakpoints, _gradients(traj))
            if not worst <= 1e-9:
                found.append("envelope-equivalence")
            if edges_ok is False:
                found.append("edge-structure")
            if not audit_ok:
                found.append("monte-carlo-audit")
            fails += [f"{kind}{i}:{name}" for name in found]
            steps += len(traj.steps)
        return fails, steps


class JobError(Exception):
    """A subcommand of a CLI job exited with a non-zero code."""


class CoolingCli(Workload):
    """trajopt cool -> build -> eval --grid -> lift --alpha <mid>, one call each.

    Children run trajopt.cli as ``python -m`` would (see CLI_CHILD), from the
    checkout's ``src``.
    With ``in_process`` set (the traced run) the same argv goes to
    ``trajopt.cli.main`` in this process instead.
    """

    name = "cooling-cli"
    SUBCOMMANDS = ("cool", "build", "eval", "lift")
    SYSTEM_ENERGIES = (0.0, 0.3)
    SYSTEM_POPULATIONS = (0.5, 0.5)
    BETA = 1.0

    def __init__(self, smoke: bool = False, tracer=None, workdir=None, env=None):
        super().__init__(smoke, tracer)
        self.levels, self.grid = (4, 20) if smoke else (64, 200)
        self.workdir = Path(workdir)
        self.env = env
        self.in_process = False
        self.child_rss = {sub: 0.0 for sub in self.SUBCOMMANDS}

    def make_job(self, rng):
        machine = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, self.levels - 1))])
        return ",".join(repr(float(x)) for x in machine)

    def peak_rss_mb(self) -> float:
        return max(self.child_rss.values())

    def reference(self) -> float:
        """A reference pass in a fresh interpreter, as each subcommand runs."""
        if self.in_process:
            return reference.reference_s()
        t0 = perf_counter()
        code = spawn([sys.executable, reference.__file__], self.env, self.workdir)
        if code != 0:
            raise RuntimeError(f"reference child exited with code {code}")
        return perf_counter() - t0

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def _call(self, argv: list, stdout_name=None) -> None:
        sub = argv[0]
        if self.in_process:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            if stdout_name is not None:
                with open(self._path(stdout_name), "w", encoding="utf-8") as fh:
                    fh.write(buf.getvalue())
        else:
            err = self._path("stderr.txt")
            code = spawn([sys.executable, "-c", CLI_CHILD, *argv], self.env, self.workdir,
                         stdout_path=None if stdout_name is None else self._path(stdout_name),
                         stderr_path=err)
            with open(err, encoding="utf-8", errors="replace") as fh:
                marks = [ln for ln in fh.read().splitlines() if ln.startswith(RSS_MARK)]
            if marks:
                rss = int(marks[-1][len(RSS_MARK):]) / 1024.0
                self.child_rss[sub] = max(self.child_rss[sub], rss)
        if code != 0:
            raise JobError(f"trajopt {sub} exited with code {code}")

    def run(self, machine_energies):
        inst, traj_file, lift_file = (self._path(n) for n in ("instance.json", "trajectory.json", "lift.json"))
        self._call(["cool", "--system-energies", ",".join(map(repr, self.SYSTEM_ENERGIES)),
                    "--system-populations", ",".join(map(repr, self.SYSTEM_POPULATIONS)),
                    "--machine-energies", machine_energies, "--beta", repr(self.BETA)],
                   "instance.json")
        self._call(["build", inst, traj_file])
        self._call(["eval", inst, "--grid", str(self.grid)], "eval.csv")
        with open(self._path("eval.csv"), encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        alpha = 0.5 * (float(lines[1].split(",")[0]) + float(lines[-1].split(",")[0]))
        self._call(["lift", inst, lift_file, "--alpha", repr(alpha)])
        return alpha

    def check(self, machine_energies, alpha):
        machine = np.array([float(x) for x in machine_energies.split(",")])
        gibbs = np.exp(-self.BETA * machine) / np.exp(-self.BETA * machine).sum()
        lam = np.kron(self.SYSTEM_POPULATIONS, gibbs)
        target = np.kron([1.0, 0.0], np.ones(len(machine)))
        cost = (np.asarray(self.SYSTEM_ENERGIES)[:, None] + machine[None, :]).ravel()
        inst = core.validate(fileio.load_instance(self._path("instance.json")))
        doc = fileio.load_json(self._path("trajectory.json"))
        fileio.trajectory_from_dict(doc)
        traj = fileio.trajectory_to_runtime(doc)
        fails = []
        if inst.dim != len(lam) or any(
            np.abs(np.asarray(got) - want).max() > checks.REL_TOL
            for got, want in ((inst.eigenvalues, lam), (inst.initial_populations, lam),
                              (inst.target, target), (inst.cost, cost))
        ):
            return ["instance-values"], 0
        fails += checks.trajectory_failures(
            checks.flat_blocks(lam), target, cost, traj.breakpoints, _gradients(traj)
        )
        with open(self._path("eval.csv"), encoding="utf-8") as fh:
            fails += checks.eval_csv_failures(fh.read(), traj.breakpoints, float(cost @ lam))
        state, _, _ = trajectory.state_at(traj, alpha)
        fails += checks.lift_failures(fileio.load_json(self._path("lift.json")), alpha, state)
        return fails, len(traj.steps)


WORKLOADS = {cls.name: cls for cls in (Flat, CoolingCli, IncoherentLadder, VerifySmall)}
