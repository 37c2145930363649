"""Command-line interface: build, eval, lift, verify, cool.

Exit codes: 0 success, 1 I/O error, 2 parse/validation error, 3 domain
error (target value out of range), 4 verification failure.

Every subcommand builds with `trajectory.build`, flat and conserved
instances alike: the instance's conserved vector decides its blocks.

Each run is one process, so this module imports at top level only what
every subcommand uses (`core`, `errors`, `fileio`); a subcommand imports
the modules it runs (`trajectory`, `lift`, `cooling`, the oracles) where
it runs them.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import fileio
from .core import DEFAULT_MAX_ENUM_DIM, cost_value, validate
from .errors import AlphaOutOfRange, DimensionTooLarge, ParseError, TrajoptError

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

ENUM_DIM_ENV = "TRAJOPT_MAX_ENUM_DIM"


def _max_enum_dim() -> int:
    raw = os.environ.get(ENUM_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_ENUM_DIM
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{ENUM_DIM_ENV} must be an integer, got {raw!r}")


def _load(path: str, args):
    inst = fileio.load_instance(path)
    if args.eps_pop is not None:
        inst = replace(inst, eps_pop=args.eps_pop)
    if args.eps_grad is not None:
        inst = replace(inst, eps_grad=args.eps_grad)
    return validate(inst)


def cmd_build(args) -> int:
    from .trajectory import build

    inst = _load(args.instance, args)
    traj = build(inst)
    doc = fileio.trajectory_to_dict(traj)
    fileio.write_text(args.output, fileio.dumps_canonical(doc) + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.grid is not None and args.grid < 0:
        raise ParseError(f"--grid must be at least 0, got {args.grid}")
    from .trajectory import build, omega_opt

    inst = _load(args.instance, args)
    traj = build(inst)
    work_base = None
    if inst.initial_populations is not None:
        work_base = cost_value(inst.initial_populations, inst.cost)
    if args.alpha is not None:
        alphas = [args.alpha]
        omegas = [omega_opt(traj, args.alpha)]
    else:
        import numpy as np

        # the grid lies inside [alpha_min, alpha_max], so one interpolation
        # over it equals omega_opt at each point
        grid = np.linspace(traj.alpha_min, traj.alpha_max, args.grid)
        alphas = np.unique(np.concatenate([grid, traj.alphas]))
        omegas = np.interp(alphas, traj.alphas, traj.omegas)
    rows = []
    for alpha, omega in zip(alphas, omegas):
        row = [fileio.format_float(alpha), fileio.format_float(omega)]
        if work_base is not None:
            row.append(fileio.format_float(omega - work_base))
        rows.append(",".join(row))
    header = "alpha,omega,work" if work_base is not None else "alpha,omega"
    sys.stdout.write("\n".join([header] + rows) + "\n")
    return EXIT_OK


def cmd_lift(args) -> int:
    from .lift import lift_point
    from .trajectory import build

    inst = _load(args.instance, args)
    traj = build(inst)
    lifted = lift_point(traj, args.alpha)
    doc = fileio.lifted_to_dict(lifted, args.alpha)
    fileio.write_text(args.output, fileio.dumps_canonical(doc) + "\n")
    return EXIT_OK


def _verify_checks(inst, args):
    """Yield (name, passed, detail) tuples for every applicable check."""
    import numpy as np

    from . import conserved, oracle, polytope, trajectory

    traj = trajectory.build(inst)
    cap = _max_enum_dim()
    rng = np.random.default_rng(args.seed)

    grads = traj.gradients.tolist()
    convex = all(b - a >= -1e-12 for a, b in zip(grads[:-1], grads[1:]))
    yield "gradient-monotone", convex, f"{len(grads)} steps"

    vertices = None
    proj = None
    skip_reason = f"skipped (dim {inst.dim} > cap {cap})"
    if inst.conserved is None and inst.dim <= cap:
        vertices = polytope.enumerate_vertices(
            inst.eigenvalues, eps=inst.eps_pop, max_dim=cap
        )
        proj = oracle.induced_polygon(vertices, inst.target, inst.cost)
    elif inst.conserved is not None:
        try:
            ginst = conserved.from_populations(inst)
            gverts = conserved.enumerate_generalized_vertices(ginst, max_block_dim=cap)
            proj = oracle.induced_polygon(gverts, inst.target, inst.cost)
        except DimensionTooLarge as exc:
            skip_reason = f"skipped ({exc})"
    if proj is None:
        yield "envelope-equivalence", None, skip_reason
    else:
        worst = 0.0
        for alpha in rng.uniform(traj.alpha_min, traj.alpha_max, 50):
            diff = abs(
                trajectory.omega_opt(traj, float(alpha))
                - oracle.envelope_min_cost(proj, float(alpha))
            )
            worst = max(worst, diff)
        yield "envelope-equivalence", worst <= 1e-9, f"max |diff| = {worst:.3e}"

    if vertices is not None and inst.dim <= 5:
        predicted = polytope.av_swap_pairs(vertices, eps=inst.eps_pop)
        brute = polytope.edge_pairs(vertices)
        yield "edge-structure", predicted == brute, (
            f"{len(brute)} edges, {len(predicted)} predicted"
        )
    else:
        yield "edge-structure", None, "skipped (needs flat instance with dim <= 5)"

    report = oracle.monte_carlo_audit(inst, traj, n_samples=args.samples, seed=args.seed)
    yield "monte-carlo-audit", report.passed, (
        f"{report.n_samples} samples, {report.violations} violations, "
        f"min slack {report.min_slack:.3e}"
    )

    if args.trajectory is not None:
        stored = fileio.trajectory_from_dict(fileio.load_json(args.trajectory))
        fresh = fileio.trajectory_to_dict(traj)
        same = fileio.dumps_canonical(stored) == fileio.dumps_canonical(fresh)
        yield "trajectory-file-match", same, args.trajectory


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    inst = _load(args.instance, args)
    results = list(_verify_checks(inst, args))
    failed = [name for name, ok, _ in results if ok is False]
    if args.json:
        doc = {
            "instance": args.instance,
            "checks": [
                {"name": name, "status": "skip" if ok is None else ("pass" if ok else "fail"), "detail": detail}
                for name, ok, detail in results
            ],
            "passed": not failed,
        }
        sys.stdout.write(fileio.dumps_canonical(doc) + "\n")
    else:
        for name, ok, detail in results:
            status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
            sys.stdout.write(f"{status:4s}  {name}: {detail}\n")
        sys.stdout.write(("FAIL: " + ", ".join(failed) if failed else "OK") + "\n")
    return EXIT_VERIFY if failed else EXIT_OK


def _float_list(raw: str, field: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParseError(f"{field}: expected comma-separated numbers, got {raw!r}")


def cmd_cool(args) -> int:
    from . import cooling

    if args.demo is not None:
        if args.demo == "working-example":
            cool = cooling.demo_coherent_erasure()
        elif args.demo == "incoherent":
            cool = cooling.demo_incoherent_cooling()
        else:
            raise ParseError(f"unknown demo {args.demo!r}")
    else:
        if args.system_energies is None or args.machine_energies is None:
            raise ParseError("--system-energies and --machine-energies are required")
        if args.beta is None:
            raise ParseError("--beta is required")
        system = cooling.SystemSpec(
            energies=_float_list(args.system_energies, "--system-energies"),
            initial_populations=(
                _float_list(args.system_populations, "--system-populations")
                if args.system_populations is not None
                else None
            ),
        )
        machine = cooling.SystemSpec(
            energies=_float_list(args.machine_energies, "--machine-energies")
        )
        if args.bath_energies is not None:
            if args.beta_bath is None:
                raise ParseError("--beta-bath is required with --bath-energies")
            bath = cooling.SystemSpec(
                energies=_float_list(args.bath_energies, "--bath-energies")
            )
            cool = cooling.incoherent_instance(
                system, machine, bath, args.beta, args.beta_bath
            )
        else:
            cool = cooling.coherent_instance(system, machine, args.beta)
    doc = fileio.instance_to_dict(cool.problem)
    sys.stdout.write(fileio.dumps_canonical(doc) + "\n")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajopt",
        description="Minimal-cost unitary trajectories for commuting observables.",
    )
    parser.add_argument("--eps-pop", type=float, default=None, help="population tie tolerance")
    parser.add_argument("--eps-grad", type=float, default=None, help="gradient tie tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a trajectory file from an instance file")
    p.add_argument("instance")
    p.add_argument("output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="evaluate the minimal cost as CSV on stdout")
    p.add_argument("instance")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--alpha", type=float, help="single target value")
    g.add_argument("--grid", type=int, help="evenly spaced grid incl. breakpoints")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("lift", help="emit unitary and doubly-stochastic matrices")
    p.add_argument("instance")
    p.add_argument("output")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="run the brute-force oracle checks")
    p.add_argument("instance")
    p.add_argument("--samples", type=int, default=10_000, metavar="N",
                   help="random polytope vertices the Monte-Carlo audit checks (cost O(N*d); at least 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trajectory", default=None, help="trajectory file to cross-check")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cool", help="emit a cooling instance file on stdout")
    p.add_argument("--system-energies")
    p.add_argument("--system-populations")
    p.add_argument("--machine-energies")
    p.add_argument("--beta", type=float)
    p.add_argument("--bath-energies")
    p.add_argument("--beta-bath", type=float)
    p.add_argument("--demo", choices=["working-example", "incoherent"])
    p.set_defaults(func=cmd_cool)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except AlphaOutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except TrajoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
