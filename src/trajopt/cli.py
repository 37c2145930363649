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
import math
import os
import sys
from dataclasses import replace

from . import fileio
from .core import DEFAULT_MAX_ENUM_DIM, block_indices, block_of_input, cost_value, validate
from .errors import AlphaOutOfRange, DimensionTooLarge, NonFiniteValue, ParseError, TrajoptError

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
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ParseError(f"{ENUM_DIM_ENV} must be a whole number of at least 1, got {raw!r}")
    return int(raw)


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
    fileio.write_canonical(args.output, fileio.trajectory_to_dict(traj))
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.grid is not None and args.grid < 0:
        raise ParseError(f"--grid must be at least 0, got {args.grid}")
    import numpy as np

    from .trajectory import build, omega_opt

    inst = _load(args.instance, args)
    traj = build(inst)
    if args.alpha is not None:
        alphas = np.array([args.alpha])
        omegas = np.array([omega_opt(traj, args.alpha)])
    else:
        # the grid lies inside [alpha_min, alpha_max], so one interpolation
        # over it equals omega_opt at each point
        alphas = np.concatenate([np.linspace(traj.alpha_min, traj.alpha_max, args.grid), traj.alphas])
        # np.unique's sort and mask, without its import of numpy.ma
        alphas.sort()
        alphas = alphas[np.concatenate(([True], alphas[1:] != alphas[:-1]))]
        omegas = np.interp(alphas, traj.alphas, traj.omegas)
    columns = [alphas, omegas]
    header = "alpha,omega"
    if inst.initial_populations is not None:
        # the only column that can overflow, refused before any row is written
        with np.errstate(over="ignore"):
            work = omegas - cost_value(inst.initial_populations, inst.cost)
        if not np.all(np.isfinite(work)):
            raise NonFiniteValue("work (omega minus the initial cost) overflows float64; rescale the cost")
        columns.append(work)
        header += ",work"
    out = sys.stdout
    out.write(header + "\n")
    # a memoryview's items are Python floats, made one row at a time
    for row in zip(*map(memoryview, columns)):
        out.write(",".join(map(fileio.format_float, row)) + "\n")
    return EXIT_OK


def cmd_lift(args) -> int:
    from .lift import lift_point
    from .trajectory import build

    inst = _load(args.instance, args)
    traj = build(inst)
    lifted = lift_point(traj, args.alpha)
    fileio.write_canonical(args.output, fileio.lifted_to_dict(lifted, args.alpha))
    return EXIT_OK


def _verify_checks(inst, args):
    """Yield (name, passed, detail) tuples for every applicable check."""
    import numpy as np

    from . import conserved, oracle, polytope, trajectory

    cap = _max_enum_dim()
    traj = trajectory.build(inst)
    rng = np.random.default_rng(args.seed)

    grads = traj.gradients.tolist()
    convex = all(b - a >= -1e-12 for a, b in zip(grads[:-1], grads[1:]))
    yield "gradient-monotone", convex, f"{len(grads)} steps"

    try:
        vertices = conserved.enumerate_generalized_vertices(inst, max_block_dim=cap)
    except DimensionTooLarge as exc:
        yield "envelope-equivalence", None, f"skipped ({exc})"
    else:
        proj = oracle.induced_polygon(vertices, inst.target, inst.cost)
        worst = max(
            abs(trajectory.omega_opt(traj, alpha) - oracle.envelope_min_cost(proj, alpha))
            for alpha in rng.uniform(traj.alpha_min, traj.alpha_max, 50).tolist()
        )
        yield "envelope-equivalence", worst <= 1e-9, f"max |diff| = {worst:.3e}"

    # the polytope is the product of the blocks' polytopes, and a pair of
    # its vertices is an edge when it is an edge of one block's polytope
    # and equal in every other block (see polytope.is_edge)
    blocks = block_indices(block_of_input(inst), inst.dim)
    largest, edge_cap = max(map(len, blocks)), min(5, cap)
    if largest > edge_cap:
        yield "edge-structure", None, f"skipped (block dim {largest} > {edge_cap})"
    else:
        same, brute, predicted = True, 0, 0
        for idx in blocks:
            vset = polytope.enumerate_vertices(inst.eigenvalues[idx], eps=inst.eps_pop)
            block_predicted = polytope.av_swap_pairs(vset, eps=inst.eps_pop)
            block_brute = polytope.edge_pairs(vset)
            same = same and block_predicted == block_brute
            brute += len(block_brute)
            predicted += len(block_predicted)
        yield "edge-structure", same, f"{brute} edges, {predicted} predicted"

    report = oracle.monte_carlo_audit(inst, traj, n_samples=args.samples, seed=args.seed)
    yield "monte-carlo-audit", report.passed, (
        f"{report.n_samples} samples, {report.violations} violations, "
        f"min slack {report.min_slack:.3e}"
    )

    if args.trajectory is not None:
        stored = fileio.trajectory_from_dict(fileio.load_json(args.trajectory))
        fresh = fileio.trajectory_to_dict(traj)
        same = fileio.same_canonical(stored, fresh)
        yield "trajectory-file-match", same, args.trajectory


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise ParseError(f"--seed must be at least 0, got {args.seed}")
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
        fileio.write_canonical(sys.stdout, doc)
    else:
        for name, ok, detail in results:
            status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
            sys.stdout.write(f"{status:4s}  {name}: {detail}\n")
        sys.stdout.write(("FAIL: " + ", ".join(failed) if failed else "OK") + "\n")
    return EXIT_VERIFY if failed else EXIT_OK


def _float_list(raw: str, field: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParseError(f"{field}: expected comma-separated numbers, got {raw!r}")
    if not values:
        raise ParseError(f"{field}: expected at least one number, got {raw!r}")
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{field}: expected finite numbers, got {raw!r}")
    return values


def cmd_cool(args) -> int:
    from . import cooling

    if args.demo == "working-example":
        cool = cooling.demo_coherent_erasure()
    elif args.demo == "incoherent":  # argparse refuses any other demo
        cool = cooling.demo_incoherent_cooling()
    else:
        if args.system_energies is None or args.machine_energies is None:
            raise ParseError("--system-energies and --machine-energies are required")
        if args.beta is None:
            raise ParseError("--beta is required")
        # inf and -inf are thermal_populations' ground-only and top-only limits
        for flag, beta in (("--beta", args.beta), ("--beta-bath", args.beta_bath)):
            if beta is not None and math.isnan(beta):
                raise ParseError(f"{flag}: expected a number, got nan")
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
    fileio.write_canonical(sys.stdout, fileio.instance_to_dict(cool.problem))
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
