"""Output checks whose failures count in ``error_rate``.

Each function returns the names of the checks that failed; an empty list
means the output is correct. They use numpy only, never the package under
test; the workloads hand them the raw inputs and the program's outputs.

The envelope check is exact at every dimension. For a step of gradient g,
min over reachable p of (e - g·a)·p is reached by pairing the populations,
sorted descending, with e - g·a sorted ascending (rearrangement inequality);
with a conserved observable the minimum splits into one such sum per block.
The line omega - g·alpha of an optimal step must touch that minimum at both
of the step's end vertices.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9
# Rows of (steps x block size) sorted at once; keeps the check's memory small.
CHUNK = 1 << 20


def flat_blocks(eigenvalues) -> list:
    lam = np.asarray(eigenvalues, dtype=float)
    return [(np.arange(len(lam)), lam)]


def shell_blocks(eigenvalues, conserved, decimals: int = 9) -> list:
    """Blocks of equal conserved value, found without the package's own grouping."""
    lam = np.asarray(eigenvalues, dtype=float)
    keys = np.round(np.asarray(conserved, dtype=float), decimals)
    return [(idx, lam[idx]) for idx in (np.nonzero(keys == k)[0] for k in np.unique(keys))]


def support_values(blocks: list, a, e, grads) -> np.ndarray:
    """min over the (product of) permutation polytopes of (e - g·a)·p, per g."""
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    g = np.asarray(grads, dtype=float)
    out = np.zeros(len(g))
    for idx, lam in blocks:
        lam_desc = np.sort(lam)[::-1]
        a_b, e_b = a[idx], e[idx]
        rows = max(1, CHUNK // len(idx))
        for s in range(0, len(g), rows):
            m = e_b[None, :] - g[s : s + rows, None] * a_b[None, :]
            m.sort(axis=1)
            out[s : s + rows] += m @ lam_desc
    return out


def trajectory_failures(blocks: list, a, e, breakpoints, grads) -> list[str]:
    """Envelope, range and convexity checks of a trajectory's breakpoints."""
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    bp = np.asarray(breakpoints, dtype=float)
    g = np.asarray(grads, dtype=float)
    if bp.ndim != 2 or len(bp) != len(g) + 1:
        return ["breakpoint-count"]
    fails = []
    lo = sum(np.sort(lam)[::-1] @ np.sort(a[idx]) for idx, lam in blocks)
    hi = sum(np.sort(lam) @ np.sort(a[idx]) for idx, lam in blocks)
    a_tol = REL_TOL * (1.0 + np.abs(a).max())
    if abs(bp[0, 0] - lo) > a_tol or abs(bp[-1, 0] - hi) > a_tol:
        fails.append("alpha-range")
    if len(g) == 0:
        return fails
    if np.any(np.diff(g) < -REL_TOL * (1.0 + np.abs(g[:-1]))):
        fails.append("gradient-monotone")
    h = support_values(blocks, a, e, g)
    tol = REL_TOL * (1.0 + np.abs(e).max() + np.abs(g) * np.abs(a).max())
    if np.any(np.abs(bp[:-1, 1] - g * bp[:-1, 0] - h) > tol):
        fails.append("support-touch-start")
    if np.any(np.abs(bp[1:, 1] - g * bp[1:, 0] - h) > tol):
        fails.append("support-touch-end")
    return fails


def grid_failures(grid, omegas, breakpoints) -> list[str]:
    """omega_opt on a grid must interpolate the breakpoints."""
    bp = np.asarray(breakpoints, dtype=float)
    want = np.interp(grid, bp[:, 0], bp[:, 1])
    ok = np.all(np.abs(np.asarray(omegas) - want) <= REL_TOL * (1.0 + np.abs(want)))
    return [] if ok else ["omega-grid"]


def eval_csv_failures(text: str, breakpoints, work_base: float) -> list[str]:
    """The eval CSV must agree with the reloaded trajectory file."""
    lines = text.strip().split("\n")
    if lines[0] != "alpha,omega,work":
        return ["eval-header"]
    try:
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    except ValueError:
        return ["eval-number"]
    if rows.ndim != 2 or rows.shape[1] != 3:
        return ["eval-shape"]
    bp = np.asarray(breakpoints, dtype=float)
    fails = []
    if rows[0, 0] != bp[0, 0] or rows[-1, 0] != bp[-1, 0]:
        fails.append("eval-range")
    if not np.all(np.isin(bp[:, 0], rows[:, 0])):
        fails.append("eval-breakpoints")
    want = np.interp(rows[:, 0], bp[:, 0], bp[:, 1])
    if np.any(np.abs(rows[:, 1] - want) > REL_TOL * (1.0 + np.abs(want))):
        fails.append("eval-omega")
    if np.any(np.abs(rows[:, 2] - (rows[:, 1] - work_base)) > REL_TOL * (1.0 + np.abs(rows[:, 1]))):
        fails.append("eval-work")
    return fails


def lift_failures(doc: dict, alpha: float, expected_diagonal) -> list[str]:
    """A lifted point must be orthogonal and reproduce the trajectory state."""
    u = np.asarray(doc["unitary"], dtype=float)
    ds = np.asarray(doc["doubly_stochastic"], dtype=float)
    diag = np.asarray(doc["density_diagonal"], dtype=float)
    fails = []
    if doc["alpha"] != alpha:
        fails.append("lift-alpha")
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape != ds.shape:
        return fails + ["lift-shape"]
    if np.abs(u.T @ u - np.eye(len(u))).max() > REL_TOL:
        fails.append("lift-orthogonal")
    if np.abs(ds - u**2).max() > REL_TOL:
        fails.append("lift-unistochastic")
    if diag.shape != np.shape(expected_diagonal) or np.abs(diag - expected_diagonal).max() > REL_TOL:
        fails.append("lift-state")
    return fails
