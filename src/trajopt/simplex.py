"""Dense two-phase simplex for small equality-form linear programs.

Solves  min c·x  s.t.  A x = b,  x >= 0  on problems of desk scale
(a few hundred variables, ~10 constraints), which is all the edge and
envelope oracles need. Dantzig pricing with a Bland fallback guards
against cycling on the degenerate bases these polytopes produce.

A stack of L problems that share A (c of shape (L, n), b of shape (L, m))
is solved in lockstep: each iteration prices, ratio-tests and pivots
every unfinished problem of the stack with array operations on one
(L, m+1, N+1) tableau, and a problem leaves the stack once it is optimal
or unbounded. Each problem makes exactly the pivots it would make alone,
with the same elementwise arithmetic, so its status, x and objective are
bit for bit those of solving it alone; 1-D c and b are the L = 1 case.
"""

from __future__ import annotations

import numpy as np


class LPStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _pivot(T: np.ndarray, basis: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Pivot problem i of the stack T on (rows[i], cols[i]), for every i."""
    lps = np.arange(len(T))
    prow = T[lps, rows] / T[lps, rows, cols][:, None]
    T[lps, rows] = prow
    colvals = T[lps, :, cols]
    colvals[lps, rows] = 0.0
    T -= colvals[:, :, None] * prow[:, None, :]
    T[lps, :, cols] = 0.0
    T[lps, rows, cols] = 1.0
    basis[lps, rows] = cols


def _run(T: np.ndarray, basis: np.ndarray, ncols: int, tol: float, rows: np.ndarray) -> np.ndarray:
    """Pivot every problem of the stack until it is optimal or unbounded.

    Problem i has rows[i] constraint rows that can pivot; it prices with
    Dantzig's rule for its first 50 * (ncols + rows[i]) iterations and
    with Bland's after. Unfinished problems are pivoted in
    T and basis as long as none has finished, then in a compacted copy
    that hands each problem back as it leaves. Returns True where optimal.
    """
    m = basis.shape[1]
    bland_after = 50 * (ncols + rows)
    optimal = np.zeros(len(T), dtype=bool)
    live = np.arange(len(T))
    W, B = T, basis
    it = 0
    while len(live):
        lps = np.arange(len(live))
        reduced = W[:, -1, :ncols]
        neg = reduced < -tol
        dantzig = it < bland_after[live]
        col = np.where(dantzig, np.argmin(reduced, axis=1), np.argmax(neg, axis=1))
        done = np.where(dantzig, reduced[lps, col] >= -tol, ~neg.any(axis=1))
        colm = W[lps, :m, col]
        ratios = np.full(colm.shape, np.inf)
        np.divide(W[:, :m, -1], colm, out=ratios, where=colm > tol)
        row = np.argmin(ratios, axis=1)
        leave = done | ~np.isfinite(ratios[lps, row])
        if leave.any():
            optimal[live[done]] = True
            if W is not T:
                T[live[leave]] = W[leave]
                basis[live[leave]] = B[leave]
            stay = ~leave
            W, B, live, row, col = W[stay], B[stay], live[stay], row[stay], col[stay]
            if not len(live):
                break
        _pivot(W, B, row, col)
        it += 1
    return optimal


def solve_lp(c, A, b, tol: float = 1e-9):
    """Minimize c·x subject to A x = b, x >= 0.

    With 1-D c and b, returns (status, x, objective); x and objective are
    None unless optimal. With c of shape (L, n) or b of shape (L, m) (the
    other is broadcast), solves the L problems in lockstep and returns
    (list of L statuses, (L, n) x, (L,) objectives), NaN where a problem
    is not optimal. Either way problem i returns exactly what it returns
    alone.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    stacked = c.ndim == 2 or b.ndim == 2
    m, n = A.shape
    L = np.broadcast_shapes(c.shape[:-1], b.shape[:-1], (1,))[0]
    c = np.broadcast_to(c, (L, n))
    b = np.broadcast_to(b, (L, m))
    sign = np.where(b < 0, -1.0, 1.0)
    b = b * sign
    A = A * sign[:, :, None]

    # Phase 1: artificial variables form the starting basis.
    T = np.zeros((L, m + 1, n + m + 1))
    T[:, :m, :n] = A
    T[:, :m, n : n + m] = np.eye(m)
    T[:, :m, -1] = b
    T[:, -1, :n] = -A.sum(axis=1)
    T[:, -1, -1] = -b.sum(axis=1)
    basis = np.tile(np.arange(n, n + m), (L, 1))
    feasible = _run(T, basis, n + m, tol, np.full(L, m))
    feasible &= ~(-T[:, -1, -1] > tol * np.maximum(1.0, np.abs(b).max(axis=1)))

    # Drive leftover artificials out of the basis where possible, row by row.
    for row in range(m):
        movable = np.abs(T[:, row, :n]) > tol
        lps = np.flatnonzero(feasible & (basis[:, row] >= n) & movable.any(axis=1))
        if len(lps):
            sub, sub_basis = T[lps], basis[lps]
            _pivot(sub, sub_basis, np.full(len(lps), row), np.argmax(movable[lps], axis=1))
            T[lps], basis[lps] = sub, sub_basis

    # Phase 2 on the original objective. A row whose artificial stayed
    # basic is zeroed: it never passes the ratio test and is skipped in
    # the reduction of the objective row.
    lps = np.flatnonzero(feasible)
    basis2 = basis[lps]
    keep = basis2 < n
    T2 = np.zeros((len(lps), m + 1, n + 1))
    T2[:, :m, :n] = T[lps, :m, :n]
    T2[:, :m, -1] = T[lps, :m, -1]
    T2[:, :m][~keep] = 0.0
    T2[:, -1, :n] = c[lps]
    for row in range(m):
        k = np.flatnonzero(keep[:, row])
        T2[k, -1] -= T2[k, -1, basis2[k, row]][:, None] * T2[k, row]
    optimal = _run(T2, basis2, n, tol, keep.sum(axis=1))

    status = [LPStatus.INFEASIBLE] * L
    for i, ok in zip(lps.tolist(), optimal.tolist()):
        status[i] = LPStatus.OPTIMAL if ok else LPStatus.UNBOUNDED
    x = np.full((L, n), np.nan)
    objective = np.full(L, np.nan)
    solved = lps[optimal]
    xs = np.zeros((len(solved), n))
    at, row = np.nonzero(keep[optimal])
    xs[at, basis2[optimal][at, row]] = T2[optimal][at, row, -1]
    x[solved] = xs
    for i in solved.tolist():
        objective[i] = float(np.dot(c[i], x[i]))
    if stacked:
        return status, x, objective
    if status[0] != LPStatus.OPTIMAL:
        return status[0], None, None
    return status[0], x[0], float(objective[0])
