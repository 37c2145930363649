"""Dense revised two-phase simplex for small equality-form linear programs.

Solves  min c·x  s.t.  A x = b,  x >= 0  on problems of desk scale
(a few hundred variables, ~10 constraints), which is all the edge and
envelope oracles need.

The form is the revised one: each problem keeps the inverse of its m×m
basis and the values of its basic variables, and A is never copied. An
iteration prices the columns of A with the duals c_B B⁻¹ (a basic
column's reduced cost is set to exactly 0), computes the entering column
B⁻¹ a_q, ratio-tests it against the basic values and updates B⁻¹ by one
elimination step. That touches about m² + n floats per problem, against
(m+1)(n+m+1) for a full tableau.

Pricing is Dantzig's rule, then Bland's as a guard against cycling on the
degenerate bases these polytopes produce. The ratio test is Harris's:
among the rows that block no later than a step which lets every basic
value fall to -tol, it takes the largest pivot, and basic values are then
clipped at zero. A problem still unfinished after 100 * (n + m)
iterations of a phase ends with status ITERATION_LIMIT: on a basis too
near singular, rounding can make even Bland's rule cycle.

Phase 1 starts from one artificial variable per row, signed like that
row of b, so its basis inverse is a diagonal of signs; an artificial
that leaves the basis never enters again. A problem whose starting basis
is already feasible (its artificials sum to at most tol) skips phase 1.
Artificials still basic after phase 1 are pivoted out where their row of
B⁻¹A has an entry above tol; the rest mark redundant rows and stay basic,
at cost 0, into phase 2. A caller that knows a feasible basis passes its
columns as `basis`; they are pivoted in first, and phase 1 then has
nothing left to search.

A stack of L problems that share A (c of shape (L, n), b of shape (L, m))
is solved in lockstep: each iteration prices, ratio-tests and pivots
every unfinished problem of the stack with array operations, and a
problem leaves the stack once it ends. Every sum over rows is a Python
loop in row order, never a BLAS product whose blocking could depend on
L, so each problem makes exactly the pivots it would make alone, with
the same arithmetic, and its status, x and objective are bit for bit
those of solving it alone; 1-D c and b are the L = 1 case.
"""

from __future__ import annotations

import numpy as np


class LPStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration limit"


def _mat_vec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M[i] @ v[i] for each problem: M (L, m, m), v (L, m) -> (L, m), summed in row order."""
    out = M[:, :, 0] * v[:, :1]
    for k in range(1, v.shape[1]):
        out += M[:, :, k] * v[:, k : k + 1]
    return out


def _vec_mat(y: np.ndarray, A: np.ndarray) -> np.ndarray:
    """y[i] @ A for each problem: y (L, m), A (m, n) shared -> (L, n), summed in row order."""
    out = y[:, :1] * A[0]
    for k in range(1, len(A)):
        out += y[:, k : k + 1] * A[k]
    return out


def _reduced_costs(A: np.ndarray, cost: np.ndarray, Binv: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """c_j - (c_B B⁻¹) a_j for every column j of A, one row per problem; 0 for basic columns."""
    duals = _mat_vec(Binv.swapaxes(1, 2), np.take_along_axis(cost, basis, axis=1))
    reduced = cost[:, : A.shape[1]] - _vec_mat(duals, A)
    at, slot = np.nonzero(basis < A.shape[1])
    reduced[at, basis[at, slot]] = 0.0
    return reduced


def _pivot(Binv: np.ndarray, xB: np.ndarray, basis: np.ndarray, alpha: np.ndarray, rows, cols) -> None:
    """Column cols[i] enters problem i's basis at rows[i]; alpha[i] is its B⁻¹ a before the pivot."""
    lps = np.arange(len(Binv))
    piv = alpha[lps, rows]
    prow = Binv[lps, rows] / piv[:, None]
    xr = xB[lps, rows] / piv
    factor = alpha.copy()
    factor[lps, rows] = 0.0
    Binv -= factor[:, :, None] * prow[:, None, :]
    Binv[lps, rows] = prow
    xB -= factor * xr[:, None]
    xB[lps, rows] = xr
    basis[lps, rows] = cols


def _run(A, cost, Binv, xB, basis, tol: float, rows: np.ndarray):
    """Pivot every problem of the stack until it is optimal or unbounded, or gives up.

    Only columns of A enter. Problem i has rows[i] rows that can pivot; it
    prices with Dantzig's rule for its first K = 50 * (n + rows[i])
    iterations, with Bland's for the next K (the least entering column,
    the least basic variable among tied leaving rows), and then gives up:
    on a basis too near singular, rounding can make even Bland's rule
    cycle. Unfinished problems are pivoted in Binv, xB and basis as long
    as none has finished, then in compacted copies that hand each problem
    back as it leaves. Returns (optimal, gave_up) masks.
    """
    bland_after = 50 * (A.shape[1] + rows)
    optimal = np.zeros(len(Binv), dtype=bool)
    gave_up = np.zeros(len(Binv), dtype=bool)
    live = np.arange(len(Binv))
    state = (cost, Binv, xB, basis)
    it = 0
    while len(live):
        c, B, x, bs = state
        lps = np.arange(len(live))
        reduced = _reduced_costs(A, c, B, bs)
        col = np.argmin(reduced, axis=1)
        done = reduced[lps, col] >= -tol
        bland = it >= bland_after[live]
        if bland.any():
            neg = reduced[bland] < -tol
            col[bland] = np.argmax(neg, axis=1)
            done[bland] = ~neg.any(axis=1)
        alpha = _mat_vec(B, A[:, col].T)
        # Harris's two passes: the longest step that keeps every basic
        # value above -tol, then, among rows whose own step is no longer,
        # the largest pivot (Dantzig) or the least basic variable (Bland).
        blocking = alpha > tol
        ratios = np.full(alpha.shape, np.inf)
        np.divide(x + tol, alpha, out=ratios, where=blocking)
        bound = ratios.min(axis=1)
        np.divide(x, alpha, out=ratios, where=blocking)
        tied = ratios <= bound[:, None]
        row = np.argmax(np.where(tied, alpha, -1.0), axis=1)
        if bland.any():
            row[bland] = np.argmin(np.where(tied[bland], bs[bland], len(A) + A.shape[1]), axis=1)
        stop = ~done & (it >= 2 * bland_after[live])
        leave = done | stop | ~np.isfinite(bound)
        if leave.any():
            optimal[live[done]] = True
            gave_up[live[stop]] = True
            if B is not Binv:
                gone = live[leave]
                Binv[gone], xB[gone], basis[gone] = B[leave], x[leave], bs[leave]
            stay = ~leave
            live, row, col, alpha = live[stay], row[stay], col[stay], alpha[stay]
            state = tuple(s[stay] for s in state)
            if not len(live):
                break
        _pivot(*state[1:], alpha, row, col)
        np.maximum(state[2], 0.0, out=state[2])
        it += 1
    return optimal, gave_up


def _subset(lps, *arrays):
    return tuple(a[lps] for a in arrays)


def solve_lp(c, A, b, tol: float = 1e-9, basis=None):
    """Minimize c·x subject to A x = b, x >= 0.

    With 1-D c and b, returns (status, x, objective); x and objective are
    None unless optimal. With c of shape (L, n) or b of shape (L, m) (the
    other is broadcast), solves the L problems in lockstep and returns
    (list of L statuses, (L, n) x, (L,) objectives), NaN where a problem
    is not optimal. Either way problem i returns exactly what it returns
    alone.

    basis, if given, holds k <= m columns of A per problem (shape (k,),
    or (L, k) for a stack) of which b is a nonnegative combination. They
    are pivoted into the starting basis in order, each at the artificial
    row where its entry is largest in magnitude, and basic values below
    zero are then set to zero. A problem where a column has no entry
    above tol there, or where a basic value ends below -tol (scaled like
    the feasibility test), starts from the artificial basis instead, and
    returns what it returns without a starting basis.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    stacked = c.ndim == 2 or b.ndim == 2
    m, n = A.shape
    L = np.broadcast_shapes(c.shape[:-1], b.shape[:-1], (1,))[0]
    c = np.broadcast_to(c, (L, n))
    b = np.broadcast_to(b, (L, m))
    slack = tol * np.maximum(1.0, np.abs(b).max(axis=1, initial=0.0))

    # Artificial variable i is the column sign(b_i) e_i, so the starting
    # basis inverse is the diagonal of those signs.
    Binv = np.where(b < 0, -1.0, 1.0)[:, :, None] * np.eye(m)
    xB = np.abs(b)
    bs = np.tile(np.arange(n, n + m), (L, 1))
    if basis is not None:
        first = Binv.copy(), xB.copy(), bs.copy()
        start = np.broadcast_to(np.asarray(basis, dtype=np.intp), (L, np.shape(basis)[-1]))
        failed = np.zeros(L, dtype=bool)
        for cols in start.T:
            alpha = _mat_vec(Binv, A[:, cols].T)
            free = np.where(bs >= n, np.abs(alpha), -1.0)
            rows = np.argmax(free, axis=1)
            failed |= free[np.arange(L), rows] <= tol
            ok = np.flatnonzero(~failed)
            sub = _subset(ok, Binv, xB, bs)
            _pivot(*sub, alpha[ok], rows[ok], cols[ok])
            Binv[ok], xB[ok], bs[ok] = sub
        failed |= (xB < -slack[:, None]).any(axis=1)
        for now, then in zip((Binv, xB, bs), first):
            now[failed] = then[failed]
        np.maximum(xB, 0.0, out=xB)

    status = np.full(L, LPStatus.INFEASIBLE, dtype=object)

    # Phase 1 minimizes the sum of the artificials, where it is above tol.
    artificial = bs >= n
    lps = np.flatnonzero((xB * artificial).sum(axis=1) > slack)
    if len(lps):
        cost = np.zeros((len(lps), n + m))
        cost[:, n:] = 1.0
        sub = _subset(lps, Binv, xB, bs)
        _, gave_up = _run(A, cost, *sub, tol, np.full(len(lps), m))
        Binv[lps], xB[lps], bs[lps] = sub
        status[lps[gave_up]] = LPStatus.ITERATION_LIMIT
    artificial = bs >= n
    feasible = ~((xB * artificial).sum(axis=1) > slack) & (status != LPStatus.ITERATION_LIMIT)

    # Drive leftover artificials out of the basis where possible, each
    # problem's rows in order: one stacked pivot per pass, on the largest
    # entry of the artificial's row of B⁻¹A.
    tried = np.full(L, -1)
    while True:
        left = feasible[:, None] & (bs >= n) & (np.arange(m) > tried[:, None])
        lps = np.flatnonzero(left.any(axis=1))
        if not len(lps):
            break
        rows = np.argmax(left[lps], axis=1)
        tried[lps] = rows
        size = np.abs(_vec_mat(Binv[lps, rows], A))
        col = np.argmax(size, axis=1)
        movable = size[np.arange(len(lps)), col] > tol
        lps, rows, col = lps[movable], rows[movable], col[movable]
        if len(lps):
            sub = _subset(lps, Binv, xB, bs)
            _pivot(*sub, _mat_vec(sub[0], A[:, col].T), rows, col)
            Binv[lps], xB[lps], bs[lps] = sub

    # Phase 2 on the original objective. An artificial still basic marks a
    # redundant row: it keeps cost 0 and never passes the ratio test.
    lps = np.flatnonzero(feasible)
    cost = np.zeros((len(lps), n + m))
    cost[:, :n] = c[lps]
    sub = _subset(lps, Binv, xB, bs)
    optimal, gave_up = _run(A, cost, *sub, tol, (sub[2] < n).sum(axis=1))
    _, xB2, bs2 = sub
    status[lps] = LPStatus.UNBOUNDED
    status[lps[optimal]] = LPStatus.OPTIMAL
    status[lps[gave_up]] = LPStatus.ITERATION_LIMIT
    status = status.tolist()
    x = np.full((L, n), np.nan)
    objective = np.full(L, np.nan)
    solved = lps[optimal]
    xs = np.zeros((len(solved), n))
    at, row = np.nonzero(bs2[optimal] < n)
    xs[at, bs2[optimal][at, row]] = xB2[optimal][at, row]
    x[solved] = xs
    objective[solved] = (c[solved] * xs).sum(axis=1)
    if stacked:
        return status, x, objective
    if status[0] != LPStatus.OPTIMAL:
        return status[0], None, None
    return status[0], x[0], float(objective[0])
