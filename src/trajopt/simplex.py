"""Dense revised two-phase simplex for small equality-form linear programs.

Solves  min c·x  s.t.  A x = b,  x >= 0  on problems of desk scale
(a few hundred variables, ~10 constraints), which is all the edge and
envelope oracles need. Each call solves one problem.

The form is the revised one: the solver keeps the inverse of its m×m
basis and the values of its basic variables, and A is never copied. An
iteration prices the columns of A with the duals c_B B⁻¹ (a basic
column's reduced cost is set to exactly 0), computes the entering column
B⁻¹ a_q, ratio-tests it against the basic values and updates B⁻¹ by one
elimination step. That touches about m² + n floats, against
(m+1)(n+m+1) for a full tableau.

Pricing is Dantzig's rule, then Bland's as a guard against cycling on the
degenerate bases these polytopes produce. The ratio test is Harris's:
among the rows that block no later than a step which lets every basic
value fall to -tol, it takes the largest pivot, and basic values are then
clipped at zero. A phase still unfinished after 100 * (n + m) iterations
ends with status ITERATION_LIMIT: on a basis too near singular, rounding
can make even Bland's rule cycle.

Phase 1 starts from one artificial variable per row, signed like that
row of b, so its basis inverse is a diagonal of signs; an artificial
that leaves the basis never enters again. A problem whose starting basis
is already feasible (its artificials sum to at most tol) skips phase 1.
Artificials still basic after phase 1 are pivoted out where their row of
B⁻¹A has an entry above tol; the rest mark redundant rows and stay basic,
at cost 0, into phase 2. A caller that knows a feasible basis passes its
columns as `basis`; they are pivoted in first, and phase 1 then has
nothing left to search.
"""

from __future__ import annotations

import itertools

import numpy as np


class LPStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration limit"


def _pivot(Binv: np.ndarray, xB: np.ndarray, basis: np.ndarray, alpha: np.ndarray, row: int, col: int) -> None:
    """Column col enters the basis at row; alpha is its B⁻¹ a before the pivot."""
    prow = Binv[row] / alpha[row]
    xr = xB[row] / alpha[row]
    factor = alpha.copy()
    factor[row] = 0.0
    Binv -= np.outer(factor, prow)
    Binv[row] = prow
    xB -= factor * xr
    xB[row] = xr
    basis[row] = col


def _run(A, cost, Binv, xB, basis, tol: float, rows: int) -> str:
    """Pivot until the problem is optimal or unbounded, or give up.

    Only columns of A enter. With `rows` rows that can pivot, pricing is
    Dantzig's rule for the first K = 50 * (n + rows) iterations and
    Bland's for the next K (the least entering column, the least basic
    variable among tied leaving rows); then the run gives up: on a basis
    too near singular, rounding can make even Bland's rule cycle.
    """
    n = A.shape[1]
    bland_after = 50 * (n + rows)
    for it in itertools.count():
        reduced = cost[:n] - (cost[basis] @ Binv) @ A
        reduced[basis[basis < n]] = 0.0
        bland = it >= bland_after
        if bland:
            negative = np.flatnonzero(reduced < -tol)
            if not len(negative):
                return LPStatus.OPTIMAL
            col = int(negative[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -tol:
                return LPStatus.OPTIMAL
        if it >= 2 * bland_after:
            return LPStatus.ITERATION_LIMIT
        alpha = Binv @ A[:, col]
        # Harris's two passes: the longest step that keeps every basic
        # value above -tol, then, among rows whose own step is no longer,
        # the largest pivot (Dantzig) or the least basic variable (Bland).
        blocking = alpha > tol
        ratios = np.full(len(alpha), np.inf)
        np.divide(xB + tol, alpha, out=ratios, where=blocking)
        bound = ratios.min()
        if not np.isfinite(bound):
            return LPStatus.UNBOUNDED
        np.divide(xB, alpha, out=ratios, where=blocking)
        tied = ratios <= bound
        if bland:
            row = int(np.argmin(np.where(tied, basis, len(A) + n)))
        else:
            row = int(np.argmax(np.where(tied, alpha, -1.0)))
        _pivot(Binv, xB, basis, alpha, row, col)
        np.maximum(xB, 0.0, out=xB)


def _warm_start(A, Binv, xB, basis, start, tol: float, slack: float) -> bool:
    """Pivot the columns `start` into the artificial basis; False if the start is unusable."""
    n = A.shape[1]
    for col in start:
        alpha = Binv @ A[:, col]
        free = np.where(basis >= n, np.abs(alpha), -1.0)
        row = int(np.argmax(free))
        if free[row] <= tol:
            return False
        _pivot(Binv, xB, basis, alpha, row, col)
    return not (xB < -slack).any()


def solve_lp(c, A, b, tol: float = 1e-9, basis=None):
    """Minimize c·x subject to A x = b, x >= 0.

    Returns (status, x, objective); x and objective are None unless
    optimal.

    basis, if given, holds k <= m columns of A of which b is a
    nonnegative combination. They are pivoted into the starting basis in
    order, each at the artificial row where its entry is largest in
    magnitude, and basic values below zero are then set to zero. Where a
    column has no entry above tol there, or a basic value ends below -tol
    (scaled like the feasibility test), the solve starts from the
    artificial basis instead, and returns what it returns without a
    starting basis.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    slack = tol * max(1.0, float(np.abs(b).max(initial=0.0)))

    # Artificial variable i is the column sign(b_i) e_i, so the starting
    # basis inverse is the diagonal of those signs.
    Binv = np.diag(np.where(b < 0, -1.0, 1.0))
    xB = np.abs(b)
    bs = np.arange(n, n + m)
    if basis is not None:
        warm = Binv.copy(), xB.copy(), bs.copy()
        if _warm_start(A, *warm, np.asarray(basis, dtype=np.intp), tol, slack):
            Binv, xB, bs = warm
            np.maximum(xB, 0.0, out=xB)

    # Phase 1 minimizes the sum of the artificials, where it is above tol.
    if xB[bs >= n].sum() > slack:
        cost = np.zeros(n + m)
        cost[n:] = 1.0
        if _run(A, cost, Binv, xB, bs, tol, m) == LPStatus.ITERATION_LIMIT:
            return LPStatus.ITERATION_LIMIT, None, None
        if xB[bs >= n].sum() > slack:
            return LPStatus.INFEASIBLE, None, None

    # Drive leftover artificials out of the basis where possible, row by
    # row, on the largest entry of the artificial's row of B⁻¹A.
    for row in range(m):
        if bs[row] >= n:
            size = np.abs(Binv[row] @ A)
            col = int(np.argmax(size))
            if size[col] > tol:
                _pivot(Binv, xB, bs, Binv @ A[:, col], row, col)

    # Phase 2 on the original objective. An artificial still basic marks a
    # redundant row: it keeps cost 0 and never passes the ratio test.
    cost = np.zeros(n + m)
    cost[:n] = c
    status = _run(A, cost, Binv, xB, bs, tol, int((bs < n).sum()))
    if status != LPStatus.OPTIMAL:
        return status, None, None
    x = np.zeros(n)
    real = bs < n
    x[bs[real]] = xB[real]
    return status, x, float(c @ x)
