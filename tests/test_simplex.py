import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajopt import simplex
from trajopt.simplex import LPStatus, solve_lp


def test_min_over_probability_simplex(rng):
    # min c.x over the simplex is attained at a unit vector
    for _ in range(25):
        n = int(rng.integers(2, 40))
        c = rng.normal(size=n)
        status, x, value = solve_lp(c, np.ones((1, n)), np.array([1.0]))
        assert status == LPStatus.OPTIMAL
        assert value == pytest.approx(c.min(), abs=1e-9)
        assert np.all(x >= -1e-9) and abs(x.sum() - 1) < 1e-9


def test_infeasible_detected():
    status, x, value = solve_lp(np.zeros(3), np.ones((1, 3)), np.array([-1.0]))
    assert status == LPStatus.INFEASIBLE and x is None


def test_equality_constrained_transport(rng):
    # random transportation polytope: optimum matches a brute-force vertex scan
    for _ in range(10):
        supply = rng.dirichlet(np.ones(3))
        demand = rng.dirichlet(np.ones(3))
        cost = rng.uniform(0, 1, (3, 3)).ravel()
        a_rows = np.zeros((6, 9))
        for i in range(3):
            a_rows[i, 3 * i : 3 * i + 3] = 1.0
            a_rows[3 + i, i::3] = 1.0
        b = np.concatenate([supply, demand])
        status, x, value = solve_lp(cost, a_rows, b)
        assert status == LPStatus.OPTIMAL
        assert np.max(np.abs(a_rows @ x - b)) < 1e-9
        # bracket the optimum: product coupling is feasible, and marginal
        # row/column minima bound the cost from below
        c = cost.reshape(3, 3)
        upper = float(np.outer(supply, demand).ravel() @ cost)
        lower = max(float(supply @ c.min(axis=1)), float(demand @ c.min(axis=0)))
        assert lower - 1e-9 <= value <= upper + 1e-9


def test_degenerate_constraints_handled():
    # duplicated rows (redundant constraints) must not break phase 2
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([0.6, 0.6, 0.4])
    status, x, value = solve_lp(np.array([1.0, 2.0, 0.0]), a, b)
    assert status == LPStatus.OPTIMAL
    assert value == pytest.approx(0.6, abs=1e-9)  # all weight on x0


def _reference_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _reference_run(T, basis, ncols, tol):
    m = len(basis)
    bland_after = 50 * (ncols + m)
    it = 0
    while True:
        reduced = T[-1, :ncols]
        if it < bland_after:
            col = int(np.argmin(reduced))
            if reduced[col] >= -tol:
                return LPStatus.OPTIMAL
        else:
            negs = np.nonzero(reduced < -tol)[0]
            if len(negs) == 0:
                return LPStatus.OPTIMAL
            col = int(negs[0])
        ratios = np.full(m, np.inf)
        positive = T[:m, col] > tol
        ratios[positive] = T[:m, -1][positive] / T[:m, col][positive]
        row = int(np.argmin(ratios))
        if not np.isfinite(ratios[row]):
            return LPStatus.UNBOUNDED
        _reference_pivot(T, basis, row, col)
        it += 1


def _reference_solve_lp(c, A, b, tol=1e-9):
    """A dense two-phase tableau solver without Harris, warm starts or the iteration limit, kept as the reference."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    A = A.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = np.arange(n, n + m)
    status = _reference_run(T, basis, n + m, tol)
    if status != LPStatus.OPTIMAL or -T[-1, -1] > tol * max(1.0, abs(b).max()):
        return LPStatus.INFEASIBLE, None, None
    for row in range(m):
        if basis[row] >= n:
            cand = np.nonzero(np.abs(T[row, :n]) > tol)[0]
            if len(cand):
                _reference_pivot(T, basis, row, int(cand[0]))
    keep = [row for row in range(m) if basis[row] < n]
    T2 = np.zeros((len(keep) + 1, n + 1))
    T2[: len(keep), :n] = T[keep, :n]
    T2[: len(keep), -1] = T[keep, -1]
    basis2 = basis[keep]
    T2[-1, :n] = c
    for row, col in enumerate(basis2):
        T2[-1] -= T2[-1, col] * T2[row]
    status = _reference_run(T2, basis2, n, tol)
    if status != LPStatus.OPTIMAL:
        return status, None, None
    x = np.zeros(n)
    x[basis2] = T2[: len(basis2), -1]
    return LPStatus.OPTIMAL, x, float(np.dot(c, x))


def _mixed_stack(seed):
    """A random stack of LPs sharing A, mixing every way an LP can end.

    A has small-integer entries (degenerate bases), sometimes a repeated
    row (redundant, so an artificial stays basic into phase 2) and
    sometimes a zero column (unbounded when its cost is negative). Each b
    is feasible (A x0 for some x0 >= 0) or arbitrary, often infeasible,
    and may have negative entries.
    """
    rng = np.random.default_rng(seed)
    m, n, L = int(rng.integers(1, 6)), int(rng.integers(1, 9)), int(rng.integers(1, 13))
    A = rng.integers(-1, 3, size=(m, n)).astype(float)
    if m > 1 and rng.integers(0, 2):
        A[-1] = A[0]
    if rng.integers(0, 2):
        A[:, rng.integers(0, n)] = 0.0
    x0 = rng.integers(0, 3, size=(L, n)) * rng.uniform(0.0, 1.0, size=(L, n))
    arbitrary = rng.normal(size=(L, m))
    b = np.where(rng.integers(0, 2, size=(L, 1)) == 1, x0 @ A.T, arbitrary)
    c = rng.normal(size=(L, n)) * rng.integers(0, 2, size=(L, n))
    return c, A, b


def _same_result(got, want):
    status, x, objective = got
    assert status == want[0]
    if want[1] is None:
        assert x is None and objective is None
    else:
        assert x.tobytes() == want[1].tobytes()
        assert np.float64(objective).tobytes() == np.float64(want[2]).tobytes()


# The revised form sums in another order than the tableau reference, and
# may stop at another optimal vertex; entries are small integers and O(1)
# values, so 1e-9 leaves some 10^6 ulps of room.
REF_TOL = 1e-9


def _agrees_with(got, want, A, b):
    """Same status as want; when optimal, the same objective and an x that solves A x = b, x >= 0."""
    status, x, objective = got
    assert status == want[0]
    if want[1] is None:
        assert x is None and objective is None
        return
    assert objective == pytest.approx(want[2], rel=REF_TOL, abs=REF_TOL)
    assert x.min() >= -REF_TOL
    assert np.abs(A @ x - b).max() <= REF_TOL * max(1.0, np.abs(b).max())


def _started_stack(seed):
    """The mixed stack with feasible b and a starting basis per LP.

    Each LP gets k linearly independent columns of A, drawn at random, and
    b = A x0 with x0 >= 0 on those columns (some entries 0, so some starts
    are degenerate). None when A is zero.
    """
    rng = np.random.default_rng(seed)
    c, A, _ = _mixed_stack(seed)
    rank = np.linalg.matrix_rank(A)
    if rank == 0:
        return None
    k = int(rng.integers(1, rank + 1))
    cols = np.empty((len(c), k), dtype=int)
    for i in range(len(c)):
        pick = []
        for j in rng.permutation(A.shape[1]).tolist():
            if np.linalg.matrix_rank(A[:, pick + [j]]) == len(pick) + 1:
                pick.append(j)
            if len(pick) == k:
                break
        cols[i] = pick
    x0 = rng.integers(0, 3, size=cols.shape) * rng.uniform(0.0, 1.0, size=cols.shape)
    b = np.einsum("mlk,lk->lm", A[:, cols], x0)
    return c, A, b, cols


@given(st.integers(0, 2**32 - 1))
def test_each_lp_agrees_with_the_tableau_reference(seed):
    c, A, b = _mixed_stack(seed)
    for i in range(len(c)):
        got = solve_lp(c[i], A, b[i])
        try:
            reference = _reference_solve_lp(c[i], A, b[i])
        except ValueError:
            # the reference crashed on an empty ratio test: phase 2 with
            # every row dropped as redundant and a negative reduced cost
            assert not A.any() and got == (LPStatus.UNBOUNDED, None, None)
            continue
        _agrees_with(got, reference, A, b[i])

    # a starting basis gives the optimum of the LP solved without one
    started = _started_stack(seed)
    if started is None:
        return
    c, A, b, cols = started
    for i in range(len(c)):
        _agrees_with(solve_lp(c[i], A, b[i], basis=cols[i]), solve_lp(c[i], A, b[i]), A, b[i])


def test_unusable_starting_basis_is_ignored():
    # dependent columns, or columns whose basic solution is negative, fall
    # back to the artificial start and give the result without a basis
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    c = np.array([1.0, 2.0, 0.0])
    status, x, value = solve_lp(c, a, np.array([0.6, 0.4]), basis=[1, 2])
    assert status == LPStatus.OPTIMAL and value == pytest.approx(0.6)
    for b, start in (([0.6, 0.4], [0, 1]), ([-0.6, 0.4], [0, 2])):
        _same_result(solve_lp(c, a, np.array(b), basis=start), solve_lp(c, a, np.array(b)))


def test_stack_mixes_every_ending():
    # the generator's rows, each solved alone, reach optimal, infeasible
    # and unbounded LPs, phase 2 with a dropped row, and b < 0 rows, so the
    # property test sees them all
    seen = set()
    for seed in range(200):
        c, A, b = _mixed_stack(seed)
        statuses = {solve_lp(c[i], A, b[i])[0] for i in range(len(c))}
        seen.update(statuses)
        if (b < 0).any():
            seen.add("negative b")
        if len(A) > 1 and np.array_equal(A[0], A[-1]) and LPStatus.OPTIMAL in statuses:
            seen.add("redundant row")
    assert seen == {LPStatus.OPTIMAL, LPStatus.INFEASIBLE, LPStatus.UNBOUNDED, "negative b", "redundant row"}


def test_every_row_redundant_and_unbounded():
    # all rows drop out of phase 2 and x0 may grow without bound; the
    # tableau reference raises ValueError from an empty ratio test here
    status, x, value = solve_lp(np.array([-1.0, 0.0]), np.zeros((2, 2)), np.zeros(2))
    assert (status, x, value) == (LPStatus.UNBOUNDED, None, None)


def _imports(tree):
    """The dotted names an ast imports: each module, and module.name for each name taken from one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def test_no_package_module_imports_the_lp():
    # the LP is the oracle of the tests (conftest.segment_weight): the
    # package decides edges by the face test, and trajopt.simplex is left
    # for the benchmark's tracer to import, not for any package module
    package = Path(simplex.__file__).parent
    importers = [
        path.name
        for path in sorted(package.rglob("*.py"))
        if path.name != "simplex.py"
        and any("simplex" in name.split(".") for name in _imports(ast.parse(path.read_text(), str(path))))
    ]
    assert importers == []

