"""Construction and evaluation of the optimal trajectory.

The trajectory starts at the vertex minimizing the target (cost-minimal
among those), then repeatedly applies the target-increasing swap of
adjacent-valued populations with the smallest cost-per-target gradient,
until no such swap remains. The resulting minimal cost is continuous,
piecewise linear and convex in the target value.

One candidate generator, `_SwapQueue`, answers every query. Built at any
vertex it lists the candidate swaps (`swap_candidates`) and picks the
optimal one (`next_step`). Ties within eps_grad go to the smallest (k, l).
The queue splits each value run into cells, the run's positions of equal
(target, cost). Every member of a cell pairs with a given partner at one
gradient, so the tie rule always takes the least member of a cell, and
the queue holds one pair per pair of cells in adjacent runs: their least
members. A swap pushes the pairs of the cells whose least member changed,
so a step costs O(cells next to them · log) instead of a pass over every
pair; when all (target, cost) pairs are distinct every cell is one
position, and these are the pairs touching the two swapped positions.
A candidate is held as the int k * d + l in a heap per exact gradient and
is live while l's value run follows k's. Each run keeps its own map from
the shared classes it holds to their cells, so a build step, its moves
between cells included, is one pass of one loop over ints, lists and
dicts that makes no method call (`_SwapQueue.steps`); only a tie within
eps_grad calls `best`.

`build` needs no queue when the instance certifies its order: with
distinct populations and targets in every block and pair gradients more
than eps_grad apart, every pair of a block swaps once, in gradient order
(kinetic sorting, Basch, Guibas and Hershberger 1999), so one sort of the
pair gradients gives the steps in O(P log P), P the number of pairs
(`_sorted_steps` lists the four checks and why they suffice; numpy's
default sort serves, as the checks leave no equal gradients). Any other
instance keeps one queue for the whole trajectory. Both give the same
steps bit for bit. A build step then makes no numpy call: the vertex's
entries are swapped through a memoryview, and the target and cost values
of the vertices are dotted a buffer of 2**15 floats (256 KB) of vertices at
a time (`np.vecdot`), equal bit for bit to one `np.dot` each whatever the
buffer's size, O(steps · d) in all.

Every construction runs on one prepared instance (`_prepare`): the
preferred order, the coefficients and spectrum in that order, and the
conserved block of each position, read from the instance's conserved
vector (`core.block_of_input`). A flat instance is the one-block case, so
`build`, `next_step`, `swap_candidates` and the extreme vertices honour a
conserved vector, and a conserved instance is a plain `ProblemInstance`.
Each public function on a prepared instance runs under one numpy error
policy (`_quiet`): coefficient differences that overflow split classes as
inf gaps do, and an overflowing step gradient is refused when the
trajectory is made (`_step_gradients`), so numpy need not warn of either.

A trajectory is stored as its steps: the minimal-point vertex
(`initial_vertex`) and one entry per step in flat arrays (`ks`, `ls`)
plus the target and cost value of every vertex (`alphas`, `omegas`),
O(steps + d) in all; `gradients` is derived from `ks` and `ls`, as a
step's gradient follows from its two positions. Each vertex is the one
before it with two entries exchanged, so `vertex(i)` replays the first i
swaps from `initial_vertex`, and `delta_alphas` is replayed the same way
on its first read; `steps` is a read-only sequence that makes a
`SwapStep` when one is read, and `breakpoints` stacks `alphas` and
`omegas`.
`omega_opt` interpolates on the two breakpoints around alpha, found by
binary search on a memoryview of `alphas`, in Python floats as
`np.interp` would, so it costs O(log steps) per call and makes no numpy
call; the range test, clamp, search and interpolation run in its own
frame. The trajectory sets the bounds and memoryviews this reads once,
when it is made, and `state_at` finds its segment in the same memoryview.

Vertices and step indices are stored in preferred-basis coordinates;
population vectors returned to callers are in the input basis.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    ALPHA_TOL,
    COEFF_EPS,
    PreferredOrder,
    ProblemInstance,
    block_indices,
    block_of_input,
    check_alpha,
    cluster_ranks,
    preferred_order,
)
from .errors import NonFiniteValue, NotAVertex

# float64 entries of the vertex buffer whose rows `_build` dots in one call (256 KB)
_DOT_BUFFER = 2**15


@dataclass(frozen=True)
class SwapStep:
    """One two-level swap of the trajectory, in preferred-basis positions.

    Before the swap p[k] < p[l] and the target coefficient at k exceeds the
    one at l, so the swap raises the target by delta_alpha > 0 at cost slope
    `gradient`.
    """

    k: int
    l: int
    delta_alpha: float
    gradient: float
    alpha_start: float
    alpha_end: float


class StepSequence(Sequence):
    """The steps of a trajectory as a read-only sequence of SwapStep.

    Each SwapStep is made from the trajectory's step arrays when it is
    read; a slice gives a tuple of them.
    """

    __slots__ = ("_traj",)

    def __init__(self, traj: OptimalTrajectory):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.ks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._step, range(len(self))[i]))
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"step {i} outside a trajectory of {n} steps")
        return self._step(i % n)

    def __iter__(self):
        t = self._traj
        alphas = t.alphas.tolist()
        for k, l, delta, grad, a0, a1 in zip(
            t.ks.tolist(), t.ls.tolist(), t.delta_alphas.tolist(), t.gradients.tolist(), alphas, alphas[1:]
        ):
            yield SwapStep(k=k, l=l, delta_alpha=delta, gradient=grad, alpha_start=a0, alpha_end=a1)

    def _step(self, i: int) -> SwapStep:
        t = self._traj
        return SwapStep(
            k=int(t.ks[i]),
            l=int(t.ls[i]),
            delta_alpha=float(t.delta_alphas[i]),
            gradient=float(t.gradients[i]),
            alpha_start=float(t.alphas[i]),
            alpha_end=float(t.alphas[i + 1]),
        )


@dataclass(frozen=True, eq=False)
class OptimalTrajectory:
    """The minimal-point vertex and the steps out of it, as read-only arrays.

    Step i swaps preferred positions ks[i] and ls[i] of vertex i, which
    gives vertex i + 1; it raises the target by delta_alphas[i] at cost
    slope gradients[i]. alphas and omegas hold the target and cost value
    of each of the steps + 1 vertices, so memory is O(steps + d). gradients
    is derived from ks and ls when the trajectory is made (`_step_gradients`),
    vertices from initial_vertex on request (`vertex`), delta_alphas on its
    first read, and `steps` reads the arrays as SwapStep objects.

    `omega_opt` and `state_at` read one lookup, set with the trajectory:
    the range check_alpha accepts, the range it clamps to, the last
    vertex, and read-only memoryviews of alphas and omegas, whose items
    are Python floats.
    """

    order: PreferredOrder
    target_pref: np.ndarray
    cost_pref: np.ndarray
    initial_vertex: np.ndarray  # (d,), preferred coordinates
    ks: np.ndarray  # (steps,) int32
    ls: np.ndarray  # (steps,) int32
    gradients: np.ndarray = field(init=False)  # (steps,), from ks and ls
    alphas: np.ndarray  # (steps + 1,)
    omegas: np.ndarray  # (steps + 1,)
    eps_pop: float
    eps_grad: float
    block_of_position: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "gradients", _step_gradients(self.target_pref, self.cost_pref, self.ks, self.ls))
        self._set_lookup()

    def _set_lookup(self):
        lo, hi = float(self.alphas[0]), float(self.alphas[-1])
        xp, fp = memoryview(self.alphas).toreadonly(), memoryview(self.omegas).toreadonly()
        object.__setattr__(self, "_lookup", (lo - ALPHA_TOL, lo, hi, hi + ALPHA_TOL, len(xp) - 1, xp, fp))

    def __getstate__(self):
        # a memoryview does not pickle: a copy or an unpickled trajectory sets its own lookup
        return {k: v for k, v in self.__dict__.items() if k != "_lookup"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._set_lookup()

    @property
    def dim(self) -> int:
        return self.order.dim

    @property
    def alpha_min(self) -> float:
        return float(self.alphas[0])

    @property
    def alpha_max(self) -> float:
        return float(self.alphas[-1])

    @property
    def steps(self) -> StepSequence:
        return StepSequence(self)

    @property
    def breakpoints(self) -> np.ndarray:
        """(steps + 1, 2) array of the (alpha, omega) of each vertex."""
        out = np.column_stack((self.alphas, self.omegas))
        out.setflags(write=False)
        return out

    @cached_property
    def delta_alphas(self) -> np.ndarray:
        """(steps,) target raised by each step, replayed from initial_vertex.

        The swaps run on list copies of the d entries: Python floats round
        exactly as numpy float64 scalars do, so the array depends on ks, ls,
        target_pref and initial_vertex alone, for a build and a reloaded
        file alike. The steps are read, and the deltas written, through
        memoryviews, so no per-step list is held.
        """
        a = self.target_pref.tolist()
        p = self.initial_vertex.tolist()
        out = np.empty(len(self.ks))
        deltas = memoryview(out)
        for i, (k, l) in enumerate(zip(memoryview(self.ks), memoryview(self.ls))):
            deltas[i] = (a[k] - a[l]) * (p[l] - p[k])
            p[k], p[l] = p[l], p[k]
        return _readonly(out)

    def vertex(self, i: int) -> np.ndarray:
        """Vertex i in preferred coordinates: initial_vertex after the first i steps.

        i runs over 0..steps; a negative i counts from the last vertex.
        """
        n = len(self.ks)
        i = operator.index(i)
        if not -n - 1 <= i <= n:
            raise IndexError(f"vertex {i} outside a trajectory of {n + 1} vertices")
        m = i % (n + 1)
        p = self.initial_vertex.tolist()
        for k, l in zip(self.ks[:m].tolist(), self.ls[:m].tolist()):
            p[k], p[l] = p[l], p[k]
        return np.array(p)

    def vertex_input(self, i: int) -> np.ndarray:
        """Vertex i as an input-basis population vector."""
        return self.order.to_input(self.vertex(i))

    def step_input_pair(self, step: SwapStep) -> tuple[int, int]:
        """The swapped pair of a step as input-basis indices."""
        return int(self.order.perm[step.k]), int(self.order.perm[step.l])


@dataclass(frozen=True)
class MinimumUniqueness:
    unique: bool
    condition: int | None


@dataclass(frozen=True, eq=False)
class _Prepared:
    """An instance in preferred coordinates, split into its conserved blocks.

    lam_p holds the eigenvalues in preferred order; blocks[i] is the block of
    preferred position i, taken from inst.conserved, and blocks=None is a
    single block (an instance without a conserved vector). Every block is
    treated alike, so a flat instance is the one-block case of a conserved
    one.
    """

    inst: ProblemInstance
    order: PreferredOrder
    a_p: np.ndarray
    e_p: np.ndarray
    lam_p: np.ndarray
    blocks: np.ndarray | None

    @property
    def groups(self) -> list[np.ndarray]:
        """The preferred positions of each block."""
        return block_indices(self.blocks, len(self.lam_p))


def _quiet() -> np.errstate:
    """The numpy error policy of every public function on a prepared instance.

    A new errstate per call: one errstate cannot be entered twice at once.
    """
    return np.errstate(over="ignore", invalid="ignore")


def _prepare(inst: ProblemInstance) -> _Prepared:
    """Preferred order, coefficients, spectrum and conserved blocks of inst."""
    order = preferred_order(inst.target, inst.cost)
    blocks = block_of_input(inst)
    return _Prepared(
        inst=inst,
        order=order,
        a_p=order.to_preferred(inst.target),
        e_p=order.to_preferred(inst.cost),
        lam_p=order.to_preferred(inst.eigenvalues),
        blocks=None if blocks is None else blocks[order.perm],
    )


def _minimal_pref(prep: _Prepared) -> np.ndarray:
    """Descending spectrum inside each block."""
    out = np.empty(len(prep.lam_p))
    for pos in prep.groups:
        out[pos] = np.sort(prep.lam_p[pos])[::-1]
    return out


def _maximal_point(prep: _Prepared) -> np.ndarray:
    """Input-basis maximal point.

    Per block: ascending spectrum across target classes, descending with cost
    inside them.
    """
    out = np.empty(len(prep.lam_p))
    for pos in prep.groups:
        # target classes are ranked per block: one pass over all positions
        # would chain near-equal targets of different blocks into one class
        ra = cluster_ranks(prep.a_p[pos], COEFF_EPS)
        # ascending by class, then by descending cost; ties keep position order
        rank = np.lexsort((-pos, -prep.e_p[pos], ra))
        out[pos[rank]] = np.sort(prep.lam_p[pos])
    return prep.order.to_input(out)


def minimal_vertex(inst: ProblemInstance) -> np.ndarray:
    """Input-basis populations of the trajectory's minimal point."""
    with _quiet():
        prep = _prepare(inst)
        return prep.order.to_input(_minimal_pref(prep))


def maximal_vertex(inst: ProblemInstance) -> np.ndarray:
    """Input-basis populations of the trajectory's maximal point."""
    with _quiet():
        return _maximal_point(_prepare(inst))


def _candidates_at(prep: _Prepared, p):
    """Input-basis p in preferred coordinates and its candidate queue: (pp, queue).

    Raises NotAVertex unless p has one entry per level and permutes the
    eigenvalues inside each block (a NaN entry never does).
    """
    p = np.asarray(p, dtype=float)
    if p.shape != prep.lam_p.shape:
        raise NotAVertex(f"p has shape {p.shape}, not {prep.lam_p.shape}")
    pp = prep.order.to_preferred(p)
    tol = max(prep.inst.eps_pop, 1e-9)
    for pos in prep.groups:
        if not np.max(np.abs(np.sort(pp[pos]) - np.sort(prep.lam_p[pos]))) <= tol:
            raise NotAVertex("p is not a permutation of the eigenvalues")
    return pp, _SwapQueue(pp, prep)


def _swap_candidates(prep: _Prepared, p):
    """The candidates at p as input-basis (i, j, gradient), in preferred (k, l) order."""
    _, queue = _candidates_at(prep, p)
    perm = prep.order.perm
    return [(int(perm[k]), int(perm[l]), g) for k, l, g in queue.entries()]


def swap_candidates(p, inst: ProblemInstance):
    """Target-increasing adjacent-valued swaps at p, as (i, j, gradient).

    Indices are input-basis; i carries the larger target coefficient, and
    with a conserved vector both lie in one block. The list is sorted by
    the preferred-order positions (k, l) of (i, j), and `next_step` takes
    its first entry whose gradient lies within eps_grad of the smallest.
    Raises NotAVertex unless p permutes the eigenvalues inside each block.
    """
    with _quiet():
        return _swap_candidates(_prepare(inst), p)


def next_step(p, inst: ProblemInstance) -> SwapStep | None:
    """The optimal swap out of vertex p (input basis), or None at the maximum."""
    with _quiet():
        return _next_step(_prepare(inst), p)


def _next_step(prep: _Prepared, p) -> SwapStep | None:
    pp, queue = _candidates_at(prep, p)
    chosen = queue.best(prep.inst.eps_grad)
    if chosen is None:
        return None
    k, l, grad = chosen
    a_p = prep.a_p
    alpha = float(np.dot(a_p, pp))
    delta = float((a_p[k] - a_p[l]) * (pp[l] - pp[k]))
    # alpha_end is the dot of the next vertex, as in the build, not alpha + delta
    pp[k], pp[l] = pp[l], pp[k]
    alpha_end = float(np.dot(a_p, pp))
    return SwapStep(k=k, l=l, delta_alpha=delta, gradient=grad, alpha_start=alpha, alpha_end=alpha_end)


class _SwapQueue:
    """The target-raising adjacent-valued swaps of the current vertex, kept between steps.

    A swap permutes the populations, so the value runs (sorted populations
    split at gaps > eps_pop, per block) never change; a position changes run
    only when it is swapped. The candidates are the pairs (k, l) with l in
    the run after k's and a[k] - a[l] > COEFF_EPS.

    Each run is split into cells: its positions whose (a, e) are equal as
    floats, so 0.0 and -0.0 share a cell. Every member of a cell pairs with
    a given partner at the same gradient, so all of them land in one bucket,
    where the tie rule takes the least key: of the pairs between two cells,
    only the pair of their least members (their heads) can ever be taken.
    The queue therefore holds just the head pairs of adjacent cells, and
    pushes a head's pairs when it becomes one: a swap takes the heads of two
    cells, which then have new heads, and moves them into two cells whose
    head they may become. When every cell is a singleton these are the
    pairs touching the two swapped positions.

    An entry is the int k * d + l, which orders as (k, l) does since l < d.
    It is live while l's run is the one after k's; dead entries are dropped
    when they reach the top of their heap. A live entry is a candidate
    whether or not k and l are still heads, and its bucket also holds the
    head pair, whose key is smaller. A pair that becomes adjacent again is
    pushed again with the same gradient, so a live pair may be held twice.

    Entries are bucketed by exact gradient, each bucket a heap of keys, so
    the eps_grad tie rule (smallest (k, l) among the gradients within
    eps_grad of the least) needs only the top of each tied bucket. A key
    carries no gradient: the chosen pair's is recomputed by the expression
    that bucketed it, so a -0.0 survives a bucket it shares with 0.0.

    Each run keeps a list of its cells' heads, with each head's slot in it.
    A position whose (a, e) no other position of its block shares has class
    -1: its cell is always itself, and a swap of two such positions
    exchanges them in their runs' lists in O(1). The other classes are
    shared, and each run keeps its own map from the shared classes it holds
    to their cells, each a heap of positions. A run that holds none has no
    map (None) until a member of a shared class joins it, and a cell left
    empty leaves its map, so memory is O(d + cells): no table is sized runs
    times classes.
    """

    def __init__(self, p, prep: _Prepared):
        d = len(p)
        self._d = d
        a, e = prep.a_p.tolist(), prep.e_p.tolist()
        self._a, self._e = a, e
        cls = [-1] * d  # the (a, e) class of a position shared inside its block, else -1
        n = 0
        for pos in prep.groups:
            same = {}
            for k in pos.tolist():
                same.setdefault((a[k], e[k]), []).append(k)
            for members in same.values():
                if len(members) > 1:
                    for k in members:
                        cls[k] = n
                    n += 1
        self._cls = cls
        self._run_of = [0] * d
        self._slot = [0] * d  # index of each head in its run's list
        self._heads = [[]]  # the heads of each run's cells; empty sentinels before, between and after blocks
        self._cells = [None]  # per run: shared class -> heap of its cell's members, or None
        for pos in prep.groups:
            members = pos[np.argsort(p[pos], kind="stable")]
            splits = np.nonzero(np.diff(p[members]) > prep.inst.eps_pop)[0] + 1
            for run in np.split(members, splits):
                r = len(self._heads)
                heads, cells = [], {}
                for k in run.tolist():
                    self._run_of[k] = r
                    if cls[k] < 0:
                        heads.append(k)
                    else:
                        cells.setdefault(cls[k], []).append(k)
                for cell in cells.values():
                    heapq.heapify(cell)
                    heads.append(cell[0])
                for i, k in enumerate(heads):
                    self._slot[k] = i
                self._heads.append(heads)
                self._cells.append(cells or None)
            self._heads.append([])
            self._cells.append(None)
        self._grads = []  # heap of the bucket keys
        self._buckets = {}  # gradient -> heap of k * d + l
        for lows, highs in zip(self._heads, self._heads[1:]):
            for k in lows:
                self._push_from(k, highs)

    def _push_from(self, k, highs):
        """Push (k, m) for every m in highs where a[k] - a[m] > COEFF_EPS."""
        a, e, buckets, kd = self._a, self._e, self._buckets, k * self._d
        ak, ek = a[k], e[k]
        for m in highs:
            gap = ak - a[m]
            if gap > COEFF_EPS:
                grad = (ek - e[m]) / gap
                bucket = buckets.get(grad)
                if bucket is None:
                    buckets[grad] = [kd + m]
                    heapq.heappush(self._grads, grad)
                else:
                    heapq.heappush(bucket, kd + m)

    def _top(self, grad):
        """Smallest live key of a bucket; drops the bucket when none is left."""
        bucket, run_of, d = self._buckets[grad], self._run_of, self._d
        while bucket:
            k, l = divmod(bucket[0], d)
            if run_of[l] == run_of[k] + 1:
                return bucket[0]
            heapq.heappop(bucket)
        del self._buckets[grad]
        return None

    def _pair(self, key):
        """(k, l, gradient) of a key, the gradient as `_push_from` computes it."""
        k, l = divmod(key, self._d)
        return k, l, (self._e[k] - self._e[l]) / (self._a[k] - self._a[l])

    def best(self, eps_grad):
        """The smallest (k, l, gradient) within eps_grad of the least gradient, or None."""
        grads = self._grads
        while grads:
            top = self._top(grads[0])
            if top is not None:
                break
            heapq.heappop(grads)
        else:
            return None
        limit = grads[0] + eps_grad
        n = len(grads)
        # every other key is at least the least of the root's children
        if (n < 2 or grads[1] > limit) and (n < 3 or grads[2] > limit):
            return self._pair(top)
        best = top
        kept = [heapq.heappop(grads)]
        while grads and grads[0] <= limit:
            grad = heapq.heappop(grads)
            top = self._top(grad)
            if top is not None:
                kept.append(grad)
                best = min(best, top)
        for grad in kept:
            heapq.heappush(grads, grad)
        return self._pair(best)

    def entries(self):
        """The live (k, l, gradient) candidates: every member pair of adjacent cells, sorted by (k, l)."""
        a, d = self._a, self._d
        members = [[] for _ in self._heads]
        for k, r in enumerate(self._run_of):
            members[r].append(k)
        pairs = ((k, l) for lows, highs in zip(members, members[1:]) for k in lows for l in highs)
        return [self._pair(k * d + l) for k, l in sorted(pairs) if a[k] - a[l] > COEFF_EPS]

    def steps(self, eps_grad, count=None):
        """Take the best swap count times, or until none is left: (ks, ls) lists.

        Each step is the pair `best` returns. The common case, a least
        bucket with no other gradient within eps_grad, runs in this loop
        with the state in locals, and so does every swap's move between
        cells: a swap of two singleton cells in O(1), any other in four
        straight-line moves on the two runs' head lists and cell maps.
        """
        a, e, d = self._a, self._e, self._d
        heads, run_of, slot, cls, cells = self._heads, self._run_of, self._slot, self._cls, self._cells
        grads, buckets = self._grads, self._buckets
        heappush, heappop = heapq.heappush, heapq.heappop
        ks, ls = [], []
        while grads and len(ks) != count:
            grad = grads[0]
            bucket = buckets[grad]
            while bucket:
                k, l = divmod(bucket[0], d)
                if run_of[l] == run_of[k] + 1:
                    break
                heappop(bucket)
            else:
                del buckets[grad]
                heappop(grads)
                continue
            limit = grad + eps_grad
            n = len(grads)
            if (n > 1 and grads[1] <= limit) or (n > 2 and grads[2] <= limit):
                k, l, _ = self.best(eps_grad)
            ks.append(k)
            ls.append(l)
            # k moves up to run r + 1 and l down to run r
            r = run_of[k]
            run_of[k], run_of[l] = r + 1, r
            ck, cl = cls[k], cls[l]
            if ck < 0 and cl < 0:
                sk, sl = slot[k], slot[l]
                heads[r][sk] = l
                heads[r + 1][sl] = k
                slot[k], slot[l] = sl, sk
                new = (k, l)
            else:
                # k and l are heads, as every pair the tie rule takes is. Each
                # leaves its cell, whose next member becomes head (a cell left
                # empty drops out of its run's heads), then joins its cell of
                # the other run, as its head or behind it
                lows, highs, new = heads[r], heads[r + 1], []
                i, left = slot[k], True
                if ck >= 0:
                    cell = cells[r][ck]
                    heappop(cell)
                    if cell:
                        h = lows[i] = cell[0]
                        slot[h] = i
                        new.append(h)
                        left = False
                    else:
                        del cells[r][ck]
                if left:
                    last = lows.pop()
                    if last != k:
                        lows[i] = last
                        slot[last] = i
                i, left = slot[l], True
                if cl >= 0:
                    cell = cells[r + 1][cl]
                    heappop(cell)
                    if cell:
                        h = highs[i] = cell[0]
                        slot[h] = i
                        new.append(h)
                        left = False
                    else:
                        del cells[r + 1][cl]
                if left:
                    last = highs.pop()
                    if last != l:
                        highs[i] = last
                        slot[last] = i
                joins = True
                if ck >= 0:
                    found = cells[r + 1]
                    if found is None:
                        found = cells[r + 1] = {}
                    cell = found.get(ck)
                    if cell is None:
                        found[ck] = [k]
                    else:
                        h = cell[0]
                        heappush(cell, k)
                        joins = False
                        if k < h:
                            slot[k] = i = slot[h]
                            highs[i] = k
                            new.append(k)
                if joins:
                    slot[k] = len(highs)
                    highs.append(k)
                    new.append(k)
                joins = True
                if cl >= 0:
                    found = cells[r]
                    if found is None:
                        found = cells[r] = {}
                    cell = found.get(cl)
                    if cell is None:
                        found[cl] = [l]
                    else:
                        h = cell[0]
                        heappush(cell, l)
                        joins = False
                        if l < h:
                            slot[l] = i = slot[h]
                            lows[i] = l
                            new.append(l)
                if joins:
                    slot[l] = len(lows)
                    lows.append(l)
                    new.append(l)
            # the pairs of each new head, pushed as `_push_from` would push
            # them; (l, k) lowers the target, so its gap fails the test
            for x in new:
                s = run_of[x]
                ax, ex, xd = a[x], e[x], x * d
                for m in heads[s + 1]:
                    gap = ax - a[m]
                    if gap > COEFF_EPS:
                        g = (ex - e[m]) / gap
                        b = buckets.get(g)
                        if b is None:
                            buckets[g] = [xd + m]
                            heappush(grads, g)
                        else:
                            heappush(b, xd + m)
                for m in heads[s - 1]:
                    gap = a[m] - ax
                    if gap > COEFF_EPS:
                        g = (e[m] - ex) / gap
                        b = buckets.get(g)
                        if b is None:
                            buckets[g] = [m * d + x]
                            heappush(grads, g)
                        else:
                            heappush(b, m * d + x)
        return ks, ls


def _readonly(v, dtype=float) -> np.ndarray:
    """v as a read-only array of dtype; an array of that dtype is frozen, not copied."""
    out = np.asarray(v, dtype=dtype)
    out.setflags(write=False)
    return out


def _step_gradients(a_p, e_p, ks, ls) -> np.ndarray:
    """The read-only gradient (e_p[k] - e_p[l]) / (a_p[k] - a_p[l]) of each step (k, l).

    The expression the build chose its steps by, element-wise IEEE with no
    BLAS, so its bits are the build's, -0.0 included. Raises NonFiniteValue
    naming the first step whose gradient overflows or divides by zero.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        grads = (e_p[ks] - e_p[ls]) / (a_p[ks] - a_p[ls])
    if not np.isfinite(grads).all():
        i = int(np.isfinite(grads).argmin())  # the first non-finite one
        raise NonFiniteValue(
            f"step {i} has gradient {float(grads[i])!r}: the cost difference of positions {ks[i]} and "
            f"{ls[i]} over their target difference is not finite in float64"
        )
    return _readonly(grads)


def _trajectory(order, a_p, e_p, p0, ks, ls, alphas, omegas, eps_pop, eps_grad, blocks):
    """An OptimalTrajectory from its initial vertex and steps (lists or arrays).

    The build and the file reader both make trajectories here, so their
    arrays share dtypes and flags. Arrays are taken as they are and made
    read-only: each caller hands over arrays it has just made and keeps no
    other reference to.
    """
    return OptimalTrajectory(
        order=order,
        target_pref=_readonly(a_p),
        cost_pref=_readonly(e_p),
        initial_vertex=_readonly(p0),
        ks=_readonly(ks, np.int32),
        ls=_readonly(ls, np.int32),
        alphas=_readonly(alphas),
        omegas=_readonly(omegas),
        eps_pop=eps_pop,
        eps_grad=eps_grad,
        block_of_position=blocks,
    )


def _queue_steps(prep: _Prepared, p0: np.ndarray):
    """The greedy's steps out of p0 by the swap queue: (ks, ls) lists.

    Each step takes the queue's best swap, the one `next_step` picks at the
    current vertex; the `_SwapQueue` pushes only the pairs of the cells
    whose least member changed, O(cells next to them · log) per step,
    instead of being rebuilt, in one loop (`_SwapQueue.steps`).
    """
    return _SwapQueue(p0, prep).steps(prep.inst.eps_grad)


def _block_pairs(pos: np.ndarray):
    """Every pair (K, L) of the positions pos with K after L, as two int32 arrays.

    int32 halves the memory of the sort's index arrays; past 2**31 pairs
    they are int64.
    """
    n = len(pos)
    index = np.int32 if n * (n - 1) // 2 < 2**31 else np.int64
    i = np.arange(n, dtype=index)
    upper = np.repeat(i, i)  # i once for each j < i
    lower = np.arange(len(upper), dtype=index) - np.repeat(i * (i - 1) // 2, i)
    pos = pos.astype(index)
    return pos[upper], pos[lower]


def _sorted_steps(prep: _Prepared):
    """The greedy's steps from one sort of the pair gradients, or None.

    The steps are (ks, ls) arrays, int32 below 2**31 pairs.

    Along the greedy, every pair of levels K > L of a block swaps exactly
    once, at gradient (e_p[K] - e_p[L]) / (a_p[K] - a_p[L]): the crossing of
    two lines in the kinetic-sorting argument of Basch, Guibas and
    Hershberger ("Data structures for mobile data", J. Algorithms 1999).
    The steps are then all pairs sorted by gradient, provided that:

    1. singleton runs: in every block the sorted populations are more than
       eps_pop apart, so every value is its own run;
    2. ascending target: along every block a_p rises by more than
       COEFF_EPS from each position to the next, so every pair K > L
       raises the target when K takes the larger value (near-equal targets
       of other blocks can chain a block's a_p out of order);
    3. gradients apart: each sorted gradient exceeds the one before it by
       more than eps_grad, the tie test of `_SwapQueue.best` (this also
       excludes equal gradients, triple crossings and a 0.0 / -0.0 pair);
    4. replay: replayed on the value ranks of each block, every step
       exchanges two adjacent values, K holding the smaller one.

    Why they suffice: a swap of adjacent values changes the relative order
    of that one pair only, so along the sorted sequence the queue's
    candidates are exactly the adjacent pairs not yet swapped. The next
    sorted pair is one of them (check 4); its gradient is the least of the
    remaining ones, and no other lies within eps_grad of it (check 3), so
    `best` returns that pair. Once every pair has swapped, each block's
    values ascend with the target and no candidate is left, so the greedy
    stops where the sorted sequence ends. When a check fails this returns
    None and the build runs the queue; either way the outputs are equal
    bit for bit. The cost is O(P log P) for P = sum over blocks of
    n_b (n_b - 1) / 2.

    The sort need not be stable: when check 3 passes the sorted gradients
    rise strictly, and then every sort gives the one permutation that
    orders them; when two gradients are equal check 3 fails, whichever
    order the sort left them in.
    """
    a_p, e_p, lam_p = prep.a_p, prep.e_p, prep.lam_p
    uppers, lowers = [], []
    rank = [0] * len(lam_p)  # value rank in its block, 0 = largest
    for pos in prep.groups:
        if len(pos) < 2:
            continue
        singleton_runs = np.all(np.diff(np.sort(lam_p[pos])) > prep.inst.eps_pop)
        if not (singleton_runs and np.all(np.diff(a_p[pos]) > COEFF_EPS)):
            return None
        upper, lower = _block_pairs(pos)
        uppers.append(upper)
        lowers.append(lower)
        for j, k in enumerate(pos.tolist()):
            rank[k] = j
    if not uppers:
        return [], []
    upper, lower = np.concatenate(uppers), np.concatenate(lowers)
    # the expression `_SwapQueue._push_from` evaluates, element by element
    grads = (e_p[upper] - e_p[lower]) / (a_p[upper] - a_p[lower])
    order = np.argsort(grads)
    grads = grads[order]
    if not np.all(grads[1:] > grads[:-1] + prep.inst.eps_grad):
        return None
    ks, ls = upper[order], lower[order]
    # a memoryview's items are Python ints, made one at a time
    for k, l in zip(memoryview(ks), memoryview(ls)):
        r = rank[l]
        if rank[k] != r + 1:
            return None
        rank[k], rank[l] = r, r + 1
    return ks, ls


def _build(prep: _Prepared) -> OptimalTrajectory:
    """Greedy trajectory from the minimal point of prep, block by block.

    The steps come from one sort of the pair gradients when the instance
    certifies that this is the greedy's order (`_sorted_steps`), and from
    the swap queue otherwise (`_queue_steps`), each as (ks, ls). These are
    then int32 arrays: the queue's lists are freed, and the sorted path's
    arrays are kept as they are. One replay holds one vertex, swaps its
    entries through a memoryview with no numpy call per step, and takes
    the target and cost value of every vertex. The trajectory derives the
    gradients from ks and ls, as a reloaded file's does, and refuses a
    non-finite one with NonFiniteValue (`_step_gradients`).

    alpha and omega are the dot products of each vertex, not running sums,
    so they do not accumulate rounding. Vertices are copied into a buffer
    of at most _DOT_BUFFER entries, and each full buffer gets one
    `np.vecdot` with a_p and one with e_p: vecdot takes each row's dot with
    the routine `np.dot` uses, so every value equals float(np.dot(a_p, v))
    bit for bit, and memory stays O(steps + d).
    """
    a_p, e_p = prep.a_p, prep.e_p
    p0 = _minimal_pref(prep)
    ks, ls = _sorted_steps(prep) or _queue_steps(prep, p0)
    ks, ls = np.asarray(ks, dtype=np.int32), np.asarray(ls, dtype=np.int32)
    alphas, omegas = np.empty(len(ks) + 1), np.empty(len(ks) + 1)
    p = p0.copy()
    pv = memoryview(p)
    d = len(p)
    rows = max(1, _DOT_BUFFER // d)
    cap = rows * d
    flat = np.empty(cap)
    buf, bv = flat.reshape(rows, d), memoryview(flat)
    bv[:d] = pv
    end = d  # flat[:end] holds the vertices not yet dotted
    done = 0  # vertices dotted
    for k, l in zip(memoryview(ks), memoryview(ls)):
        pv[k], pv[l] = pv[l], pv[k]
        if end == cap:
            np.vecdot(buf, a_p, out=alphas[done : done + rows])
            np.vecdot(buf, e_p, out=omegas[done : done + rows])
            done += rows
            end = 0
        bv[end : end + d] = pv
        end += d
    np.vecdot(buf[: end // d], a_p, out=alphas[done:])
    np.vecdot(buf[: end // d], e_p, out=omegas[done:])
    eps_pop, eps_grad = prep.inst.eps_pop, prep.inst.eps_grad
    return _trajectory(prep.order, a_p, e_p, p0, ks, ls, alphas, omegas, eps_pop, eps_grad, prep.blocks)


def build(inst: ProblemInstance) -> OptimalTrajectory:
    """Full optimal trajectory of a validated instance, minimal to maximal point.

    With a conserved vector every swap stays inside one of its blocks.
    Each step is the swap `next_step` takes at the current vertex: the
    smallest gradient, ties within eps_grad to the smallest (k, l). When
    the instance passes the four checks of `_sorted_steps` (populations
    more than eps_pop apart and targets rising by more than COEFF_EPS in
    every block, sorted pair gradients more than eps_grad apart, every
    sorted swap between adjacent values), the steps are all pairs sorted by
    gradient, O(P log P) for P = sum of n_b (n_b - 1) / 2 over the blocks.
    Otherwise they come from a queue of the adjacent pairs that holds one
    pair per pair of equal-(target, cost) cells and is updated only where a
    cell's least member changed (O(cells next to them · log) per step).
    The two give the same arrays bit for bit; the instance alone
    decides. alphas and omegas are the exact dot products of each vertex,
    taken in batches, O(steps · d). The polytope is never enumerated.
    Raises NonFiniteValue when a step gradient overflows float64.
    """
    with _quiet():
        return _build(_prepare(inst))


def omega_opt(traj: OptimalTrajectory, alpha: float) -> float:
    """Minimal cost at target value alpha (piecewise-linear interpolation).

    A binary search on the trajectory's lookup finds alpha's segment, and
    the value is interpolated between its two breakpoints in Python
    floats: O(log steps), no numpy call, no copy, and `check_alpha` is
    called only to raise. The branches are the ones `np.interp` takes for
    two breakpoints, so the value is the one `np.interp` gives on the
    whole arrays, bit for bit.
    """
    low, lo, hi, high, last, xp, fp = traj._lookup
    if not low <= alpha <= high:
        check_alpha(alpha, lo, hi)  # raises
    x = float(lo if alpha < lo else hi if alpha > hi else alpha)
    j = bisect_right(xp, x) - 1
    if j == last or xp[j] == x:
        return fp[j]
    x0, x1, y0, y1 = xp[j], xp[j + 1], fp[j], fp[j + 1]
    slope = (y1 - y0) / (x1 - x0)
    y = slope * (x - x0) + y0
    if y != y:
        # NaN: np.interp tries from the other end, then a flat segment's value
        y = slope * (x - x1) + y1
        if y != y and y0 == y1:
            y = y0
    return y


def state_at(traj: OptimalTrajectory, alpha: float):
    """Input-basis population realizing alpha on the trajectory.

    Returns (population, segment_index, t) where t in [0, 1] is the position
    along the active segment (0 at its start vertex). The segment is found
    as `omega_opt` finds it.
    """
    _, lo, hi, _, _, xp, _ = traj._lookup
    alpha = float(check_alpha(alpha, lo, hi))
    n = len(traj.ks)
    if n == 0:
        return traj.vertex_input(0), 0, 0.0
    seg = min(bisect_right(xp, alpha) - 1, n - 1)
    x0, x1 = xp[seg], xp[seg + 1]
    t = 0.0 if x1 == x0 else (alpha - x0) / (x1 - x0)
    t = min(max(t, 0.0), 1.0)
    start = traj.vertex(seg)
    end = start.copy()
    k, l = traj.ks[seg], traj.ls[seg]
    end[k], end[l] = start[l], start[k]
    p = (1.0 - t) * start + t * end
    return traj.order.to_input(p), int(seg), float(t)


def uniqueness_at_minimum(inst: ProblemInstance) -> MinimumUniqueness:
    """Whether the minimal-point state is unique, and which condition makes it so.

    Condition 1: all target coefficients distinct. Condition 2: cost breaks
    every target degeneracy. Condition 3: the minimal arrangement assigns
    equal populations wherever target and cost are both degenerate. With a
    conserved vector, degeneracies count inside each block only: no allowed
    unitary mixes two blocks.
    """
    with _quiet():
        return _uniqueness_at_minimum(_prepare(inst))


def _uniqueness_at_minimum(prep: _Prepared) -> MinimumUniqueness:
    a_p, e_p = prep.a_p, prep.e_p
    p_min = _minimal_pref(prep)
    # target classes are ranked per block and numbered apart across blocks,
    # as `_maximal_point` ranks them
    ra = np.empty(len(a_p), dtype=int)
    first = 0
    for pos in prep.groups:
        ranks = cluster_ranks(a_p[pos], COEFF_EPS)
        ra[pos] = ranks + first
        first += int(ranks.max()) + 1
    if first == len(a_p):
        return MinimumUniqueness(unique=True, condition=1)
    # cost classes are formed inside each target class, as cluster_ranks on
    # its members would: near-equal costs of other target classes must not
    # chain two of them into one
    by = np.lexsort((e_p, ra))
    new_class = np.r_[True, (np.diff(ra[by]) != 0) | (np.diff(e_p[by]) > COEFF_EPS)]
    starts = np.flatnonzero(new_class)
    sizes = np.diff(np.r_[starts, len(by)])
    pop = p_min[by]
    spread = np.maximum.reduceat(pop, starts) - np.minimum.reduceat(pop, starts)
    tied = sizes >= 2
    if not tied.any():
        return MinimumUniqueness(unique=True, condition=2)
    if not np.any(spread[tied] > prep.inst.eps_pop):
        return MinimumUniqueness(unique=True, condition=3)
    return MinimumUniqueness(unique=False, condition=None)


def _minimal_placement(traj: OptimalTrajectory) -> np.ndarray:
    """The input index the j-th largest eigenvalue takes at the minimal point, for each j.

    The minimal point is descending inside each conserved block, not
    across blocks, so this is the input index of the j-th largest entry of
    initial_vertex (a stable sort; for a flat trajectory that is the
    preferred order itself).
    """
    return traj.order.perm[np.argsort(-traj.initial_vertex, kind="stable")]


def entry_point(traj: OptimalTrajectory, alpha_in: float):
    """Trajectory point at alpha_in plus a two-level route reaching it.

    The route is a chain of T-transforms (input-basis index pairs) that maps
    the descending spectrum placed on positions 0..d-1 to the returned
    populations: first the permutation to the minimal point as full swaps,
    then the completed trajectory swaps, then one partial mix on the active
    segment. Majorization guarantees such a chain exists; this one simply
    replays the trajectory. The permutation sends the j-th largest
    eigenvalue to its input index at the minimal point (`_minimal_placement`).
    """
    from .lift import TTransform

    p, seg, t = state_at(traj, alpha_in)
    d = traj.dim
    chain = []
    perm = _minimal_placement(traj)
    seen = np.zeros(d, dtype=bool)
    for start in range(d):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = int(perm[start])
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = int(perm[nxt])
        # sigma restricted to the cycle is (c0 cm)...(c0 c1), rightmost first
        for c in cycle[1:]:
            chain.append(TTransform(i=cycle[0], j=c, t=0.0, dim=d))
    n_full = seg if t < 1.0 else seg + 1
    input_of = traj.order.perm.tolist()
    for k, l in zip(traj.ks[:n_full].tolist(), traj.ls[:n_full].tolist()):
        chain.append(TTransform(i=input_of[k], j=input_of[l], t=0.0, dim=d))
    if 0.0 < t < 1.0:
        k, l = traj.ks[seg], traj.ls[seg]
        chain.append(TTransform(i=input_of[k], j=input_of[l], t=1.0 - t, dim=d))
    return p, tuple(chain)
