"""Construction and evaluation of the optimal trajectory.

The trajectory starts at the vertex minimizing the target (cost-minimal
among those), then repeatedly applies the target-increasing swap of
adjacent-valued populations with the smallest cost-per-target gradient,
until no such swap remains. The resulting minimal cost is continuous,
piecewise linear and convex in the target value.

One candidate generator, `_SwapQueue`, answers every query. Built at any
vertex it lists the candidate swaps (`swap_candidates`) and picks the
optimal one (`next_step`); `build` keeps one queue for the whole
trajectory. A swap of k and l replaces just the pairs touching k or l, so
a step costs O(pairs touching k or l · log) instead of a pass over every
pair. Ties within eps_grad go to the smallest (k, l). A build step makes
no numpy call: the vertex's entries are swapped through a memoryview, and
the target and cost values of the vertices are dotted a buffer of
vertices at a time (`np.vecdot`), equal bit for bit to one `np.dot` each.

Every construction runs on one prepared instance (`_prepare`): the
preferred order, the coefficients and spectrum in that order, and the
conserved block of each position. A flat instance is the one-block case,
so `conserved` calls the same functions with its blocks.

A trajectory is stored as its steps: the minimal-point vertex
(`initial_vertex`) and one entry per step in flat arrays (`ks`, `ls`,
`gradients`, `delta_alphas`) plus the target and cost value of every vertex
(`alphas`, `omegas`), O(steps + d) in all. Each vertex is the one before it
with two entries exchanged, so `vertex(i)` replays the first i swaps from
`initial_vertex`; `steps` is a read-only sequence that makes a `SwapStep`
when one is read, and `breakpoints` stacks `alphas` and `omegas`.
`omega_opt` interpolates on the two breakpoints around alpha, found by
binary search, so it costs O(log steps) per call.

Vertices and step indices are stored in preferred-basis coordinates;
population vectors returned to callers are in the input basis.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    COEFF_EPS,
    PreferredOrder,
    ProblemInstance,
    _frozen,
    check_alpha,
    cluster_ranks,
    preferred_order,
)
from .errors import NotAVertex

# float64 entries of the vertex buffer whose rows `_build` dots in one call (64 KB)
_DOT_BUFFER = 2**13


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


@dataclass(frozen=True, eq=False)
class MinimalCostFunction:
    """Piecewise-linear convex minimal cost on [alpha_min, alpha_max].

    A call finds alpha's segment by binary search and gives `np.interp`
    only its two breakpoints, so it costs O(log steps): np.interp copies
    the read-only arrays it is given. The value is the one `np.interp`
    gives on the whole arrays, bit for bit.
    """

    alphas: np.ndarray
    omegas: np.ndarray

    @property
    def alpha_min(self) -> float:
        return float(self.alphas[0])

    @property
    def alpha_max(self) -> float:
        return float(self.alphas[-1])

    def __call__(self, alpha: float) -> float:
        alpha = check_alpha(alpha, self.alpha_min, self.alpha_max)
        j = int(self.alphas.searchsorted(alpha, "right")) - 1
        return float(np.interp(alpha, self.alphas[j : j + 2], self.omegas[j : j + 2]))


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
    of each of the steps + 1 vertices, so memory is O(steps + d). Vertices
    are replayed from initial_vertex on request (`vertex`), and `steps`
    reads the arrays as SwapStep objects.
    """

    order: PreferredOrder
    target_pref: np.ndarray
    cost_pref: np.ndarray
    initial_vertex: np.ndarray  # (d,), preferred coordinates
    ks: np.ndarray  # (steps,) int32
    ls: np.ndarray  # (steps,) int32
    gradients: np.ndarray  # (steps,)
    delta_alphas: np.ndarray  # (steps,)
    alphas: np.ndarray  # (steps + 1,)
    omegas: np.ndarray  # (steps + 1,)
    eps_pop: float
    eps_grad: float
    block_of_position: np.ndarray | None = None

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
    def cost_function(self) -> MinimalCostFunction:
        return MinimalCostFunction(alphas=self.alphas, omegas=self.omegas)

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
    preferred position i, and blocks=None is a single block (a flat
    instance). Every block is treated alike, so a flat instance is the
    one-block case of a conserved one.
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
        if self.blocks is None:
            return [np.arange(len(self.lam_p))]
        return [np.nonzero(self.blocks == b)[0] for b in range(int(self.blocks.max()) + 1)]


def _prepare(inst: ProblemInstance, structure=None) -> _Prepared:
    """Preferred order, coefficients and spectrum of inst; structure is a BlockStructure."""
    order = preferred_order(inst.target, inst.cost)
    blocks = None
    if structure is not None:
        block_of_input = np.empty(inst.dim, dtype=int)
        for b, block in enumerate(structure.blocks):
            block_of_input[np.asarray(block)] = b
        blocks = block_of_input[order.perm]
    return _Prepared(
        inst=inst,
        order=order,
        a_p=order.to_preferred(inst.target),
        e_p=order.to_preferred(inst.cost),
        lam_p=order.to_preferred(inst.eigenvalues),
        blocks=blocks,
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
    prep = _prepare(inst)
    return prep.order.to_input(_minimal_pref(prep))


def maximal_vertex(inst: ProblemInstance) -> np.ndarray:
    """Input-basis populations of the trajectory's maximal point."""
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

    Indices are input-basis; i carries the larger target coefficient. The
    list is sorted by the preferred-order positions (k, l) of (i, j), and
    `next_step` takes its first entry whose gradient lies within eps_grad
    of the smallest. Raises NotAVertex unless p is a permutation of the
    eigenvalues.
    """
    return _swap_candidates(_prepare(inst), p)


def next_step(p, inst: ProblemInstance) -> SwapStep | None:
    """The optimal swap out of vertex p (input basis), or None at the maximum."""
    prep = _prepare(inst)
    pp, queue = _candidates_at(prep, p)
    chosen = queue.best(inst.eps_grad)
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
    only when it is swapped. After swapping k and l the new candidates are
    exactly the pairs touching k or l, so only those are pushed. An entry
    carries the swap counts of its two positions when pushed and is stale
    once either has been swapped again; stale entries are dropped when they
    reach the top of their heap.

    Entries are bucketed by exact gradient, each bucket a heap ordered by
    (k, l), so the eps_grad tie rule (smallest (k, l) among the gradients
    within eps_grad of the least) needs only the top of each tied bucket.
    Each entry keeps its own gradient, so a -0.0 survives a shared bucket.

    Each run is a list, and a position's slot in its run is kept, so a swap
    exchanges k and l in their runs' lists in O(1).
    """

    def __init__(self, p, prep: _Prepared):
        self._a = prep.a_p.tolist()
        self._e = prep.e_p.tolist()
        self._version = [0] * len(p)
        self._run_of = [0] * len(p)
        self._slot = [0] * len(p)  # index of each position in its run's list
        self._runs = [[]]  # empty sentinels before, between and after blocks
        for pos in prep.groups:
            members = pos[np.argsort(p[pos], kind="stable")]
            splits = np.nonzero(np.diff(p[members]) > prep.inst.eps_pop)[0] + 1
            for run in np.split(members, splits):
                run = run.tolist()
                for i, k in enumerate(run):
                    self._run_of[k] = len(self._runs)
                    self._slot[k] = i
                self._runs.append(run)
            self._runs.append([])
        self._grads = []  # heap of the bucket keys
        self._buckets = {}  # gradient -> heap of (k, l, version k, version l, gradient)
        for lows, highs in zip(self._runs, self._runs[1:]):
            for k in lows:
                self._push_from(k, highs, None)

    def _push_from(self, k, highs, skip):
        """Push (k, m) for every m in highs but skip, where a[k] - a[m] > COEFF_EPS."""
        a, e, version, buckets = self._a, self._e, self._version, self._buckets
        ak, ek, vk = a[k], e[k], version[k]
        for m in highs:
            gap = ak - a[m]
            if gap > COEFF_EPS and m != skip:
                grad = (ek - e[m]) / gap
                bucket = buckets.get(grad)
                if bucket is None:
                    bucket = buckets[grad] = []
                    heapq.heappush(self._grads, grad)
                heapq.heappush(bucket, (k, m, vk, version[m], grad))

    def _push_to(self, lows, l, skip):
        """Push (m, l) for every m in lows but skip, where a[m] - a[l] > COEFF_EPS."""
        a, e, version, buckets = self._a, self._e, self._version, self._buckets
        al, el, vl = a[l], e[l], version[l]
        for m in lows:
            gap = a[m] - al
            if gap > COEFF_EPS and m != skip:
                grad = (e[m] - el) / gap
                bucket = buckets.get(grad)
                if bucket is None:
                    bucket = buckets[grad] = []
                    heapq.heappush(self._grads, grad)
                heapq.heappush(bucket, (m, l, version[m], vl, grad))

    def _top(self, grad):
        """Smallest live entry of a bucket; drops the bucket when none is left."""
        bucket = self._buckets[grad]
        version = self._version
        while bucket:
            top = bucket[0]
            if version[top[0]] == top[2] and version[top[1]] == top[3]:
                return top
            heapq.heappop(bucket)
        del self._buckets[grad]
        return None

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
            return top[0], top[1], top[4]
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
        return best[0], best[1], best[4]

    def entries(self):
        """The live (k, l, gradient) entries, sorted by (k, l)."""
        version = self._version
        return sorted(
            (k, l, grad)
            for bucket in self._buckets.values()
            for k, l, vk, vl, grad in bucket
            if version[k] == vk and version[l] == vl
        )

    def swap(self, k, l):
        """Record the swap of k (run r) with l (run r + 1) and push the new pairs.

        The swapped pair itself is not pushed back: (l, k) lowers the target.
        """
        runs, run_of, slot, version = self._runs, self._run_of, self._slot, self._version
        r = run_of[k]
        sk, sl = slot[k], slot[l]
        runs[r][sk] = l
        runs[r + 1][sl] = k
        slot[k], slot[l] = sl, sk
        run_of[k], run_of[l] = r + 1, r
        version[k] += 1
        version[l] += 1
        self._push_from(k, runs[r + 2], None)
        self._push_to(runs[r], k, l)
        self._push_from(l, runs[r + 1], k)
        self._push_to(runs[r - 1], l, None)


def _trajectory(order, a_p, e_p, p0, ks, ls, gradients, alphas, omegas, eps_pop, eps_grad, blocks):
    """An OptimalTrajectory from its initial vertex and step lists.

    The build and the file reader both make trajectories here, so their
    arrays share dtypes and flags. Each step's delta_alpha is computed
    from the lists alone, replaying the swaps on a list copy of p0:
    Python floats round exactly as numpy float64 scalars do.
    """
    a = a_p.tolist()
    p = p0.tolist()
    deltas = []
    for k, l in zip(ks, ls):
        deltas.append((a[k] - a[l]) * (p[l] - p[k]))
        p[k], p[l] = p[l], p[k]
    return OptimalTrajectory(
        order=order,
        target_pref=_frozen(a_p),
        cost_pref=_frozen(e_p),
        initial_vertex=_frozen(p0),
        ks=_frozen(ks, np.int32),
        ls=_frozen(ls, np.int32),
        gradients=_frozen(gradients),
        delta_alphas=_frozen(deltas),
        alphas=_frozen(alphas),
        omegas=_frozen(omegas),
        eps_pop=eps_pop,
        eps_grad=eps_grad,
        block_of_position=blocks,
    )


def _build(prep: _Prepared) -> OptimalTrajectory:
    """Greedy trajectory from the minimal point of prep, block by block.

    Each step takes the queue's best swap, the one `next_step` picks at the
    current vertex; the `_SwapQueue` is updated in O(pairs touching the
    swapped positions · log) per step instead of being rebuilt. The loop
    appends to flat lists, one entry per step, holds one vertex and swaps
    its entries through a memoryview, with no numpy call per step.

    alpha and omega are the dot products of each vertex, not running sums,
    so they do not accumulate rounding. Vertices are copied into a buffer
    of at most _DOT_BUFFER entries, and each full buffer gets one
    `np.vecdot` with a_p and one with e_p: vecdot takes each row's dot with
    the routine `np.dot` uses, so every value equals float(np.dot(a_p, v))
    bit for bit, and memory stays O(steps + d).
    """
    a_p, e_p, eps_grad = prep.a_p, prep.e_p, prep.inst.eps_grad
    p0 = _minimal_pref(prep)
    p = p0.copy()
    pv = memoryview(p)
    queue = _SwapQueue(p, prep)
    ks, ls, grads, alphas, omegas = [], [], [], [], []
    d = len(p)
    flat = np.empty(max(1, _DOT_BUFFER // d) * d)
    buf, bv = flat.reshape(-1, d), memoryview(flat)
    bv[:d] = pv
    end = d  # flat[:end] holds the vertices not yet dotted
    while (chosen := queue.best(eps_grad)) is not None:
        k, l, grad = chosen
        pv[k], pv[l] = pv[l], pv[k]
        queue.swap(k, l)
        ks.append(k)
        ls.append(l)
        grads.append(grad)
        if end == len(flat):
            alphas += np.vecdot(buf, a_p).tolist()
            omegas += np.vecdot(buf, e_p).tolist()
            end = 0
        bv[end : end + d] = pv
        end += d
    alphas += np.vecdot(buf[: end // d], a_p).tolist()
    omegas += np.vecdot(buf[: end // d], e_p).tolist()
    return _trajectory(
        prep.order, a_p, e_p, p0, ks, ls, grads, alphas, omegas, prep.inst.eps_pop, eps_grad, prep.blocks
    )


def build(inst: ProblemInstance) -> OptimalTrajectory:
    """Full optimal trajectory of a validated instance, minimal to maximal point.

    Each step takes the next swap from a queue of the adjacent pairs, updated
    only for the pairs touching the swapped positions (O(those pairs · log)
    per step, with no numpy call); ties within eps_grad go to the smallest
    (k, l), as in `next_step`. alphas and omegas are the exact dot products
    of each vertex, taken in batches. The polytope is never enumerated.
    """
    return _build(_prepare(inst))


def omega_opt(traj: OptimalTrajectory, alpha: float) -> float:
    """Minimal cost at target value alpha (piecewise-linear interpolation)."""
    return traj.cost_function(alpha)


def state_at(traj: OptimalTrajectory, alpha: float):
    """Input-basis population realizing alpha on the trajectory.

    Returns (population, segment_index, t) where t in [0, 1] is the position
    along the active segment (0 at its start vertex).
    """
    alpha = check_alpha(alpha, traj.alpha_min, traj.alpha_max)
    alphas = traj.alphas
    n = len(traj.ks)
    if n == 0:
        return traj.vertex_input(0), 0, 0.0
    seg = min(bisect_right(alphas, alpha) - 1, n - 1)
    seg = max(seg, 0)
    lo, hi = alphas[seg], alphas[seg + 1]
    t = 0.0 if hi == lo else (alpha - lo) / (hi - lo)
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
    equal populations wherever target and cost are both degenerate.
    """
    prep = _prepare(inst)
    a_p, e_p = prep.a_p, prep.e_p
    p_min = _minimal_pref(prep)
    ra = cluster_ranks(a_p, COEFF_EPS)
    if len(np.unique(ra)) == len(a_p):
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
    if not np.any(spread[tied] > inst.eps_pop):
        return MinimumUniqueness(unique=True, condition=3)
    return MinimumUniqueness(unique=False, condition=None)


def entry_point(traj: OptimalTrajectory, alpha_in: float):
    """Trajectory point at alpha_in plus a two-level route reaching it.

    The route is a chain of T-transforms (input-basis index pairs) that maps
    the descending spectrum placed on positions 0..d-1 to the returned
    populations: first the permutation to the minimal point as full swaps,
    then the completed trajectory swaps, then one partial mix on the active
    segment. Majorization guarantees such a chain exists; this one simply
    replays the trajectory.
    """
    from .lift import TTransform

    p, seg, t = state_at(traj, alpha_in)
    d = traj.dim
    chain = []
    perm = traj.order.perm
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
    input_of = perm.tolist()
    for k, l in zip(traj.ks[:n_full].tolist(), traj.ls[:n_full].tolist()):
        chain.append(TTransform(i=input_of[k], j=input_of[l], t=0.0, dim=d))
    if 0.0 < t < 1.0:
        k, l = traj.ks[seg], traj.ls[seg]
        chain.append(TTransform(i=input_of[k], j=input_of[l], t=1.0 - t, dim=d))
    return p, tuple(chain)
