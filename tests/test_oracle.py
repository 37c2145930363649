import dataclasses
import math
import types

import numpy as np
import pytest

from conftest import random_instance
from trajopt import oracle
from trajopt.conserved import block_decompose
from trajopt.core import ALPHA_TOL, ProblemInstance, check_alpha, validate
from trajopt.errors import AlphaOutOfRange
from trajopt.oracle import (
    _audit_images,
    envelope_min_cost,
    induced_polygon,
    monte_carlo_audit,
)
from trajopt.polytope import enumerate_vertices, majorizes
from trajopt.simplex import LPStatus, solve_lp
from trajopt.trajectory import build, omega_opt


def test_induced_polygon_segment():
    vs = enumerate_vertices([0.7, 0.3])
    poly = induced_polygon(vs, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert poly.lower_envelope.shape == (2, 2)
    assert poly.alpha_min == pytest.approx(0.3)
    assert poly.alpha_max == pytest.approx(0.7)


def test_induced_polygon_degenerate_target():
    vs = enumerate_vertices([0.5, 0.3, 0.2])
    poly = induced_polygon(vs, np.ones(3), np.array([0.0, 1.0, 2.0]))
    assert len(poly.lower_envelope) == 1
    assert envelope_min_cost(poly, 1.0) == pytest.approx(0.7)  # 0.5*0 + 0.3*1 + 0.2*2
    with pytest.raises(AlphaOutOfRange):
        envelope_min_cost(poly, 1.5)


def _chain_hull(pts):
    """Andrew's monotone chain, point by point: the hull builder the array passes replaced."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chain = []
    for p in pts:
        while len(chain) > 1 and cross(chain[-2], chain[-1], p) <= 0.0:
            chain.pop()
        chain.append(p)
    return chain


def _chain_polygon(points):
    """lower envelope, upper envelope and hull of (alpha, cost) rows, built with _chain_hull."""
    by_alpha = points[np.lexsort((points[:, 1], points[:, 0]))]
    _, first, counts = np.unique(by_alpha[:, 0], return_index=True, return_counts=True)
    lower = np.array(_chain_hull(by_alpha[first].tolist()))
    top = np.array(_chain_hull(by_alpha[first + counts - 1][::-1].tolist()))
    upper = top[::-1]
    if np.array_equal(top[0], lower[-1]):
        top = top[1:]
    if len(top) and np.array_equal(top[-1], lower[0]):
        top = top[:-1]
    return lower, upper, np.concatenate([lower, top])


def _clouds(rng):
    """Point clouds for the hull: random, tied alphas, collinear runs, convex and concave curves."""
    x = np.linspace(-1.0, 1.0, 33)
    yield rng.normal(size=(200, 2))
    yield np.column_stack([rng.integers(0, 8, 300), rng.normal(size=300)]).astype(float)
    yield np.column_stack([np.arange(12.0), 2.0 * np.arange(12.0) - 3.0])  # one line
    run = np.arange(-4.0, 5.0)
    yield np.concatenate([np.column_stack([run, np.abs(run)]), np.column_stack([run, 8.0 - np.abs(run)])])
    yield np.column_stack([x, x * x])  # lower keeps all, upper keeps the ends
    yield np.column_stack([x, -x * x])  # the reverse
    yield np.array([[0.5, 0.25]])
    yield np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 1.0]])


def test_hull_passes_equal_monotone_chain(rng):
    # the hull, both envelopes and their shapes equal the point-by-point
    # chain's exactly, on hand-made clouds and on projected vertex sets
    cases = [(cloud, np.array([1.0, 0.0]), np.array([0.0, 1.0])) for cloud in _clouds(rng)]
    for _ in range(60):
        d = int(rng.integers(2, 8))
        inst = random_instance(rng, d, degenerate=bool(rng.integers(0, 2)))
        cases.append((enumerate_vertices(inst.eigenvalues).vertices, inst.target, inst.cost))
    for verts, a, e in cases:
        poly = induced_polygon(verts, a, e)
        lower, upper, hull = _chain_polygon(poly.points)
        assert poly.lower_envelope.tobytes() == lower.tobytes() and poly.lower_envelope.shape == lower.shape
        assert poly.upper_envelope.tobytes() == upper.tobytes() and poly.upper_envelope.shape == upper.shape
        assert poly.hull.tobytes() == hull.tobytes() and poly.hull.shape == hull.shape


def test_hull_passes_differ_from_chain_only_by_rounding():
    # a tied d=8 instance whose lower envelope has four points on one line
    # in exact arithmetic; rounding makes one interior point look convex,
    # and the two builders test it against different neighbours, so each
    # keeps a different one. The envelopes agree to the last bit of cost.
    lam = [0.056999657492113574, 0.09265044030195523, 0.13358701872493253, 0.13358701872493253,
           0.1489136788894637, 0.14439083315715823, 0.14548051955228597, 0.14439083315715823]
    a = [0.0, 1.0, 1.0, 0.0, 1.0, 2.0, 0.0, 1.0]
    e = [0.25, 1.0, 0.75, 0.5, 1.0, 1.5, 0.5, 0.0]
    poly = induced_polygon(enumerate_vertices(lam), a, e)
    lower, _, _ = _chain_polygon(poly.points)
    assert len(lower) == len(poly.lower_envelope)
    assert (lower != poly.lower_envelope).any(axis=1).sum() == 1
    alphas = np.linspace(poly.alpha_min, poly.alpha_max, 10_001)
    gap = np.interp(alphas, *lower.T) - np.interp(alphas, *poly.lower_envelope.T)
    assert np.abs(gap).max() <= 2.0**-52


def test_hull_passes_on_curves():
    x = np.linspace(-1.0, 1.0, 33)
    convex = induced_polygon(np.column_stack([x, x * x]), [1.0, 0.0], [0.0, 1.0])
    assert len(convex.lower_envelope) == 33 and len(convex.upper_envelope) == 2
    concave = induced_polygon(np.column_stack([x, -x * x]), [1.0, 0.0], [0.0, 1.0])
    assert len(concave.lower_envelope) == 2 and len(concave.upper_envelope) == 33


def _np_envelope(poly, alpha):
    """envelope_min_cost as np.interp on the lower envelope (the form it replaced)."""
    env = poly.lower_envelope
    return float(np.interp(check_alpha(alpha, poly.alpha_min, poly.alpha_max), env[:, 0], env[:, 1]))


def test_envelope_lookup_is_np_interp_bit_for_bit(rng):
    polys = [induced_polygon(enumerate_vertices([0.5, 0.3, 0.2]), np.ones(3), [0.0, 1.0, 2.0])]
    for i in range(12):
        inst = random_instance(rng, int(rng.integers(3, 7)), degenerate=(i % 2 == 0))
        polys.append(induced_polygon(enumerate_vertices(inst.eigenvalues), inst.target, inst.cost))
    assert len(polys[0].lower_envelope) == 1
    for poly in polys:
        xs = poly.lower_envelope[:, 0]
        lo, hi = poly.alpha_min, poly.alpha_max
        probes = [*xs, *(0.5 * (xs[1:] + xs[:-1])), *rng.uniform(lo, hi, 20)]
        probes += [lo - ALPHA_TOL, lo - 0.5 * ALPHA_TOL, hi + 0.5 * ALPHA_TOL, hi + ALPHA_TOL]
        probes += [np.nextafter(x, np.inf) for x in xs] + [np.nextafter(x, -np.inf) for x in xs[1:]]
        for alpha in map(float, probes):
            got = envelope_min_cost(poly, alpha)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(_np_envelope(poly, alpha)).tobytes(), alpha
        for alpha in (lo - 2 * ALPHA_TOL, hi + 2 * ALPHA_TOL, math.nan):
            with pytest.raises(AlphaOutOfRange):
                envelope_min_cost(poly, alpha)


def test_polygon_builds_the_upper_chain_only_when_read(monkeypatch):
    calls = []
    real = oracle._half_hull

    def counting(pts):
        calls.append(len(pts))
        return real(pts)

    monkeypatch.setattr(oracle, "_half_hull", counting)
    rng = np.random.default_rng(7)
    lam, a, e = rng.dirichlet(np.ones(7)), rng.normal(size=7), rng.normal(size=7)
    poly = induced_polygon(enumerate_vertices(lam), a, e)
    for alpha in rng.uniform(poly.alpha_min, poly.alpha_max, 50):
        envelope_min_cost(poly, float(alpha))
    assert len(calls) == 1
    upper = poly.upper_envelope
    assert len(calls) == 2
    assert poly.upper_envelope is upper and len(poly.hull) and len(calls) == 2


def test_envelope_matches_trajectory(rng):
    for i in range(20):
        inst = random_instance(rng, int(rng.integers(3, 7)), degenerate=(i % 2 == 0))
        traj = build(inst)
        vs = enumerate_vertices(inst.eigenvalues, eps=inst.eps_pop)
        poly = induced_polygon(vs, inst.target, inst.cost)
        for alpha in rng.uniform(traj.alpha_min, traj.alpha_max, 25):
            assert omega_opt(traj, float(alpha)) == pytest.approx(
                envelope_min_cost(poly, float(alpha)), abs=1e-9
            )
        # envelope and hull breakpoints are projections of actual vertices
        hull_pts = {tuple(p) for p in poly.points}
        for bp in poly.lower_envelope:
            assert tuple(bp) in hull_pts
        for hp in poly.hull:
            assert tuple(hp) in hull_pts
        # every projected point lies on or inside the counter-clockwise hull cycle
        h = poly.hull
        nxt = np.roll(h, -1, axis=0)
        for pt in poly.points:
            cross = (nxt[:, 0] - h[:, 0]) * (pt[1] - h[:, 1]) - (nxt[:, 1] - h[:, 1]) * (pt[0] - h[:, 0])
            assert np.all(cross >= -1e-12)
        # upper boundary is concave
        ue = poly.upper_envelope
        if len(ue) > 2:
            slopes = np.diff(ue[:, 1]) / np.diff(ue[:, 0])
            assert np.all(np.diff(slopes) <= 1e-9)


def test_envelope_against_lp_oracle(rng):
    # third independent route: minimize cost over convex combinations with
    # the target pinned, via the in-house simplex
    inst = random_instance(rng, 5)
    vs = enumerate_vertices(inst.eigenvalues).vertices
    poly = induced_polygon(vs, inst.target, inst.cost)
    al = vs @ inst.target
    ep = vs @ inst.cost
    for alpha in rng.uniform(al.min(), al.max(), 10):
        a_eq = np.vstack([al, np.ones(len(vs))])
        b_eq = np.array([alpha, 1.0])
        status, _, value = solve_lp(ep, a_eq, b_eq)
        assert status == LPStatus.OPTIMAL
        assert value == pytest.approx(envelope_min_cost(poly, float(alpha)), abs=1e-9)


def test_monte_carlo_audit_clean_and_identity(rng):
    inst = random_instance(rng, 6)
    traj = build(inst)
    report = monte_carlo_audit(inst, traj, n_samples=1500, seed=3)
    assert report.passed and report.violations == 0
    assert report.min_slack >= -1e-9
    # identity map: the spectrum itself sits on or above the envelope
    alpha = float(inst.target @ inst.eigenvalues)
    eps = float(inst.cost @ inst.eigenvalues)
    assert eps >= omega_opt(traj, alpha) - 1e-9


def test_audit_detects_tampered_trajectory(rng):
    inst = random_instance(rng, 5)
    traj = build(inst)
    # claim impossibly high optimal cost
    bad = dataclasses.replace(traj, omegas=traj.omegas + 0.05)
    report = monte_carlo_audit(inst, bad, n_samples=500, seed=0)
    assert report.violations > 0


def _conserved_instance(rng):
    """Blocks of sizes 3, 1 and 4; the singleton keeps its eigenvalue."""
    d = 8
    return validate(
        ProblemInstance(
            eigenvalues=rng.dirichlet(np.ones(d)),
            target=rng.normal(size=d),
            cost=rng.normal(size=d),
            conserved=np.array([0.0, 2.0, 0.0, 1.0, 2.0, 0.0, 2.0, 2.0]),
        )
    )


def _assert_majorized_images(images, lam, blocks):
    """Each image is a vertex: per block, a permutation of the block's eigenvalues."""
    for idx in map(np.asarray, blocks):
        part = images[:, idx]
        assert np.max(np.abs(part.sum(axis=1) - lam[idx].sum())) < 1e-12
        for row in part:
            assert majorizes(lam[idx], row, 1e-12)
        assert np.array_equal(np.sort(part, axis=1), np.broadcast_to(np.sort(lam[idx]), part.shape))


def test_audit_images_are_majorized_per_block(rng):
    flat = random_instance(rng, 6)
    images = np.vstack(list(_audit_images(flat, 300, seed=4)))
    assert images.shape == (300, 6)
    _assert_majorized_images(images, np.asarray(flat.eigenvalues), [range(6)])

    inst = _conserved_instance(rng)
    lam = np.asarray(inst.eigenvalues)
    images = np.vstack(list(_audit_images(inst, 300, seed=4)))
    assert images.shape == (300, 8)
    _assert_majorized_images(images, lam, block_decompose(inst.conserved).blocks)
    assert np.all(images[:, 3] == lam[3])


def test_audit_images_deterministic_per_seed(rng):
    for inst in (random_instance(rng, 5), _conserved_instance(rng)):
        first = np.vstack(list(_audit_images(inst, 200, seed=7)))
        again = np.vstack(list(_audit_images(inst, 200, seed=7)))
        other = np.vstack(list(_audit_images(inst, 200, seed=8)))
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)


def test_audit_images_span_chunks(rng, monkeypatch):
    """ceil(n / (AUDIT_CHUNK // d)) chunks of whole samples, at least one sample each."""
    inst = random_instance(rng, 64)
    lam = np.asarray(inst.eigenvalues)
    for budget, n in ((oracle.AUDIT_CHUNK, 5000), (64 * 7, 100), (24, 40)):
        monkeypatch.setattr(oracle, "AUDIT_CHUNK", budget)
        per_chunk = max(1, budget // 64)
        chunks = list(_audit_images(inst, n, seed=1))
        assert len(chunks) == math.ceil(n / per_chunk)
        assert [len(c) for c in chunks[:-1]] == [per_chunk] * (len(chunks) - 1)
        images = np.vstack(chunks)
        assert images.shape == (n, 64)
        _assert_majorized_images(images, lam, [range(64)])
    # a budget below one sample still draws whole samples, one per chunk
    monkeypatch.setattr(oracle, "AUDIT_CHUNK", 5)
    inst = _conserved_instance(rng)
    chunks = list(_audit_images(inst, 40, seed=1))
    assert len(chunks) == 40 and all(c.shape == (1, 8) for c in chunks)
    _assert_majorized_images(np.vstack(chunks), np.asarray(inst.eigenvalues), block_decompose(inst.conserved).blocks)


def test_audit_refuses_zero_samples(rng):
    inst = random_instance(rng, 4)
    traj = build(inst)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_samples"):
            monte_carlo_audit(inst, traj, n_samples=n)


def _mixtures(lam, n, rng):
    """The audit's former law, kept as the power test's reference: per image,
    n_perms ~ U{1..2d} uniform permutations of lam with Dirichlet(1) weights."""
    d = len(lam)
    counts = rng.integers(1, 2 * d + 1, size=n)
    owner = np.repeat(np.arange(n), counts)
    w = rng.standard_exponential(len(owner))
    w /= np.add.reduceat(w, np.cumsum(counts) - counts)[owner]
    perms = rng.permuted(np.broadcast_to(np.arange(d), (len(owner), d)), axis=1)
    out = np.zeros((n, d))
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    out[owner[starts]] += np.add.reduceat(w[:, None] * lam[perms], starts)
    return out


def _mixture_images(inst, n_samples, seed):
    yield _mixtures(np.asarray(inst.eigenvalues, dtype=float), n_samples, np.random.default_rng(seed))


def _tampered(traj, kind, rng):
    """The trajectory's (alpha, omega) breakpoints with one planted error: omega
    shifted up by 2 % of its range, one interior breakpoint raised by as much,
    or one interior breakpoint dropped (its chord lies above the convex omega)."""
    alphas, omegas = np.array(traj.alphas), np.array(traj.omegas)
    rise = 0.02 * (omegas.max() - omegas.min())
    if kind == "shift":
        omegas += rise
    else:
        i = int(rng.integers(1, len(alphas) - 1))
        if kind == "raise":
            omegas[i] += rise
        else:
            alphas, omegas = np.delete(alphas, i), np.delete(omegas, i)
    return types.SimpleNamespace(
        alphas=alphas, omegas=omegas, alpha_min=float(alphas[0]), alpha_max=float(alphas[-1])
    )


def test_vertex_audit_detects_more_tampering_than_mixtures(monkeypatch):
    """Vertices are the strongest samples: a mixture falls below a convex omega
    only if one of its vertices does. Over 40 seeded trials per dimension, the
    audit detects each tamper kind at least as often as the former mixture law,
    with equal n_samples, and strictly more often in total."""
    kinds = ("shift", "raise", "drop")
    vertex, mixture = dict.fromkeys(kinds, 0), dict.fromkeys(kinds, 0)
    for d in (6, 8):
        rng = np.random.default_rng(d)
        for trial in range(40):
            inst = random_instance(rng, d)
            traj = build(inst)
            for kind in kinds:
                bad = _tampered(traj, kind, rng)
                vertex[kind] += monte_carlo_audit(inst, bad, n_samples=500, seed=trial).violations > 0
                with monkeypatch.context() as m:
                    m.setattr(oracle, "_audit_images", _mixture_images)
                    mixture[kind] += monte_carlo_audit(inst, bad, n_samples=500, seed=trial).violations > 0
    assert all(vertex[k] >= mixture[k] for k in kinds), (vertex, mixture)
    assert sum(vertex.values()) > sum(mixture.values()), (vertex, mixture)


def test_audit_detects_tampered_conserved_trajectory(rng):
    inst = _conserved_instance(rng)
    traj = build(inst)
    assert monte_carlo_audit(inst, traj, n_samples=500, seed=0).passed
    bad = dataclasses.replace(traj, omegas=traj.omegas + 0.05)
    report = monte_carlo_audit(inst, bad, n_samples=500, seed=0)
    assert report.violations > 0
