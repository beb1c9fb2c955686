"""The Monte Carlo readers against per-draw oracles.

``CubeMachine.draw_classes`` walks a batch of draws once, grouped by the
ancestor map they compose to.  The oracles below are the direct
computations: every draw walked on its own from the finest level, and one
frequency per cell.  The draws are the same, so the counts are the same and
the results must be equal bit for bit, not merely close.
"""
import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hwave.pipeline import (PipelineConfig, _suite_splines, build_bundle,
                            run_pipeline)
from hwave.randomized import (CubeMachine, _level_draws,
                              boundary_layer_probability, sample_omega)
from hwave.space import FIXTURES, generate_space
from hwave.splines import compute_splines_mc

from helpers import coordinate_draws, replace_level, sample_omega_batch

SPACES = [
    (FIXTURES["FIX-A"], 0.25),
    (FIXTURES["FIX-B"], 0.25),
    ("cycle(16, scale=1)", 0.2),
    ("cycle(64, scale=1)", 0.2),
    ("random_cloud(20, 2, 1)", 0.25),
    ("grid(6, 2)", 0.25),
]


@pytest.fixture(scope="module", params=SPACES, ids=[d for d, _ in SPACES])
def bundle(request):
    desc, delta = request.param
    return build_bundle(generate_space(desc), delta)


@pytest.fixture(scope="module")
def bundle_c16():
    return build_bundle(generate_space("cycle(16, scale=1)"), 0.2)


def _ancestors_per_draw(machine, seed, nsamples, k):
    """Level-k ancestors of every point, each draw walked from the finest level."""
    h = machine.h
    n = h.level(h.k_fine).size
    anc = np.broadcast_to(np.arange(n, dtype=np.int32), (nsamples, n)).copy()
    for kk in range(h.k_fine - 1, k - 1, -1):
        outcomes = machine.sample_outcomes(seed, nsamples, kk)
        anc = machine.parent_tables[kk][outcomes[:, None], anc]
    return anc


def _splines_per_cell(machine, nsamples, seed):
    """Membership frequency of every cell, one mean over the draws per cell."""
    h = machine.h
    n = h.level(h.k_fine).size
    freq, errs = [], []
    for k in range(h.k_coarse, h.k_fine + 1):
        anc = _ancestors_per_draw(machine, seed, nsamples, k)
        table = np.zeros((h.level(k).size, n))
        for alpha in range(table.shape[0]):
            table[alpha] = (anc == alpha).mean(axis=0)
        freq.append(table)
        errs.append(np.sqrt(table * (1.0 - table) / nsamples))
    return freq, errs


def _boundary_per_draw(machine, x, k, eps, nsamples, seed):
    """Share of draws whose level-k cube of x has a foreign point within eps delta^k."""
    anc = _ancestors_per_draw(machine, seed, nsamples, k)
    member = anc == anc[:, x][:, None]
    masked = np.where(member, math.inf, machine.space.dist[x][None, :])
    return float((masked.min(axis=1) < eps * machine.h.scale(k)).mean())


@pytest.mark.parametrize("nsamples", [1, 7, 1000])
def test_splines_mc_equals_per_cell_oracle(bundle, nsamples):
    h = bundle.hierarchy
    mc, err = compute_splines_mc(bundle.machine, nsamples, seed=5)
    freq, errs = _splines_per_cell(bundle.machine, nsamples, seed=5)
    for i, k in enumerate(range(h.k_coarse, h.k_fine + 1)):
        assert np.array_equal(mc.at(k), freq[i]), k
        assert np.array_equal(err.at(k), errs[i]), k


def test_ancestors_batch_equals_per_draw_walk(bundle):
    h, machine = bundle.hierarchy, bundle.machine
    for k in range(h.k_coarse, h.k_fine + 1):
        got = machine.ancestors_batch(3, 500, k)
        want = _ancestors_per_draw(machine, 3, 500, k)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), k


def test_boundary_layer_equals_per_draw_oracle(bundle):
    h, machine = bundle.hierarchy, bundle.machine
    n = bundle.space.n
    estimates = []
    for k in range(h.k_coarse, h.k_fine + 1):
        for eps in (0.25, 0.5, 1.0):
            for x in sorted({0, 3 % n, n // 2}):
                est = boundary_layer_probability(machine, x, k, eps, 1000, 7)
                assert est.estimate == _boundary_per_draw(machine, x, k, eps,
                                                          1000, 7), (x, k, eps)
                estimates.append(est.estimate)
    if h.delta == 0.2:
        # the genuinely random cycles: some layers are hit by some draws only
        assert any(0.0 < p < 1.0 for p in estimates)


def test_draw_classes_partition_the_draws(bundle):
    h, machine = bundle.hierarchy, bundle.machine
    nsamples = 3000
    levels = []
    for k, anc, counts, inverse in machine.draw_classes(1, nsamples, h.k_coarse):
        levels.append(k)
        read = h.k_fine - k
        assert counts.sum() == nsamples
        assert counts.size <= min(nsamples, machine.n_outcomes ** read)
        assert np.array_equal(np.bincount(inverse), counts)
        assert anc.shape == (counts.size, h.level(h.k_fine).size)
        # one class per distinct map: rows pairwise distinct, as many as the
        # per-draw walk has distinct rows
        assert np.unique(anc, axis=0).shape[0] == counts.size
        oracle = _ancestors_per_draw(machine, 1, nsamples, k)
        assert np.unique(oracle, axis=0).shape[0] == counts.size
    assert levels == list(range(h.k_fine, h.k_coarse - 1, -1))


@pytest.mark.parametrize("desc,delta,nsamples,want", [
    ("grid(16, 2)", 0.25, 1000, [1, 1, 1]),
    ("cycle(64, scale=1)", 0.2, 100_000, [1, 8, 23, 1]),
])
def test_class_counts_pinned(desc, delta, nsamples, want):
    """Haar-type cubes at delta 1/4 leave one map per level; on cycle(64) at
    0.2 the 9,261 outcome histories of three levels give 23 maps."""
    machine = build_bundle(generate_space(desc), delta).machine
    got = [counts.size for _, _, counts, _ in
           machine.draw_classes(1, nsamples, machine.h.k_coarse)]
    assert got == want


def _assert_rows_equal_coordinate_draws(machine, order, nsamples):
    h = machine.h
    want = machine.outcome_index(*sample_omega_batch(order, 9, nsamples))
    for i, k in enumerate(range(h.k_coarse, h.k_fine)):
        got = machine.sample_outcomes(9, nsamples, k)
        assert got.shape == want[i].shape
        assert got.dtype == np.int64
        assert np.array_equal(got, want[i]), k


@pytest.mark.parametrize("nsamples", [1, 7, 1000])
def test_sample_outcomes_equal_coordinate_draws(bundle, nsamples):
    _assert_rows_equal_coordinate_draws(bundle.machine, bundle.order, nsamples)


# L = 0: ell has one value and takes nothing from its stream
L_ZERO = [("line(64)", 0.99), ("line(16)", 0.5)]


@pytest.fixture(scope="module", params=L_ZERO, ids=[d for d, _ in L_ZERO])
def bundle_l0(request):
    desc, delta = request.param
    b = build_bundle(generate_space(desc), delta)
    assert b.order.L == 0
    return b


@pytest.mark.parametrize("nsamples", [1, 7, 1000])
def test_sample_outcomes_equal_coordinate_draws_at_l_zero(bundle_l0, nsamples):
    _assert_rows_equal_coordinate_draws(bundle_l0.machine, bundle_l0.order,
                                        nsamples)
    omega = sample_omega(bundle_l0.order, 9)
    ell, m = sample_omega_batch(bundle_l0.order, 9, nsamples)
    assert np.array_equal(omega.ell, ell[:, 0])
    assert np.array_equal(omega.m, m[:, 0])


@pytest.mark.parametrize("L, M", [(0, 1), (3, 1), (0, 2), (2, 7)])
@pytest.mark.parametrize("nsamples", [1, 7, 1000])
def test_level_draws_are_the_coordinates_less_their_lows(L, M, nsamples):
    """Every space with two or more levels has a cell with two children, so
    M = 1 is reached through a bare order: a range of one value is all
    zeros, as the 1-based draw less one."""
    order = SimpleNamespace(L=L, M=M)
    ell, m0 = _level_draws(order, 9, 2, nsamples)
    want_ell, want_m = coordinate_draws(order, 9, 2, nsamples)
    assert np.array_equal(ell, want_ell)
    assert np.array_equal(m0, want_m - 1)


ALIASING = [("cycle(64, scale=1)", 0.2), (FIXTURES["FIX-B"], 0.25),
            ("line(16)", 0.5)]


@pytest.mark.parametrize("desc,delta", ALIASING, ids=[d for d, _ in ALIASING])
def test_kept_classes_survive_the_walk(desc, delta):
    """Every level's (anc, counts, inverse), collected first and read after
    the generator is spent, still equals the per-draw walk: the walk writes
    no array it has yielded."""
    machine = build_bundle(generate_space(desc), delta).machine
    h = machine.h
    nsamples = 2000
    walked = list(machine.draw_classes(6, nsamples, h.k_coarse))
    assert [lev for lev, *_ in walked] == list(range(h.k_fine, h.k_coarse - 1, -1))
    for k, anc, counts, inverse in walked:
        assert (anc.dtype, counts.dtype, inverse.dtype) == (
            np.int32, np.int64, np.intp)
        assert np.array_equal(anc[inverse],
                              _ancestors_per_draw(machine, 6, nsamples, k)), k
        assert np.array_equal(counts, np.bincount(inverse)), k


def test_outcomes_drawn_one_level_at_a_time(monkeypatch):
    """The walk draws each level's row of outcomes when it reaches the level:
    no call returns the (levels x draws) matrix, 2.6 GiB at 3,466 levels."""
    shapes = []
    draw = CubeMachine.sample_outcomes

    def recorded(self, *args):
        rows = draw(self, *args)
        shapes.append(rows.shape)
        return rows

    monkeypatch.setattr(CubeMachine, "sample_outcomes", recorded)
    config = PipelineConfig(space="line(64)", delta=0.9, nsamples=500)
    machine = run_pipeline(config).bundle.machine
    h = machine.h
    boundary_layer_probability(machine, 0, h.k_coarse, 0.5, 500, 1)
    machine.ancestors_batch(1, 500, h.k_coarse)
    assert len(shapes) == 3 * (h.num_levels - 1)
    assert set(shapes) == {(500,)}


@pytest.mark.parametrize("desc,delta,limit_mb", [
    ("grid(16, 2)", 0.25, 16.0),
    ("cycle(64, scale=1)", 0.2, 12.0),
])
def test_splines_mc_memory_bounded(desc, delta, limit_mb):
    """100,000 draws: the walk holds one row per distinct map, not one per
    outcome history (grouping by history peaked at 270 MB and 21 MB here)."""
    machine = build_bundle(generate_space(desc), delta).machine
    tracemalloc.start()
    try:
        compute_splines_mc(machine, 100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6, peak


def test_mc_stays_a_sample(bundle_c16):
    """Fifty draws on a genuinely random space: the tables depend on the seed
    and differ from the exact dynamic program."""
    h = bundle_c16.hierarchy
    levels = range(h.k_coarse, h.k_fine + 1)
    a, _ = compute_splines_mc(bundle_c16.machine, 50, seed=1)
    b, _ = compute_splines_mc(bundle_c16.machine, 50, seed=2)
    assert any(not np.array_equal(a.at(k), b.at(k)) for k in levels)
    for mc in (a, b):
        assert any(not np.array_equal(mc.at(k), bundle_c16.splines.at(k))
                   for k in levels)


def _agreement(b, seed, nsamples):
    (rec,) = [c for c in _suite_splines(b, seed, nsamples)
              if c.name == "spline-sampling-agreement"]
    return rec


def _move_one_entry(b, by=0.05):
    """The bundle with its most uncertain level-(k_fine - 1) entry moved."""
    h = b.hierarchy
    k = h.k_fine - 1
    moved = b.splines.at(k).copy()
    alpha, x = np.unravel_index(np.argmax(moved * (1.0 - moved)), moved.shape)
    moved[alpha, x] += by
    return dataclasses.replace(b, splines=replace_level(b.splines, k, moved))


def test_spline_sampling_agreement_can_fail(bundle_c16):
    """One exact entry moved by 0.05 must fail the cross-check, and the
    record must carry the deviation it measured."""
    nsamples = 100_000
    assert _agreement(bundle_c16, 4, nsamples).passed
    moved = _move_one_entry(bundle_c16)
    h, splines = moved.hierarchy, moved.splines
    rec = _agreement(moved, 4, nsamples)
    mc, _ = compute_splines_mc(bundle_c16.machine, nsamples, 4)
    dev = max(float(np.abs(mc.at(kk) - splines.at(kk)).max())
              for kk in range(h.k_coarse, h.k_fine + 1))
    assert dev > 0.04
    assert not rec.passed
    assert rec.margin == rec.tolerance - dev < 0
    assert f"max entry deviation {dev:.3g}" in rec.detail


def test_default_sample_size_catches_a_moved_entry(bundle_c16):
    """At the default number of draws the tolerance is 0.01, so the run's own
    cross-check fails an entry moved by 0.05 (1,000 draws allowed 0.079)."""
    config = PipelineConfig(space="cycle(16, scale=1)", delta=0.2)
    assert _agreement(bundle_c16, config.seed, config.nsamples).passed
    rec = _agreement(_move_one_entry(bundle_c16), config.seed, config.nsamples)
    assert not rec.passed
    assert rec.tolerance == 0.01
