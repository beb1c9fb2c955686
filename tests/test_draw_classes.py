"""The Monte Carlo readers against per-draw oracles.

``CubeMachine.draw_classes`` walks a batch of draws once, grouped by the
ancestor map they compose to, and splits each class's draws over a level's
outcomes by multinomial counts.  The oracles below are the direct
computations: each level's split expanded into one outcome per draw, every
draw walked on its own from the finest level (``helpers.per_draw_walk``),
and one frequency per cell.  The counts are the same, so the results must
be equal bit for bit, not merely close.  The split's law is tested on its
own against the uniform coordinates.
"""
import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hwave.pipeline import (PipelineConfig, _suite_splines, build_bundle,
                            run_pipeline)
from hwave.randomized import (CubeMachine, _level_draws, _level_split,
                              boundary_layer_probability, sample_omega)
from hwave.space import FIXTURES, generate_space
from hwave.splines import compute_splines_mc

from helpers import (ancestors_per_draw, coordinate_draws, per_draw_walk,
                     replace_level, sample_omega_batch)

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


def _splines_per_cell(machine, nsamples, seed):
    """Membership frequency of every cell, one mean over the draws per cell."""
    h = machine.h
    n = h.level(h.k_fine).size
    freq, errs = [], []
    for k in range(h.k_coarse, h.k_fine + 1):
        anc = ancestors_per_draw(machine, seed, nsamples, k)
        table = np.zeros((h.level(k).size, n))
        for alpha in range(table.shape[0]):
            table[alpha] = (anc == alpha).mean(axis=0)
        freq.append(table)
        errs.append(np.sqrt(table * (1.0 - table) / nsamples))
    return freq, errs


def _boundary_per_draw(machine, x, k, eps, nsamples, seed):
    """Share of draws whose level-k cube of x has a foreign point within eps delta^k."""
    anc = ancestors_per_draw(machine, seed, nsamples, k)
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
        want = ancestors_per_draw(machine, 3, 500, k)
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
    walk = per_draw_walk(machine, 1, nsamples, h.k_coarse)
    for (k, anc, counts), (kk, oracle) in zip(
            machine.draw_classes(1, nsamples, h.k_coarse), walk):
        assert k == kk
        levels.append(k)
        read = h.k_fine - k
        assert counts.sum() == nsamples
        assert counts.min() >= 1
        assert counts.size <= min(nsamples, machine.n_outcomes ** read)
        assert anc.shape == (counts.size, h.level(h.k_fine).size)
        # one class per distinct map: rows pairwise distinct, as many as the
        # per-draw walk has distinct rows
        assert np.unique(anc, axis=0).shape[0] == counts.size
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
    got = [counts.size for _, _, counts in
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


def _chi2_exceeds(observed, total):
    """Whether the chi-square statistic of ``observed`` against the uniform
    law over its cells exceeds the 0.999 quantile (Wilson-Hilferty)."""
    cells = observed.size
    expected = total / cells
    stat = float(((observed - expected) ** 2).sum() / expected)
    df = cells - 1
    q = df * (1 - 2 / (9 * df) + 3.0902 * math.sqrt(2 / (9 * df))) ** 3
    return stat > q


@pytest.mark.parametrize("L, M", [(2, 7), (0, 2), (3, 1), (1, 3)])
@pytest.mark.parametrize("seed", [1, 2])
def test_split_law_is_uniform(L, M, seed):
    """One class of 10^7 draws: the ell and m marginals of the split and
    its joint outcome counts pass a chi-square against uniform, and the
    same statistic refuses the joint counts with 1% of one cell's expected
    draws moved to another cell."""
    total = 10**7
    split = _level_split(SimpleNamespace(L=L, M=M), seed, 3,
                         np.array([total], dtype=np.int64))
    assert split.shape == (1, (L + 1) * M) and split.dtype == np.int64
    assert split.sum() == total
    joint = split.reshape(L + 1, M)
    for observed in (joint.sum(axis=1), joint.sum(axis=0), joint.ravel()):
        if observed.size > 1:
            assert not _chi2_exceeds(observed, total)
    moved = joint.ravel().copy()
    moved[0] -= total // moved.size // 100
    moved[-1] += total // moved.size // 100
    assert _chi2_exceeds(moved, total)


def test_split_reads_each_coordinate_from_its_stream():
    """Column ell * M + m - 1: the ell counts are stream 0's multinomial of
    the class counts, the m counts stream 1's of the ell counts, per
    (seed, level, coordinate) as ``_level_draws`` reads them."""
    order = SimpleNamespace(L=2, M=3)
    counts = np.array([5, 1, 1000, 10**15], dtype=np.int64)
    split = _level_split(order, 4, 1, counts).reshape(4, 3, 3)

    def stream(which):
        return np.random.default_rng(np.random.SeedSequence([4, 1, which]))

    ell = stream(0).multinomial(counts, [1 / 3] * 3)
    assert np.array_equal(split.sum(axis=2), ell)
    assert np.array_equal(split, stream(1).multinomial(ell, [1 / 3] * 3))


ALIASING = [("cycle(64, scale=1)", 0.2), (FIXTURES["FIX-B"], 0.25),
            ("line(16)", 0.5)]


@pytest.mark.parametrize("desc,delta", ALIASING, ids=[d for d, _ in ALIASING])
def test_kept_classes_survive_the_walk(desc, delta):
    """Every level's (anc, counts), collected first and read after the
    generator is spent, still equals the per-draw walk: the walk writes no
    array it has yielded."""
    machine = build_bundle(generate_space(desc), delta).machine
    h = machine.h
    nsamples = 2000
    walked = list(machine.draw_classes(6, nsamples, h.k_coarse))
    assert [lev for lev, *_ in walked] == list(range(h.k_fine, h.k_coarse - 1, -1))
    oracle = per_draw_walk(machine, 6, nsamples, h.k_coarse)
    for (k, anc, counts), (_, want) in zip(walked, oracle):
        assert (anc.dtype, counts.dtype) == (np.int32, np.int64)
        assert np.array_equal(np.repeat(anc, counts, axis=0), want), k


def test_walk_memory_independent_of_draw_count(monkeypatch):
    """The walk splits classes, never draws: a run draws no outcome one by
    one, and the traced peak of the Monte Carlo readers is the same at
    10^3 and 10^12 draws (one int64 per draw and level would take 8 TB)."""
    def refused(*args):
        raise AssertionError("an outcome drawn one by one")

    monkeypatch.setattr(CubeMachine, "sample_outcomes", refused)
    config = PipelineConfig(space="line(64)", delta=0.9, nsamples=10**12)
    machine = run_pipeline(config).bundle.machine
    h = machine.h

    def peak(nsamples):
        tracemalloc.start()
        try:
            compute_splines_mc(machine, nsamples, seed=1)
            boundary_layer_probability(machine, 0, h.k_coarse, 0.5, nsamples, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10**3)  # warm-up: first-call allocations are not the walk's
    assert peak(10**12) <= peak(10**3)


@pytest.mark.parametrize("desc,delta,limit_mb", [
    ("grid(16, 2)", 0.25, 16.0),
    ("cycle(64, scale=1)", 0.2, 12.0),
])
def test_splines_mc_memory_bounded(desc, delta, limit_mb):
    """100,000 draws: the walk holds one row per distinct map, not one per
    outcome history (grouping by history peaked at 270 MB and 21 MB here),
    nor one outcome per draw (drawing them peaked at 5.3 MB and 3.4 MB;
    splitting the classes peaks at 2.9 MB and 0.5 MB)."""
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


def test_draw_counts_up_to_the_int64_bound(bundle_c16):
    """2**63 - 1 draws are counted exactly; one more is refused by name."""
    machine = bundle_c16.machine
    h = machine.h
    most = 2**63 - 1
    for _, _, counts in machine.draw_classes(1, most, h.k_coarse):
        assert int(counts.sum()) == most
    mc, _ = compute_splines_mc(machine, most, seed=1)
    assert all(np.isfinite(mc.at(k)).all() for k in range(h.k_coarse, h.k_fine + 1))
    for refuse in (lambda: compute_splines_mc(machine, most + 1, seed=1),
                   lambda: PipelineConfig(space="FIX-B", nsamples=most + 1)):
        with pytest.raises(ValueError, match=r"\[1, 2\*\*63\)"):
            refuse()
