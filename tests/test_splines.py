import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from hwave.nets import Levels, NetHierarchy
from hwave.randomized import CubeMachine
from hwave.space import FiniteSpace, SpaceConstants
from hwave.splines import (compute_splines_mc, holder_profile,
                           transition_probabilities, verify_spline_table)


def test_transitions_fix_a(bundle_a):
    p = transition_probabilities(bundle_a.machine, -1)
    assert p.shape == (1, 4)
    assert p.tolist() == [[1.0, 1.0, 1.0, 1.0]]  # single parent takes all


def test_transition_column_sums(bundle_b):
    for k in (0, 1):
        p = bundle_b.transitions.at(k)
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)


def test_transition_identity_when_levels_agree(bundle_random):
    # the level below the coarse root repeats a single cell
    h = bundle_random.hierarchy
    p = bundle_random.transitions.at(h.k_coarse)
    assert p.shape[0] == 1
    np.testing.assert_allclose(p, 1.0)


def test_fix_a_spline_tables(bundle_a):
    st = bundle_a.splines
    np.testing.assert_array_equal(st.at(0), np.eye(4))
    np.testing.assert_array_equal(st.at(-1), np.ones((1, 4)))


def test_interpolation_is_exact(bundle_b):
    h, st = bundle_b.hierarchy, bundle_b.splines
    for k in range(h.k_coarse, h.k_fine + 1):
        lev = h.level(k)
        assert np.array_equal(st.at(k)[:, lev], np.eye(lev.size))


def test_partition_of_unity(bundle_b, bundle_random):
    for b in (bundle_b, bundle_random):
        h, st = b.hierarchy, b.splines
        for k in range(h.k_coarse, h.k_fine + 1):
            np.testing.assert_allclose(st.at(k).sum(axis=0), 1.0, atol=1e-12)


def test_verify_spline_table(bundle_a, bundle_b, bundle_random):
    for b in (bundle_a, bundle_b, bundle_random):
        checks = verify_spline_table(b.space, b.constants, b.hierarchy,
                                     b.transitions, b.splines)
        failed = [c.line() for c in checks if not c.passed]
        assert not failed, failed


def test_mc_matches_exact_fix_a(bundle_a):
    mc, err = compute_splines_mc(bundle_a.machine, 200, seed=3)
    for k in (-1, 0):
        np.testing.assert_array_equal(mc.at(k), bundle_a.splines.at(k))
        assert err.at(k).max() == 0.0  # all-zero variance: entries are 0/1


def test_mc_within_binomial_error(bundle_random):
    nsamples = 20000
    mc, err = compute_splines_mc(bundle_random.machine, nsamples, seed=12)
    h = bundle_random.hierarchy
    for k in range(h.k_coarse, h.k_fine + 1):
        exact = bundle_random.splines.at(k)
        dev = np.abs(mc.at(k) - exact)
        sigma = np.sqrt(exact * (1 - exact) / nsamples)
        assert np.all(dev <= 5 * sigma + 1e-12)


def test_single_sample_is_a_partition(bundle_random):
    mc, _ = compute_splines_mc(bundle_random.machine, 1, seed=8)
    h = bundle_random.hierarchy
    for k in range(h.k_coarse, h.k_fine + 1):
        table = mc.at(k)
        assert set(np.unique(table)) <= {0.0, 1.0}
        np.testing.assert_array_equal(table.sum(axis=0), 1.0)


def compute_splines_exact_rational(machine: CubeMachine) -> dict:
    """Exact-fraction recomputation of the dynamic program (tiny fixtures only).

    Entries are integer multiples of ((L+1)M)^-(k_fine - k); this validates the
    floating-point tables bit for bit on small spaces.
    """
    h = machine.h
    n = h.level(h.k_fine).size
    n_out = machine.n_outcomes
    tables = {h.k_fine: [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]}
    for k in range(h.k_fine - 1, h.k_coarse - 1, -1):
        parents = machine.parent_tables[k]
        n_par = h.level(k).size
        n_child = h.level(k + 1).size
        p = [[Fraction(0) for _ in range(n_child)] for _ in range(n_par)]
        for row in parents:
            for beta in range(n_child):
                p[row[beta]][beta] += Fraction(1, n_out)
        nxt = tables[k + 1]
        cur = [[sum((p[a][b] * nxt[b][x] for b in range(n_child)), Fraction(0))
                for x in range(n)] for a in range(n_par)]
        tables[k] = cur
    return tables


def test_rational_recomputation_matches_floats(bundle_random):
    tables = compute_splines_exact_rational(bundle_random.machine)
    h = bundle_random.hierarchy
    n_out = bundle_random.machine.n_outcomes
    for k in range(h.k_coarse, h.k_fine + 1):
        exact = bundle_random.splines.at(k)
        denom = Fraction(n_out) ** (h.k_fine - k)
        for a, row in enumerate(tables[k]):
            for x, value in enumerate(row):
                assert float(value) == exact[a, x]
                assert (value * denom).denominator == 1  # provenance


def test_holder_profile_constant_level(bundle_a):
    prof = holder_profile(bundle_a.space, bundle_a.hierarchy, bundle_a.splines,
                          -1, eta=0.5)
    assert prof.constant == 0.0


def test_holder_profile_fix_b_level1(bundle_b):
    eta = bundle_b.eta
    prof = holder_profile(bundle_b.space, bundle_b.hierarchy, bundle_b.splines,
                          1, eta)
    # indicator jump across adjacent cubes at the minimum separation
    assert prof.constant == pytest.approx(4.0**eta)
    _, x, y = prof.witness
    assert bundle_b.space.dist[x, y] == 1 / 16


def test_holder_exponent_monotonicity(bundle_b):
    """On pairs no farther than the scale, halving the exponent enlarges the
    modulus and therefore shrinks the best constant."""
    sp, h, st = bundle_b.space, bundle_b.hierarchy, bundle_b.splines
    eta = bundle_b.eta
    k = 1
    dk = h.scale(k)
    iu, ju = np.triu_indices(sp.n, 1)
    close = sp.dist[iu, ju] <= dk
    values = st.at(k)

    def const(e):
        moduli = (sp.dist[iu[close], ju[close]] / dk) ** e
        return max(float((np.abs(values[a, iu[close]] - values[a, ju[close]])
                          / moduli).max()) for a in range(values.shape[0]))

    assert const(eta / 2) <= const(eta) + 1e-12


@dataclass(frozen=True)
class Bump:
    values: np.ndarray
    level: int
    selected: np.ndarray  # positions of the summed splines at that level


def build_bump(space: FiniteSpace, constants: SpaceConstants, h: NetHierarchy,
               table: Levels, F, G) -> Bump:
    """Partition-of-unity bump with 1_F <= phi <= 1_G.

    The working scale is the smallest k with 16 A0^6 delta^k <= d(F, G^c),
    clamped to the available levels; the summed splines are those whose
    actual support meets F.
    """
    F = np.asarray(sorted(set(map(int, F))), dtype=int)
    G_set = set(map(int, G))
    if not set(F).issubset(G_set):
        raise ValueError("F must be contained in G")
    complement = np.asarray(sorted(set(range(space.n)) - G_set), dtype=int)
    if complement.size == 0:
        gap = math.inf
    elif F.size == 0:
        gap = math.inf
    else:
        gap = float(space.dist[np.ix_(F, complement)].min())
    if gap <= 0:
        raise ValueError("F touches the complement of G")

    a0 = constants.A0
    if math.isinf(gap):
        k = h.k_coarse
    else:
        k = h.k_coarse
        while 16.0 * a0**6 * h.scale(k) > gap and k < h.k_fine:
            k += 1
    values = table.at(k)
    if F.size:
        touching = np.nonzero((values[:, F] > 0).any(axis=1))[0]
    else:
        touching = np.array([], dtype=int)
    phi = values[touching].sum(axis=0) if touching.size else np.zeros(space.n)
    return Bump(values=phi, level=k, selected=touching)


def test_bump_whole_space_target(bundle_b):
    sp = bundle_b.space
    F = sp.ball(0, 2 / 16)
    bump = build_bump(sp, bundle_b.constants, bundle_b.hierarchy,
                      bundle_b.splines, F, np.arange(16))
    assert bump.level == bundle_b.hierarchy.k_coarse
    assert np.all(bump.values <= 1.0 + 1e-12)
    assert np.all(bump.values[F] == 1.0)


def test_bump_between_balls(bundle_b):
    sp = bundle_b.space
    F = sp.ball(0, 2 / 16)
    G = sp.ball(0, 8 / 16)
    bump = build_bump(sp, bundle_b.constants, bundle_b.hierarchy,
                      bundle_b.splines, F, G)
    phi = bump.values
    assert np.all(phi[F] == 1.0)
    outside = np.setdiff1d(np.arange(16), G)
    assert np.all(phi[outside] == 0.0)
    assert phi.min() >= 0.0 and phi.max() <= 1.0 + 1e-12


def test_bump_f_equals_g(bundle_b):
    everything = np.arange(16)
    bump = build_bump(bundle_b.space, bundle_b.constants, bundle_b.hierarchy,
                      bundle_b.splines, everything, everything)
    np.testing.assert_allclose(bump.values, 1.0, atol=1e-12)


def test_bump_requires_containment(bundle_b):
    with pytest.raises(ValueError, match="contained"):
        build_bump(bundle_b.space, bundle_b.constants, bundle_b.hierarchy,
                   bundle_b.splines, [0, 1], [1, 2])


def test_bump_holder_bound(bundle_random):
    """Bump increments obey the spline modulus, scaled by the overlap count
    and the level-selection constant."""
    b = bundle_random
    sp, h = b.space, b.hierarchy
    eta = b.eta
    a0 = b.constants.A0
    F = sp.ball(0, 1.5)
    G = sp.ball(0, 6.0)
    bump = build_bump(sp, b.constants, h, b.splines, F, G)
    complement = np.setdiff1d(np.arange(sp.n), G)
    gap = float(sp.dist[np.ix_(F, complement)].min())
    k = bump.level
    c_spline = holder_profile(sp, h, b.splines, k, eta).constant
    overlap = int((b.splines.at(k) > 0).sum(axis=0).max())
    c_bound = c_spline * overlap * (16 * a0**6 / h.delta) ** eta
    iu, ju = np.triu_indices(sp.n, 1)
    ratios = np.abs(bump.values[iu] - bump.values[ju]) \
        / (sp.dist[iu, ju] / gap) ** eta
    assert float(ratios.max()) <= c_bound * (1 + 1e-9)


def test_spline_values_strictly_fractional(bundle_random):
    """Nondegenerate capture: some membership probability is strictly
    between zero and one."""
    st = bundle_random.splines
    h = bundle_random.hierarchy
    interior = [st.at(k)[(st.at(k) > 0) & (st.at(k) < 1)]
                for k in range(h.k_coarse, h.k_fine + 1)]
    assert any(arr.size for arr in interior)
