import math
import re

import numpy as np
import pytest

from hwave.nets import build_nets, build_reference_order
from hwave.randomized import (CubeMachine, OmegaSample, RandomizedSystem,
                              boundary_layer_probability, boundary_theory_bound,
                              sample_omega, theoretical_eta,
                              verify_center_sandwich, verify_system)
from hwave.space import FiniteSpace, compute_constants, generate_space
from hwave.pipeline import build_bundle

from helpers import children, replace_level, sample_omega_batch


def test_sample_determinism(bundle_b):
    a = sample_omega(bundle_b.order, 42)
    b = sample_omega(bundle_b.order, 42)
    assert a.ell.tolist() == b.ell.tolist()
    assert a.m.tolist() == b.m.tolist()
    c = sample_omega(bundle_b.order, 43)
    assert (a.ell.tolist(), a.m.tolist()) != (c.ell.tolist(), c.m.tolist())


def test_single_sample_heads_the_batch(bundle_b):
    single = sample_omega(bundle_b.order, 5)
    ell, m = sample_omega_batch(bundle_b.order, 5, 1000)
    assert single.ell.tolist() == ell[:, 0].tolist()
    assert single.m.tolist() == m[:, 0].tolist()


def test_coordinate_frequencies(bundle_b):
    order = bundle_b.order
    n = 100_000
    ell, m = sample_omega_batch(order, 7, n)
    for value in range(order.L + 1):
        p = 1.0 / (order.L + 1)
        sigma = math.sqrt(p * (1 - p) / n)
        freq = (ell[1] == value).mean()
        assert abs(freq - p) <= 4 * sigma
    for value in range(1, order.M + 1):
        p = 1.0 / order.M
        sigma = math.sqrt(p * (1 - p) / n)
        freq = (m[1] == value).mean()
        assert abs(freq - p) <= 4 * sigma


def test_degenerate_space_has_unique_sample():
    sp = FiniteSpace(dist=np.zeros((1, 1)), weights=np.ones(1))
    bundle = build_bundle(sp, 0.25)
    s1 = sample_omega(bundle.order, 1)
    s2 = sample_omega(bundle.order, 2)
    assert s1.num_levels == s2.num_levels == 0


def test_new_points_fix_a(bundle_a):
    order, machine = bundle_a.order, bundle_a.machine
    # label1 of the single coarse point is 0; secondary label 2 marks point 1
    omega = OmegaSample(k_coarse=-1, ell=np.array([0]), m=np.array([2]))
    z = machine.system(omega).z
    assert z.at(-1).tolist() == [1]
    if order.L == 0:
        # with L = 0 the primary label always matches; label2 = 4 marks point 3
        omega = OmegaSample(k_coarse=-1, ell=np.array([0]), m=np.array([4]))
        z = machine.system(omega).z
        assert z.at(-1).tolist() == [3]


def test_new_points_label_mismatch(bundle_b):
    h, order = bundle_b.hierarchy, bundle_b.order
    lab = order.label1.at(1)
    miss = int(set(range(order.L + 1)).difference(lab.tolist()).pop())
    omega = OmegaSample(k_coarse=0, ell=np.array([0, miss]), m=np.array([1, 1]))
    z = bundle_b.machine.system(omega).z
    assert z.at(1).tolist() == h.level(1).tolist()


def test_chosen_point_probability(bundle_b):
    h, order, machine = bundle_b.hierarchy, bundle_b.order, bundle_b.machine
    tau = 1.0 / ((order.L + 1) * order.M)
    n = 100_000
    k = 1
    z_tab = machine.z_tables[k][machine.sample_outcomes(11, n, k)]
    lev, nxt = h.level(k), h.level(k + 1)
    for alpha in range(lev.size):
        for pos in children(bundle_b.order, k)[alpha]:
            freq = (z_tab[:, alpha] == nxt[pos]).mean()
            sigma = math.sqrt(tau * (1 - tau) / n)
            assert freq >= tau - 4 * sigma


def test_cube_partition_and_tiling_100_seeds(bundle_b):
    sp, c = bundle_b.space, bundle_b.constants
    h, order = bundle_b.hierarchy, bundle_b.order
    for seed in range(100):
        system = bundle_b.machine.system(sample_omega(order, seed))
        failed = [r.line() for r in verify_system(sp, c, h, order, system)
                  + verify_center_sandwich(sp, c, h, system) if not r.passed]
        assert not failed, failed


def test_identity_above_capture_scale(bundle_b):
    # at the finest transition every point is within the capture radius of
    # itself only, so the sampled order coincides with the reference order
    h, order = bundle_b.hierarchy, bundle_b.order
    omega = sample_omega(order, 3)
    system = bundle_b.machine.system(omega)
    assert np.array_equal(system.parents.at(1), order.parents.at(1))


def test_corrupted_parent_map_reported(bundle_b):
    sp, c, h = bundle_b.space, bundle_b.constants, bundle_b.hierarchy
    omega = sample_omega(bundle_b.order, 7)
    system = bundle_b.machine.system(omega)
    parent = system.parents.at(1).copy()
    pos4 = np.where(h.level(2) == 4)[0][0]
    parent[pos4] = 0  # steal the centre of cube (1, 1)
    bad_parents = replace_level(system.parents, 1, parent)
    from hwave.nets import ancestors
    corrupted = RandomizedSystem(omega=omega, z=system.z, parents=bad_parents,
                                 cubes=ancestors(h, bad_parents))
    failed = [r for r in verify_center_sandwich(sp, c, h, corrupted) if not r.passed]
    assert failed
    assert any("inner ball" in r.detail for r in failed)


def test_system_reads_each_levels_own_coordinate():
    """Over hundreds of levels every level reads the outcome-table row of its
    own coordinate, and the draw refuses a level outside its range."""
    space = generate_space("line(64)")
    constants = compute_constants(space)
    h = build_nets(space, constants, 0.99)
    order = build_reference_order(space, constants, h)
    machine = CubeMachine(space, constants, h, order)
    omega = sample_omega(order, 1)
    assert h.num_levels == 346
    system = machine.system(omega)
    for i, k in enumerate(range(h.k_coarse, h.k_fine)):
        row = omega.ell[i] * order.M + omega.m[i] - 1
        assert np.array_equal(system.z.at(k), machine.z_tables[k][row])
        assert np.array_equal(system.parents.at(k),
                              machine.parent_tables[k][row])
    assert np.array_equal(system.z.at(h.k_fine), h.level(h.k_fine))
    for k in (h.k_coarse - 1, h.k_fine):
        with pytest.raises(KeyError, match=re.escape(
                f"level {k} outside [{h.k_coarse}, {h.k_fine - 1}]")):
            omega.coord(k)


def test_omega_locality(bundle_b):
    """The level-k parent relation ignores every other coordinate."""
    order = bundle_b.order
    base = sample_omega(order, 1)
    other = sample_omega(order, 2)
    k = 1
    i = k - order.parents.k_coarse
    ell = other.ell.copy()
    m = other.m.copy()
    ell[i], m[i] = base.ell[i], base.m[i]
    spliced = OmegaSample(k_coarse=order.parents.k_coarse, ell=ell, m=m)
    s1 = bundle_b.machine.system(base)
    s2 = bundle_b.machine.system(spliced)
    assert np.array_equal(s1.parents.at(k), s2.parents.at(k))


def test_theoretical_eta_closed_form(bundle_b):
    class Stub:
        L, M = 1, 2
        k_coarse, k_fine = 0, 2
    assert theoretical_eta(Stub(), 0.25) == pytest.approx(
        math.log(3 / 4) / math.log(1 / 4))
    assert theoretical_eta(bundle_b.order, 0.25) == pytest.approx(
        math.log(14 / 15) / math.log(1 / 4))


def test_theoretical_eta_monotone_in_choices():
    class AB:
        def __init__(self, L, M):
            self.L, self.M = L, M
    assert theoretical_eta(AB(1, 2), 0.25) > theoretical_eta(AB(3, 4), 0.25)


def test_theoretical_eta_degenerate_sentinel():
    class Unit:
        L, M = 0, 1
    assert math.isinf(theoretical_eta(Unit(), 0.25))


def test_boundary_bound_trivial_cases(bundle_b):
    # huge eps: the bound saturates at one and the probability cannot exceed it
    est = boundary_layer_probability(bundle_b.machine, 0, 1, 100.0, 100, 1)
    assert est.estimate <= 1.0 <= est.theory_bound + 1e-12
    assert boundary_theory_bound(bundle_b.constants, math.inf, 1e-9) == 0.0


def test_boundary_monotone_and_bounded(bundle_b):
    ests = [boundary_layer_probability(bundle_b.machine, 3, 1, eps, 20000, 5)
            for eps in (0.5, 0.25, 0.125)]
    for a, b in zip(ests, ests[1:]):
        assert b.estimate <= a.estimate + 4 * (a.stderr + b.stderr)
    for e in ests:
        assert e.estimate <= e.theory_bound + 4 * e.stderr


def test_boundary_nondegenerate_estimates(bundle_random):
    est = boundary_layer_probability(bundle_random.machine, 3, -1, 0.25, 40000, 9)
    assert 0.0 < est.estimate < 1.0
    assert est.stderr > 0.0
    assert est.estimate <= est.theory_bound + 4 * est.stderr


def test_boundary_stderr_halves_with_4x_samples(bundle_random):
    small = boundary_layer_probability(bundle_random.machine, 3, -1, 0.25, 10000, 2)
    big = boundary_layer_probability(bundle_random.machine, 3, -1, 0.25, 40000, 2)
    assert big.stderr == pytest.approx(small.stderr / 2, rel=0.15)


def test_randomness_actually_moves_cubes(bundle_random):
    """At delta = 0.2 on the unscaled cycle the partitions differ across seeds."""
    order = bundle_random.order
    partitions = {
        tuple(bundle_random.machine.system(sample_omega(order, s)).cubes.at(-1).tolist())
        for s in range(30)
    }
    assert len(partitions) > 1


def test_nondegenerate_geometry_verifies(bundle_random):
    sp, c = bundle_random.space, bundle_random.constants
    h, order = bundle_random.hierarchy, bundle_random.order
    for seed in range(25):
        system = bundle_random.machine.system(sample_omega(order, seed))
        assert all(r.passed for r in verify_system(sp, c, h, order, system)
                   + verify_center_sandwich(sp, c, h, system))
