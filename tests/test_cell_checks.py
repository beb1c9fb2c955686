"""The per-cell checks against their loop oracles, and each check failing.

``verify_system``, ``verify_center_sandwich`` and ``verify_spline_table``
test every cell of a level in one array pass; ``carleson_norm`` walks every
wavelet down the parent maps at once; ``transition_probabilities`` counts
the (parent, child) pairs with one bincount.  The oracles below are the
direct loops, one cell (or wavelet, or outcome row) at a time.  The records
must be equal field for field (name, detail, tolerance, margin, passed), in
the same order, and the numbers bit for bit.
"""
import dataclasses
import math

import numpy as np
import pytest

from hwave.analysis import carleson_norm
from hwave.nets import Levels, ancestors, build_nets, build_reference_order
from hwave.pipeline import build_bundle
from hwave.randomized import (CubeMachine, sample_omega,
                              verify_center_sandwich, verify_system)
from hwave.report import check_flag
from hwave.space import FIXTURES, compute_constants, generate_space
from hwave.splines import transition_probabilities, verify_spline_table

from helpers import children, replace_level

SPACES = [
    (FIXTURES["FIX-B"], 0.25),
    ("grid(16,2)", 0.25),
    ("cycle(64, scale=1)", 0.2),
    # relaxed mode accepts this one, and its cube checks fail
    ("cycle(16, scale=1)", 0.5),
]
SEEDS = range(20)


# ---------------------------------------------------------------------------
# Loop oracles
# ---------------------------------------------------------------------------


def _verify_system_loop(space, constants, h, order, system):
    a0 = constants.A0
    checks = []

    def record(name, ok, detail=""):
        checks.append(check_flag(name, detail, ok))

    for k in range(h.k_coarse, h.k_fine + 1):
        dk = h.scale(k)
        lev = h.level(k)
        zk = system.z.at(k)
        if k < h.k_fine:
            nxt = h.level(k + 1)
            allowed = [set(nxt[children(order, k)[a]]) | {lev[a]}
                       for a in range(lev.size)]
            ok = all(zk[a] in allowed[a] for a in range(lev.size))
            record(f"z-in-children level {k}", ok)
        if zk.size > 1:
            sub = space.dist[np.ix_(zk, zk)]
            worst = sub[~np.eye(zk.size, dtype=bool)].min()
            record(f"z-separation level {k}", worst >= dk / (2 * a0),
                   f"min {worst:.3g} vs {dk / (2 * a0):.3g}")
        cov = space.dist[:, zk].min(axis=1).max()
        record(f"z-covering level {k}", cov < 4 * a0**2 * dk,
               f"worst {cov:.3g} vs {4 * a0**2 * dk:.3g}")

        cubes_k = system.cubes.at(k)
        record(f"cube-partition level {k}",
               cubes_k.min() >= 0 and cubes_k.max() < lev.size)
        for alpha in range(lev.size):
            members = np.nonzero(cubes_k == alpha)[0]
            zc = zk[alpha]
            inner = np.nonzero(space.dist[zc] < dk * a0**-5 / 6.0)[0]
            if not np.all(np.isin(inner, members)):
                record(f"cube-inner-ball level {k}", False, f"alpha={alpha}")
            if members.size:
                spread = space.dist[zc, members].max()
                if not spread < 6 * a0**4 * dk:
                    record(f"cube-outer-ball level {k}", False, f"alpha={alpha}")

    for k in range(h.k_coarse, h.k_fine):
        dk = h.scale(k)
        zk = system.z.at(k)
        znext = system.z.at(k + 1)
        par = system.parents.at(k)
        dmat = space.dist[np.ix_(znext, zk)]
        chosen = dmat[np.arange(znext.size), par]
        record(f"omega-parent-distance level {k}", np.all(chosen < 5 * a0**3 * dk),
               f"max {chosen.max():.3g}")
        must = dmat < dk * a0**-3 / 5.0
        rows, cols = np.nonzero(must)
        record(f"close-implies-parent level {k}", np.all(par[rows] == cols))
        if k > h.k_coarse:
            ok_tile = np.array_equal(system.cubes.at(k),
                                     system.parents.at(k)[system.cubes.at(k + 1)])
        else:
            ok_tile = True
        record(f"child-tiling level {k}", ok_tile)

    for k in range(h.k_coarse, h.k_fine + 1):
        dk = h.scale(k)
        zk = system.z.at(k)
        for l in range(k, h.k_fine + 1):
            zl = system.z.at(l)
            cell_anc = np.arange(zl.size)
            for kk in range(l - 1, k - 1, -1):
                cell_anc = system.parents.at(kk)[cell_anc]
            dmat = space.dist[np.ix_(zl, zk)]
            desc_d = dmat[np.arange(zl.size), cell_anc]
            record(f"iterated-descendant-distance {l}->{k}",
                   np.all(desc_d < 6 * a0**4 * dk), f"max {desc_d.max():.3g}")
            must = dmat < dk * a0**-4 / 6.0
            r2, c2 = np.nonzero(must)
            record(f"iterated-close-implies-descendant {l}->{k}",
                   np.all(cell_anc[r2] == c2))
    return checks


def _iterated_pair(name):
    """(kind, l, k) of an ``iterated-* l->k`` record name, else None."""
    kind, _, pair = name.partition(" ")
    if not kind.startswith("iterated-"):
        return None
    l, k = map(int, pair.split("->"))
    return kind, l, k


def _dropped(name, h):
    """An iterated pair l -> k with l < k_fine, which ``verify_system``
    decides from the pair k_fine -> k alone."""
    pair = _iterated_pair(name)
    return pair is not None and pair[1] < h.k_fine


def _finest_pairs_oracle(space, constants, h, order, system):
    """The loop's records minus the dropped pairs."""
    return [r for r in _verify_system_loop(space, constants, h, order, system)
            if not _dropped(r.name, h)]


def _verify_center_sandwich_loop(space, constants, h, system):
    a0 = constants.A0
    checks = []
    for k in range(h.k_coarse, h.k_fine + 1):
        dk = h.scale(k)
        lev = h.level(k)
        cubes_k = system.cubes.at(k)
        worst_inner = math.inf
        worst_outer = 0.0
        escapes = []
        for alpha in range(lev.size):
            members = np.nonzero(cubes_k == alpha)[0]
            xc = lev[alpha]
            inner = np.nonzero(space.dist[xc] < dk * a0**-3 / 8.0)[0]
            if not np.all(np.isin(inner, members)):
                escapes.append(f"inner ball escapes cube alpha {alpha}")
            if members.size:
                spread = float(space.dist[xc, members].max())
                worst_outer = max(worst_outer, spread)
                if spread > 8 * a0**5 * dk:
                    escapes.append(f"cube leaves outer ball alpha {alpha}")
            outside = np.nonzero(cubes_k != alpha)[0]
            if outside.size:
                worst_inner = min(worst_inner, float(space.dist[xc, outside].min()))
        detail = "; ".join([f"nearest-foreign {worst_inner:.3g}, outer "
                            f"{worst_outer:.3g} vs {8 * a0**5 * dk:.3g}"] + escapes)
        checks.append(check_flag(f"centre-sandwich level {k}", detail, not escapes))
    return checks


def _verify_spline_table_loop(space, constants, h, transitions, table, tol=1e-12):
    a0 = constants.A0
    checks = []

    def record(name, ok, detail=""):
        checks.append(check_flag(name, detail, ok))

    for k in range(h.k_coarse, h.k_fine + 1):
        values = table.at(k)
        lev = h.level(k)
        dk = h.scale(k)

        col_err = float(np.abs(values.sum(axis=0) - 1.0).max())
        record(f"partition-of-unity level {k}", col_err <= tol, f"err {col_err:.2e}")

        interp = values[:, lev]
        record(f"interpolation level {k}",
               np.array_equal(interp, np.eye(lev.size)),
               "grid values differ from identity")

        record(f"range level {k}",
               values.min() >= 0.0 and values.max() <= 1.0)

        if k < h.k_fine:
            refine = transitions.at(k) @ table.at(k + 1)
            err = float(np.abs(values - refine).max())
            record(f"refinement level {k}", err <= tol, f"err {err:.2e}")

            p = transitions.at(k)
            col = float(np.abs(p.sum(axis=0) - 1.0).max())
            record(f"column-stochastic level {k}", col <= tol, f"err {col:.2e}")
            rows, cols = np.nonzero(p > 0)
            if rows.size:
                reach = (0.25 * a0**-1 + 2.0 * a0**2) * dk
                dist_pc = space.dist[h.level(k + 1)[cols], lev[rows]]
                record(f"transition-support level {k}",
                       float(dist_pc.max()) < reach, f"max {dist_pc.max():.3g}")

        for alpha in range(lev.size):
            xc = lev[alpha]
            inner = space.dist[xc] < dk * a0**-3 / 8.0
            if not np.all(values[alpha, inner] == 1.0):
                record(f"support-inner level {k}", False, f"alpha={alpha}")
            outer = space.dist[xc] < 8.0 * a0**5 * dk
            if np.any(values[alpha, ~outer] != 0.0):
                record(f"support-outer level {k}", False, f"alpha={alpha}")
    return checks


def _carleson_norm_loop(space, h, order, basis, coeffs, parent_maps=None):
    coeffs = np.asarray(coeffs, dtype=float)
    levels = basis.wavelet_levels
    pos = np.zeros(int(basis.is_wavelet.sum()), dtype=int)
    for i, (k, y) in enumerate(zip(basis.wavelet_levels, basis.wavelet_centers)):
        pos[i] = h.position(int(k) + 1, int(y))
    if parent_maps is None:
        parent_maps = order.parents
    anc = ancestors(h, parent_maps)
    best = 0.0
    for ell in range(h.k_coarse, h.k_fine + 1):
        n_cells = h.level(ell).size
        acc = np.zeros(n_cells)
        mass = np.zeros(n_cells)
        np.add.at(mass, anc.at(ell), space.weights)
        for i in range(coeffs.size):
            k1 = int(levels[i]) + 1
            if k1 < ell:
                continue
            p = int(pos[i])
            for kk in range(k1 - 1, ell - 1, -1):
                p = int(parent_maps.at(kk)[p])
            acc[p] += coeffs[i] ** 2
        live = acc > 0
        if live.any():
            best = max(best, float(np.sqrt(acc[live] / mass[live]).max()))
    return best


def _transition_probabilities_loop(machine, k):
    parents = machine.parent_tables[k]
    n_out, n_children = parents.shape
    counts = np.zeros((machine.h.level(k).size, n_children))
    for row in parents:
        counts[row, np.arange(n_children)] += 1.0
    return counts / n_out


# ---------------------------------------------------------------------------
# Equal to the loops
# ---------------------------------------------------------------------------


def _scrambled(table, rng):
    """The table with a few entries per level set to 0, 1/2, 1 or 2, so
    that support checks fail at random cells."""
    tables = []
    for values in table:
        values = values.copy()
        hit = rng.random(values.shape) < 0.05
        values[hit] = rng.choice([0.0, 0.5, 1.0, 2.0], size=int(hit.sum()))
        tables.append(values)
    return Levels(table.k_coarse, tuple(tables))


def _assert_equal_to_loops(b, seeds):
    sp, c, h, order = b.space, b.constants, b.hierarchy, b.order
    for k in range(h.k_coarse, h.k_fine):
        p = transition_probabilities(b.machine, k)
        q = _transition_probabilities_loop(b.machine, k)
        assert p.shape == q.shape and np.array_equal(p, q)
    assert (verify_spline_table(sp, c, h, b.transitions, b.splines)
            == _verify_spline_table_loop(sp, c, h, b.transitions, b.splines))
    n_wavelets = int(b.basis.is_wavelet.sum())
    for seed in seeds:
        system = b.machine.system(sample_omega(order, seed))
        assert (verify_system(sp, c, h, order, system)
                == _finest_pairs_oracle(sp, c, h, order, system))
        assert (verify_center_sandwich(sp, c, h, system)
                == _verify_center_sandwich_loop(sp, c, h, system))
        rng = np.random.default_rng(seed)
        scrambled = _scrambled(b.splines, rng)
        assert (verify_spline_table(sp, c, h, b.transitions, scrambled)
                == _verify_spline_table_loop(sp, c, h, b.transitions, scrambled))
        coeffs = rng.normal(size=n_wavelets)
        for maps in (None, system.parents):
            assert (carleson_norm(sp, h, order, b.basis, coeffs, parent_maps=maps)
                    == _carleson_norm_loop(sp, h, order, b.basis, coeffs, maps))


@pytest.mark.parametrize("desc, delta", SPACES, ids=[d for d, _ in SPACES])
def test_checks_equal_the_loops(desc, delta):
    _assert_equal_to_loops(build_bundle(generate_space(desc), delta), SEEDS)


@pytest.mark.parametrize("n", [20, 64])
def test_checks_equal_the_loops_on_clouds(n):
    for s in SEEDS:
        b = build_bundle(generate_space(f"random_cloud({n}, 2, {s})"), 0.25)
        _assert_equal_to_loops(b, [s])


MANY_LEVELS = [("line(64)", 0.9), ("power_line(17, 2)", 0.6)]


def _cube_machine(desc, delta):
    sp = generate_space(desc)
    c = compute_constants(sp)
    h = build_nets(sp, c, delta)
    order = build_reference_order(sp, c, h)
    return sp, c, h, order, CubeMachine(sp, c, h, order)


@pytest.mark.parametrize("desc, delta", MANY_LEVELS)
def test_system_checks_equal_the_loop_across_many_levels(desc, delta):
    """The iterated bounds compose the parent maps once from k_fine down; the
    loop re-walks the maps from l down to k for every pair of levels."""
    sp, c, h, order, machine = _cube_machine(desc, delta)
    assert h.num_levels > 10
    for seed in (1, 2, 3):
        system = machine.system(sample_omega(order, seed))
        assert (verify_system(sp, c, h, order, system)
                == _finest_pairs_oracle(sp, c, h, order, system))


@pytest.mark.parametrize("desc, delta", SPACES + MANY_LEVELS,
                         ids=[d for d, _ in SPACES + MANY_LEVELS])
def test_finest_pairs_decide_every_pair(desc, delta):
    """Dropping the pairs l -> k with l < k_fine keeps the verdict, and each
    dropped failure comes with a kept failure: the pair k_fine -> k of the
    same kind, or the inner ball of z at level l."""
    sp, c, h, order, machine = _cube_machine(desc, delta)
    for seed in SEEDS:
        system = machine.system(sample_omega(order, seed))
        every = _verify_system_loop(sp, c, h, order, system)
        kept = verify_system(sp, c, h, order, system)
        assert all(r.passed for r in kept) == all(r.passed for r in every)
        failed = {r.name for r in kept if not r.passed}
        for r in every:
            if r.passed or not _dropped(r.name, h):
                continue
            kind, l, k = _iterated_pair(r.name)
            assert (f"{kind} {h.k_fine}->{k}" in failed
                    or f"cube-inner-ball level {l}" in failed), (seed, r.name)


def test_system_checks_linear_in_the_levels():
    """Nine records per level, plus one per failing (cell, kind): 346 levels
    once gave two iterated records per pair of levels, 120,062 in all."""
    sp, c, h, order, machine = _cube_machine("line(64)", 0.99)
    assert h.num_levels == 346
    records = verify_system(sp, c, h, order,
                            machine.system(sample_omega(order, 1)))
    cells = [r for r in records if r.detail.startswith("alpha=")]
    assert all(not r.passed for r in cells)
    assert len(records) <= 9 * h.num_levels + len(cells)


def test_relaxed_run_fails_cube_checks():
    """The oracle comparison above covers failing records on cycle(16) at 1/2."""
    b = build_bundle(generate_space("cycle(16, scale=1)"), 0.5)
    failed = [r for seed in SEEDS
              for r in verify_system(b.space, b.constants, b.hierarchy, b.order,
                                     b.machine.system(sample_omega(b.order, seed)))
              if not r.passed and r.detail.startswith("alpha=")]
    assert failed


# ---------------------------------------------------------------------------
# Every per-cell check can fail
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_bundle():
    return build_bundle(generate_space("grid(16,2)"), 0.25)


@pytest.fixture(scope="module")
def cloud_bundle():
    return build_bundle(generate_space("random_cloud(20, 2, 1)"), 0.25)


def _failed(records):
    return [(r.name, r.detail) for r in records if not r.passed]


def test_foreign_z_fails_z_in_children(cloud_bundle):
    b = cloud_bundle
    sp, c, h, order = b.space, b.constants, b.hierarchy, b.order
    system = b.machine.system(sample_omega(order, 5))
    k = h.k_fine - 2
    nxt = h.level(k + 1)
    parent = order.parents.at(k)
    # another cell's child; and a point off level k + 1, given to the cell
    # that owns the level-(k + 1) point it would sort in front of
    outsider = np.setdiff1d(np.arange(sp.n), nxt)[0]
    owner = parent[np.searchsorted(nxt, outsider)]
    for alpha, point in ((0, nxt[np.flatnonzero(parent != 0)[0]]), (owner, outsider)):
        zk = system.z.at(k).copy()
        zk[alpha] = point
        moved = dataclasses.replace(system, z=replace_level(system.z, k, zk))
        records = verify_system(sp, c, h, order, moved)
        assert records == _finest_pairs_oracle(sp, c, h, order, moved)
        assert (f"z-in-children level {k}", "") in _failed(records)


def test_moved_point_fails_all_four_cube_checks(grid_bundle):
    b = grid_bundle
    sp, c, h, order = b.space, b.constants, b.hierarchy, b.order
    system = b.machine.system(sample_omega(order, 3))
    k = h.k_fine  # singleton cells, z = centre
    lev = h.level(k)
    alpha = 0
    beta = int(np.argmax(sp.dist[lev[alpha], lev]))
    assert sp.dist[lev[alpha], lev[beta]] > 8 * c.A0**5 * h.scale(k)
    cubes = system.cubes.at(k).copy()
    cubes[lev[alpha]] = beta
    moved = dataclasses.replace(system,
                                cubes=replace_level(system.cubes, k, cubes))
    records = verify_system(sp, c, h, order, moved)
    assert records == _finest_pairs_oracle(sp, c, h, order, moved)
    cell = [f for f in _failed(records) if f[1].startswith("alpha=")]
    assert cell == [(f"cube-inner-ball level {k}", f"alpha={alpha}"),
                    (f"cube-outer-ball level {k}", f"alpha={beta}")]
    # the centre's two balls are verify_center_sandwich's alone
    sandwich = verify_center_sandwich(sp, c, h, moved)
    assert sandwich == _verify_center_sandwich_loop(sp, c, h, moved)
    (name, detail), = _failed(sandwich)
    assert name == f"centre-sandwich level {k}"
    assert detail.endswith(f"; inner ball escapes cube alpha {alpha}"
                           f"; cube leaves outer ball alpha {beta}")


def test_stolen_centre_escapes_both_balls(cloud_bundle):
    b = cloud_bundle
    sp, c, h, order = b.space, b.constants, b.hierarchy, b.order
    system = b.machine.system(sample_omega(order, 5))
    k = h.k_fine - 1
    lev = h.level(k)
    # steal the centre of cell alpha for a cell beta < alpha beyond the outer
    # ball: beta's escape comes first in the detail
    far = sp.dist[np.ix_(lev, lev)] > 8 * c.A0**5 * h.scale(k)
    alpha, beta = (int(i) for i in np.argwhere(np.tril(far))[0])
    parent = system.parents.at(k).copy()
    parent[h.position(k + 1, lev[alpha])] = beta
    parents = replace_level(system.parents, k, parent)
    stolen = dataclasses.replace(system, parents=parents,
                                 cubes=ancestors(h, parents))
    sandwich = verify_center_sandwich(sp, c, h, stolen)
    assert sandwich == _verify_center_sandwich_loop(sp, c, h, stolen)
    detail = dict(_failed(sandwich))[f"centre-sandwich level {k}"]
    assert detail.endswith(f"; cube leaves outer ball alpha {beta}"
                           f"; inner ball escapes cube alpha {alpha}")
    records = verify_system(sp, c, h, order, stolen)
    assert records == _finest_pairs_oracle(sp, c, h, order, stolen)
    assert not [r for r in records if r.name.startswith("centre-")]


def test_outer_balls_at_their_radius(grid_bundle):
    """A member exactly 6 delta^k from z is outside the open cube-outer ball;
    one exactly 8 delta^k from the centre is inside the closed centre ball."""
    b = grid_bundle
    sp, c, h, order = b.space, b.constants, b.hierarchy, b.order
    system = b.machine.system(sample_omega(order, 3))
    k = h.k_fine
    lev = h.level(k)
    dk = h.scale(k)
    assert c.A0 == 1.0
    for radius in (6 * dk, 8 * dk):
        beta = int(np.flatnonzero(sp.dist[lev[0], lev] == radius)[0])
        cubes = system.cubes.at(k).copy()
        cubes[lev[0]] = beta
        moved = dataclasses.replace(system,
                                    cubes=replace_level(system.cubes, k, cubes))
        records = verify_system(sp, c, h, order, moved)
        assert records == _finest_pairs_oracle(sp, c, h, order, moved)
        sandwich = verify_center_sandwich(sp, c, h, moved)
        assert sandwich == _verify_center_sandwich_loop(sp, c, h, moved)
        failed = _failed(records)
        assert (f"cube-outer-ball level {k}", f"alpha={beta}") in failed
        assert "outer ball" not in dict(_failed(sandwich))[f"centre-sandwich level {k}"]


def _spline_failures(b, k, alpha, x, value):
    values = b.splines.at(k).copy()
    values[alpha, x] = value
    table = replace_level(b.splines, k, values)
    args = (b.space, b.constants, b.hierarchy, b.transitions, table)
    records = verify_spline_table(*args)
    assert records == _verify_spline_table_loop(*args)
    return [f for f in _failed(records) if f[1].startswith("alpha=")]


def test_inner_spline_value_fails_support_inner(grid_bundle):
    h = grid_bundle.hierarchy
    k = h.k_coarse + 1
    alpha = 3
    assert _spline_failures(grid_bundle, k, alpha, h.level(k)[alpha], 0.5) == [
        (f"support-inner level {k}", f"alpha={alpha}")]


def test_far_nonzero_fails_support_outer(grid_bundle):
    b = grid_bundle
    h = b.hierarchy
    k = h.k_fine
    lev = h.level(k)
    alpha = 5
    x = int(np.argmax(b.space.dist[lev[alpha]]))
    assert not b.space.dist[lev[alpha], x] < 8 * b.constants.A0**5 * h.scale(k)
    assert _spline_failures(b, k, alpha, x, 0.5) == [
        (f"support-outer level {k}", f"alpha={alpha}")]
