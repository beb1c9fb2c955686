"""The build's array passes against the loops they replaced.

The nets, the neighbour relation and the outcome tables are built in array
passes, and A0's min-plus square over its upper triangle.  The scans below
are the earlier per-point, per-pair, per-outcome and full per-row loops,
kept as oracles: on every space here the structures must be ``==``, dtypes
included, and on constructed failing inputs each ``GeometryViolation`` must
carry the oracle's exact message.  The Gram inverses are taken per connected
component; the one full-matrix ``eigh`` they replaced is the oracle at the
end of this file, and the duals, scaling functions and wavelets formed per
component equal the full-matrix products they replaced bit for bit.
"""
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwave import nets, space as space_module
from hwave.mra import NotSPDError, _eigh_blocks, inverse_and_sqrt
from hwave.nets import GeometryViolation, build_nets, build_reference_order
from hwave.pipeline import build_bundle
from hwave.randomized import CubeMachine
from hwave.wavelets import pre_wavelets
from hwave.space import FiniteSpace, compute_constants, minplus, resolve_space

import helpers


def _greedy_extend_scan(dist, base, candidates, sep):
    chosen = list(base)
    for i in candidates:
        if i in chosen:
            continue
        if all(dist[i, j] >= sep for j in chosen):
            chosen.append(i)
    return sorted(chosen)


def _neighbours_pair_loop(space, lev, nxt, parent, k, dk, a0):
    kids = [np.nonzero(parent == a)[0] for a in range(lev.size)]
    thr = dk / (2.0 * a0)
    nbrs = [[] for _ in range(lev.size)]
    child_pts = [nxt[c] for c in kids]
    for a in range(lev.size):
        if not len(child_pts[a]):
            continue
        for b in range(a + 1, lev.size):
            if not len(child_pts[b]):
                continue
            block = space.dist[np.ix_(child_pts[a], child_pts[b])]
            if block.min() < thr:
                if space.dist[lev[a], lev[b]] >= 5.0 * a0**3 * dk:
                    raise GeometryViolation(
                        f"neighbours {lev[a]},{lev[b]} at level {k} too far apart"
                    )
                nbrs[a].append(b)
                nbrs[b].append(a)
    return tuple(np.asarray(v, dtype=int) for v in nbrs)


def _new_points_level(h, order, k, ell_k, m_k):
    lev = h.level(k)
    nxt = h.level(k + 1)
    z = lev.copy()
    lab1 = order.label1.at(k)
    lab2 = order.label2.at(k + 1)
    for alpha in np.nonzero(lab1 == ell_k)[0]:
        kids = helpers.children(order, k)[alpha]
        match = kids[lab2[kids] == m_k]
        if match.size:
            z[alpha] = nxt[match[0]]
    return z


def _check_z_separation(space, constants, h, k, z_points):
    if z_points.size < 2:
        return
    sub = space.dist[np.ix_(z_points, z_points)]
    off = sub[~np.eye(z_points.size, dtype=bool)]
    need = h.scale(k) / (2.0 * constants.A0)
    if off.min() < need:
        raise GeometryViolation(
            f"new points at level {k} closer than (2A0)^-1 delta^k"
        )


def _new_order_level(space, constants, h, order, k, z_points):
    nxt = h.level(k + 1)
    thr = 0.25 * constants.A0**-2 * h.scale(k)
    dmat = space.dist[np.ix_(nxt, z_points)]
    close = dmat < thr
    counts = close.sum(axis=1)
    if np.any(counts > 1):
        bad = int(np.argmax(counts))
        raise GeometryViolation(
            f"point {nxt[bad]} has {counts[bad]} near new parents at level {k}"
        )
    fallback = order.parents.at(k)
    return np.where(counts == 1, np.argmax(close, axis=1), fallback)


def _outcome_tables_scan(space, constants, h, order):
    z_tables, parent_tables = {}, {}
    for k in range(h.k_coarse, h.k_fine):
        z_rows = []
        p_rows = []
        for ell in range(order.L + 1):
            for m in range(1, order.M + 1):
                z = _new_points_level(h, order, k, ell, m)
                _check_z_separation(space, constants, h, k, z)
                p = _new_order_level(space, constants, h, order, k, z)
                z_rows.append(z)
                p_rows.append(p)
        z_tables[k] = np.asarray(z_rows)
        parent_tables[k] = np.asarray(p_rows, dtype=np.int32)
    return z_tables, parent_tables


SPACES = [
    ("FIX-A", 0.25), ("FIX-B", 0.25), ("grid(16,2)", 0.25),
    ("cycle(16, scale=1)", 0.2), ("cycle(64, scale=1)", 0.2),
    ("cycle(256, scale=1)", 0.2), ("cycle(16, scale=1)", 0.5),
    *[(f"random_cloud(20,2,{s})", 0.25) for s in range(4)],
    *[(f"random_cloud(64,2,{s})", 0.25) for s in range(2)],
    ("random_cloud(256,2,1)", 0.25),
    ("line(1)", 0.25), ("line(2)", 0.25),
    # A0 = 2 and delta below A0^-2 / 4: the random regime
    ("power_line(33, 2)", 0.05),
]


@lru_cache(maxsize=None)
def _built(descriptor, delta):
    space = resolve_space(descriptor)
    constants = compute_constants(space)
    h = build_nets(space, constants, delta)
    return space, constants, h, build_reference_order(space, constants, h)


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def _order_with_pair_loop(space, constants, h):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "_neighbours", _neighbours_pair_loop)
        return build_reference_order(space, constants, h)


def test_random_regime_space_is_random():
    space, constants, h, order = _built("power_line(33, 2)", 0.05)
    assert constants.A0 > 1.0
    assert h.delta < constants.A0**-2 / 4
    assert (order.L + 1) * order.M > 1


@pytest.mark.parametrize("descriptor,delta", SPACES)
def test_nets_equal_the_chosen_set_scan(descriptor, delta):
    space, constants, h, _ = _built(descriptor, delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "_greedy_extend", _greedy_extend_scan)
        want = build_nets(space, constants, delta)
    assert (h.k_coarse, h.k_fine) == (want.k_coarse, want.k_fine)
    _assert_same_arrays(h.levels, want.levels)


@pytest.mark.parametrize("descriptor,delta", SPACES)
def test_reference_order_equals_the_pair_loop(descriptor, delta):
    space, constants, h, order = _built(descriptor, delta)
    want = _order_with_pair_loop(space, constants, h)
    assert (order.L, order.M) == (want.L, want.M)
    _assert_same_arrays(order.parents, want.parents)
    _assert_same_arrays(order.label1, want.label1)
    _assert_same_arrays(order.label2, want.label2)
    for got_level, want_level in zip(order.neighbours, want.neighbours,
                                     strict=True):
        _assert_same_arrays(got_level, want_level)
    # M and the sibling ranks against the per-cell scan of the parent maps
    sizes = [1]
    for k in range(h.k_coarse, h.k_fine):
        kids = helpers.children(order, k)
        label2 = np.zeros(h.level(k + 1).size, dtype=int)
        for kid in kids:
            label2[kid] = np.arange(1, kid.size + 1)
        _assert_same_arrays([order.label2.at(k + 1)], [label2])
        sizes += [kid.size for kid in kids]
    assert order.M == max(sizes)


@pytest.mark.parametrize("descriptor,delta", SPACES)
def test_outcome_tables_equal_the_outcome_scan(descriptor, delta):
    space, constants, h, order = _built(descriptor, delta)
    machine = CubeMachine(space, constants, h, order)
    z_want, p_want = _outcome_tables_scan(space, constants, h, order)
    assert sorted(machine.z_tables) == sorted(z_want)
    for k in z_want:
        assert machine.parent_tables[k].dtype == np.int32
        _assert_same_arrays([machine.z_tables[k], machine.parent_tables[k]],
                            [z_want[k], p_want[k]])


# ---------------------------------------------------------------------------
# Constructed failing inputs
# ---------------------------------------------------------------------------


def _nudged(space, pairs):
    """The space with d(x, y) = d(y, x) set to ``value`` for each
    (x, y, value) in ``pairs``."""
    dist = space.dist.copy()
    for x, y, value in pairs:
        dist[x, y] = dist[y, x] = value
    return FiniteSpace(dist=dist, weights=space.weights)


def _message(build, *args):
    with pytest.raises(GeometryViolation) as exc:
        build(*args)
    return str(exc.value)


def _new_children(h, order, k):
    """(cell, child position) of the level-(k+1) points new at level k+1."""
    lev, nxt = h.level(k), h.level(k + 1)
    return [(int(order.parents.at(k)[c]), int(c))
            for c in np.flatnonzero(~np.isin(nxt, lev))]


def _assert_machines_agree(space, constants, h, order, expected):
    got = _message(CubeMachine, space, constants, h, order)
    assert got == _message(_outcome_tables_scan, space, constants, h, order)
    assert expected in got, got


def test_separation_violation_matches_the_oracle():
    space, constants, h, order = _built("cycle(64, scale=1)", 0.2)
    k = h.k_fine - 1
    lev, nxt = h.level(k), h.level(k + 1)
    # a new child promoted in the first outcome, (ell, m) = (0, 1)
    cell, c = next((a, c) for a, c in _new_children(h, order, k)
                   if order.label1.at(k)[a] == 0 and order.label2.at(k + 1)[c] == 1)
    z, _ = _outcome_tables_scan(space, constants, h, order)
    other = np.flatnonzero(z[k][0] == lev)[-1]
    need = h.scale(k) / (2.0 * constants.A0)
    thr = 0.25 * constants.A0**-2 * h.scale(k)
    # it lands next to a centre that the outcome keeps, under both
    # thresholds: the first outcome fails the separation and the counts, and
    # the separation is checked first
    bad = _nudged(space, [(nxt[c], lev[other], 0.8 * min(need, thr))])
    assert (bad.dist[nxt[c], z[k][0]] < thr).sum() == 2
    _assert_machines_agree(bad, constants, h, order,
                           f"new points at level {k} closer than")


def test_several_near_new_parents_matches_the_oracle():
    space, constants, h, order = _built("cycle(64, scale=1)", 0.2)
    k = h.k_coarse + 1
    lev, nxt = h.level(k), h.level(k + 1)
    thr = 0.25 * constants.A0**-2 * h.scale(k)
    cell, c = _new_children(h, order, k)[0]
    b1, b2 = (cell + 1) % lev.size, (cell + 2) % lev.size
    bad = _nudged(space, [(nxt[c], lev[b1], 0.5 * thr),
                          (nxt[c], lev[b2], 0.5 * thr)])
    _assert_machines_agree(bad, constants, h, order,
                           f"point {nxt[c]} has ")


@pytest.mark.parametrize("descriptor,delta", [
    ("grid(16,2)", 0.25), ("cycle(64, scale=1)", 0.2), ("power_line(33, 2)", 0.05)])
@pytest.mark.parametrize("seed", range(16))
def test_nudged_outcome_tables_match_the_oracle(descriptor, delta, seed):
    # two new points pulled near two centres, around the near-parent
    # threshold: the oracle's first failing outcome and its message, or else
    # its tables
    space, constants, h, order = _built(descriptor, delta)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(h.k_coarse, h.k_fine))
    lev, nxt = h.level(k), h.level(k + 1)
    thr = 0.25 * constants.A0**-2 * h.scale(k)
    new = nxt[[c for _, c in _new_children(h, order, k)]]
    xs = rng.choice(new, size=2)
    ys = rng.choice(lev, size=2, replace=lev.size < 2)
    bad = _nudged(space, [(x, y, thr * rng.uniform(0.2, 1.2))
                          for x in xs for y in ys])
    try:
        want = _outcome_tables_scan(bad, constants, h, order)
    except GeometryViolation as exc:
        assert _message(CubeMachine, bad, constants, h, order) == str(exc)
        return
    machine = CubeMachine(bad, constants, h, order)
    for kk in want[0]:
        _assert_same_arrays([machine.z_tables[kk], machine.parent_tables[kk]],
                            [want[0][kk], want[1][kk]])


def test_corrupted_labels_match_the_oracle():
    # every cell of label1 0, so one outcome promotes a child in every cell
    space, constants, h, order = _built("grid(16,2)", 0.25)
    label1 = tuple(np.zeros_like(v) for v in order.label1)
    bad = replace(order, label1=replace(order.label1, levels=label1))
    got = _message(CubeMachine, space, constants, h, bad)
    assert got == _message(_outcome_tables_scan, space, constants, h, bad)


def test_several_near_parents_matches_the_oracle():
    space, constants, h, order = _built("cycle(64, scale=1)", 0.2)
    k = h.k_coarse + 1
    lev, nxt = h.level(k), h.level(k + 1)
    cell, c = _new_children(h, order, k)[0]
    near = h.scale(k) / (2.0 * constants.A0)
    bad = _nudged(space, [(nxt[c], lev[cell], 0.5 * near),
                          (nxt[c], lev[(cell + 1) % lev.size], 0.5 * near)])
    got = _message(build_reference_order, bad, constants, h)
    assert got == _message(_order_with_pair_loop, bad, constants, h)
    assert f"child {nxt[c]} has several near parents at level {k}" in got


def test_far_neighbours_match_the_oracle():
    space, constants, h, order = _built("cycle(64, scale=1)", 0.2)
    k = h.k_fine - 1
    lev, nxt = h.level(k), h.level(k + 1)
    new = _new_children(h, order, k)
    far = 5.0 * constants.A0**3 * h.scale(k)
    pairs = [(p, q) for p in new for q in new
             if p[0] < q[0] and space.dist[lev[p[0]], lev[q[0]]] >= far]
    # new children of far apart cells pulled together: they stay off every
    # centre, so only the neighbour relation sees them, and the first pair
    # in row-major order raises
    picked = [pairs[-1], pairs[len(pairs) // 2], pairs[len(pairs) // 3]]
    bad = _nudged(space, [(nxt[ca], nxt[cb], 1e-3 * h.scale(k))
                          for (_, ca), (_, cb) in picked])
    got = _message(build_reference_order, bad, constants, h)
    assert got == _message(_order_with_pair_loop, bad, constants, h)
    a, b = min((p[0], q[0]) for p, q in picked)
    assert f"neighbours {lev[a]},{lev[b]} at level {k} too far apart" in got


@pytest.mark.parametrize("descriptor,delta", [("grid(16,2)", 0.25),
                                              ("power_line(33, 2)", 0.05)])
def test_out_of_range_and_repeated_labels_match_the_oracle(descriptor, delta):
    # as a hand-edited net file may hold them: label1 outside 0..L promotes
    # nothing, label2 outside 1..M neither, and of siblings sharing a label2
    # the first is promoted
    space, constants, h, order = _built(descriptor, delta)
    label1 = tuple(np.where(np.arange(v.size) % 3 == 0, order.L + 1,
                            np.where(np.arange(v.size) % 3 == 1, -1, v))
                   for v in order.label1)
    label2 = tuple(np.where(np.arange(v.size) % 4 == 0, order.M + 1,
                            np.where(np.arange(v.size) % 4 == 1, 0, 1))
                   for v in order.label2)
    bad = replace(order, label1=replace(order.label1, levels=label1),
                  label2=replace(order.label2, levels=label2))
    z_want, p_want = _outcome_tables_scan(space, constants, h, bad)
    machine = CubeMachine(space, constants, h, bad)
    for k in z_want:
        _assert_same_arrays([machine.z_tables[k], machine.parent_tables[k]],
                            [z_want[k], p_want[k]])


# ---------------------------------------------------------------------------
# A0's min-plus square
# ---------------------------------------------------------------------------


def _minplus_rows(A, B):
    out = np.empty_like(A)
    for i in range(A.shape[0]):
        out[i] = (A[i][:, None] + B).min(axis=0)
    return out


def _off(dist):
    off = dist.copy()
    np.fill_diagonal(off, np.inf)
    return off


def _constants_with_row_loop(space):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "minplus", lambda A: _minplus_rows(A, A))
        return compute_constants(space)


MINPLUS_SPACES = [
    "grid(16,2)", "cycle(64, scale=1)", "tree(4)", "power_line(33, 2)",
    "power_line(129, 2)",
    *[f"random_cloud({n},2,{s})" for n in (20, 64) for s in range(5)],
    # n = 1, 2 and 3
    "line(1)", "line(2)", "random_cloud(3,2,0)",
]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("descriptor", MINPLUS_SPACES)
def test_minplus_square_equals_the_row_loop(descriptor, p):
    base = resolve_space(descriptor)
    space = FiniteSpace(dist=base.dist**p, weights=base.weights)
    off = _off(space.dist)
    assert np.array_equal(minplus(off), _minplus_rows(off, off))
    got, want = compute_constants(space), _constants_with_row_loop(space)
    assert got.A0 == want.A0
    assert got.a0_witness == want.a0_witness


def test_minplus_refuses_an_asymmetric_matrix():
    # its square is not symmetric, so the upper triangle would not hold it
    A = np.random.default_rng(0).uniform(size=(9, 9))
    with pytest.raises(ValueError, match="symmetric"):
        minplus(A)


@pytest.mark.parametrize("descriptor", ["FIX-B", "power_line(9, 2)"])
def test_chain_constants_equal_the_row_loop(descriptor):
    # the tests' general product, one (n x n x n) reduction, against the row
    # loop
    space = resolve_space(descriptor)
    constants = compute_constants(space)
    got = helpers.chain_constants(space, constants, 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helpers, "minplus_product", _minplus_rows)
        want = helpers.chain_constants(space, constants, 4)
    assert np.array_equal(got, want)


def test_a0_witness_is_the_first_largest_pair_in_row_major_order():
    # on the squared line every pair at an even distance 2a reaches the
    # largest ratio, (2a)^2 / (a^2 + a^2) = 2, through its midpoint; the
    # ratios are symmetric, so the first tie in row-major order has x < y and
    # the upper triangle holds every ratio
    space = resolve_space("power_line(7, 2)")
    off = _off(space.dist)
    ratios = space.dist / _minplus_rows(off, off)
    ties = [tuple(int(v) for v in t) for t in np.argwhere(ratios == 2.0)]
    assert ratios.max() == 2.0
    assert {(y, x) for x, y in ties} == set(ties)
    assert len(ties) == 2 * (5 + 3 + 1)
    assert ties[0] == (0, 2)
    constants = compute_constants(space)
    assert constants.A0 == 2.0
    assert constants.a0_witness == (0, 2, 1)


def _inverse_and_sqrt_dense(M):
    """(M^-1, M^-1/2) from one ``eigh`` of the whole matrix."""
    M = np.asarray(M, dtype=float)
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-12 * max(1.0, abs(M).max())):
        raise NotSPDError("matrix is not symmetric")
    eigs, U = np.linalg.eigh(M)
    if eigs[0] <= 0.0:
        raise NotSPDError(f"matrix has eigenvalue {eigs[0]:.3e} <= 0")
    inv = (U / eigs) @ U.T
    isqrt = (U / np.sqrt(eigs)) @ U.T
    return 0.5 * (inv + inv.T), 0.5 * (isqrt + isqrt.T)


def _spd(rng, size):
    A = rng.normal(size=(size, size))
    M = A @ A.T + size * np.eye(size)
    return 0.5 * (M + M.T)


def _assert_equal_to_dense(M):
    for got, want in zip(inverse_and_sqrt(M), _inverse_and_sqrt_dense(M)):
        np.testing.assert_array_equal(got, want)


def test_diagonal_and_single_block_inverses_equal_the_dense_route():
    rng = np.random.default_rng(5)
    for n in range(1, 257):
        _assert_equal_to_dense(np.diag(rng.uniform(0.1, 3.0, size=n)))
    _assert_equal_to_dense(_spd(rng, 12))
    tri = np.eye(64)
    idx = np.arange(63)
    tri[idx, idx + 1] = tri[idx + 1, idx] = -0.3
    _assert_equal_to_dense(tri)


@given(sizes=st.lists(st.integers(min_value=1, max_value=7), min_size=1,
                      max_size=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_block_diagonal_inverse_property(sizes, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    M = np.zeros((n, n))
    block = np.repeat(np.arange(len(sizes)), sizes)
    start = 0
    for size in sizes:
        M[start:start + size, start:start + size] = _spd(rng, size)
        start += size
    perm = rng.permutation(n)
    M, block = M[np.ix_(perm, perm)], block[perm]
    inv, isqrt = inverse_and_sqrt(M)
    assert np.abs(inv @ M - np.eye(n)).max() <= 1e-10
    assert np.abs(isqrt @ isqrt @ M - np.eye(n)).max() <= 1e-10
    off = block[:, None] != block[None, :]
    assert np.all(inv[off] == 0.0) and np.all(isqrt[off] == 0.0)
    # one batched eigh per size, each component ascending
    found = sorted(tuple(row % n) for flat, _, _ in _eigh_blocks(M, "M")[0]
                   for row in flat[:, 0])
    assert found == sorted(tuple(np.flatnonzero(block == b))
                           for b in range(len(sizes)))
    if len(sizes) == 1 or max(sizes) == 1:
        _assert_equal_to_dense(M)


@pytest.mark.parametrize("scale", [0.5, 1e3])
def test_symmetry_tolerance_is_pinned(scale):
    M = _spd(np.random.default_rng(2), 6)
    M *= scale / np.abs(M).max()
    accepted = M.copy()
    accepted[0, 1] += 1e-13 * scale
    inverse_and_sqrt(accepted)
    rejected = M.copy()
    rejected[0, 1] += 1e-11 * scale
    with pytest.raises(NotSPDError, match="not symmetric"):
        inverse_and_sqrt(rejected)
    with pytest.raises(NotSPDError, match="not symmetric"):
        _inverse_and_sqrt_dense(rejected)


def test_an_entry_on_one_side_joins_its_indices():
    # within the symmetry tolerance, so the pattern must be symmetrized
    M = np.diag([1.0, 2.0, 3.0, 4.0])
    M[0, 3] = 1e-13
    blocks, _ = _eigh_blocks(M, "M")
    found = sorted(tuple(row % 4) for flat, _, _ in blocks for row in flat[:, 0])
    assert found == [(0, 3), (1,), (2,)]


def test_indefinite_block_is_refused():
    M = np.diag([1.0, 2.0, 3.0])
    M[1, 2] = M[2, 1] = 5.0
    with pytest.raises(NotSPDError, match="eigenvalue .* <= 0"):
        inverse_and_sqrt(M)
    with pytest.raises(NotSPDError, match="eigenvalue 0.000e\\+00 <= 0"):
        inverse_and_sqrt(np.diag([1.0, 0.0, 2.0]))


def _assert_bits_equal(got, want):
    # int64 view: a signed zero or a NaN payload counts
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("descriptor,delta", [
    ("FIX-B", 0.25), ("grid(16,2)", 0.25), ("cycle(256, scale=1)", 0.2),
    ("random_cloud(64,2,3)", 0.1), ("power_line(33,2)", 0.05)])
def test_duals_and_wavelets_equal_the_full_matrix_products(descriptor, delta):
    b = build_bundle(resolve_space(descriptor), delta)
    h = b.hierarchy
    for k in range(h.k_coarse, h.k_fine + 1):
        lv = b.gramsys.at(k)
        stilde, phi = helpers.duals_dense_oracle(lv, b.splines.at(k))
        _assert_bits_equal(lv.stilde, stilde)
        _assert_bits_equal(lv.phi, phi)
    for k in range(h.k_coarse, h.k_fine):
        tilde_psi, ys = pre_wavelets(b.space, h, b.splines, b.gramsys, k)
        if ys.size == 0:
            continue
        volumes = b.gramsys.at(k + 1).volumes[h.position(k + 1, ys)]
        sel = b.basis.is_wavelet & (b.basis.levels == k)
        _assert_bits_equal(b.basis.values[sel], helpers.orthonormalize_dense_oracle(
            b.space, tilde_psi, volumes))
