import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwave.space import (FiniteSpace, ValidationError,
                         canonical_radii, compute_constants, generate_space,
                         load_space, resolve_space, save_space)

from helpers import cmu_per_centre_oracle, power, rescale

SETTINGS = dict(deadline=None, max_examples=25)


def _grid_points(m, dim):
    axes = [np.arange(m, dtype=float)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


@pytest.mark.parametrize("m,dim", [(16, 2), (8, 3), (5, 4)])
def test_linf_grid_distances_bit_equal_one_reduction(m, dim):
    # the grid takes the max one coordinate at a time; max is exact, so the
    # distances are those of a reduction over the (n, n, dim) differences
    pts = _grid_points(m, dim)
    want = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=-1)
    got = generate_space(f"grid({m},{dim})").dist
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_fix_a_roundtrip(tmp_path, fix_a):
    save_space(fix_a, tmp_path / "a.json")
    back = load_space(tmp_path / "a.json")
    assert back.n == 4
    np.testing.assert_array_equal(back.dist, fix_a.dist)
    np.testing.assert_array_equal(back.weights, fix_a.weights)


def test_load_rejects_zero_weight(tmp_path):
    payload = {"n": 4, "metric": "explicit",
               "distances": [[abs(i - j) for j in range(4)] for i in range(4)],
               "weights": [1, 1, 0, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="weight must be positive"):
        load_space(path)


@pytest.mark.parametrize("value,at,reading", [
    (math.inf, 0, "finite"), (math.inf, 4, "finite"), (-math.inf, 2, "positive"),
    (math.nan, 3, "positive")])
def test_non_finite_weights_are_refused(tmp_path, value, at, reading):
    # +inf used to pass and fail later with "Eigenvalues did not converge"
    dist = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
    weights = np.ones(6)
    weights[at] = value
    message = f"^weight must be {reading} at index {at}$"
    with pytest.raises(ValidationError, match=message):
        FiniteSpace(dist=dist, weights=weights)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"metric": "explicit", "distances": dist.tolist(),
                                "weights": weights.tolist()}))
    with pytest.raises(ValidationError, match=message):
        load_space(path)


def test_load_rejects_zero_distance(tmp_path):
    dist = [[abs(i - j) for j in range(4)] for i in range(4)]
    dist[1][2] = dist[2][1] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"metric": "explicit", "distances": dist,
                                "weights": [1] * 4}))
    with pytest.raises(ValidationError, match="distance zero"):
        load_space(path)


def test_load_rejects_asymmetry(tmp_path):
    dist = [[abs(i - j) for j in range(3)] for i in range(3)]
    dist[0][1] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"metric": "explicit", "distances": dist,
                                "weights": [1] * 3}))
    with pytest.raises(ValidationError, match="asymmetric"):
        load_space(path)


def test_load_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="parse error"):
        load_space(path)


def test_fixture_b_metadata(fix_b):
    # diameter and minimum separation by direct enumeration of the matrix
    off = fix_b.dist[~np.eye(16, dtype=bool)]
    assert float(off.max()) == 0.5 == fix_b.diam
    assert float(off.min()) == 1 / 16 == fix_b.min_sep
    assert fix_b.weights.tolist() == [1 / 16] * 16


def test_power_line_quasi_triangle_constant():
    sp = generate_space("power_line(129, 2)")
    c = compute_constants(sp)
    assert c.A0 == 2.0  # 2**(r-1) for the squared line
    x, y, z = c.a0_witness
    assert sp.dist[x, y] == c.A0 * (sp.dist[x, z] + sp.dist[z, y])


def test_fix_a_is_metric(constants_a):
    assert constants_a.A0 == 1.0


def test_triple_scan_invariant(fix_b, constants_b):
    d = fix_b.dist
    a0 = constants_b.A0
    for z in range(16):
        sums = d[:, z][:, None] + d[z, :][None, :]
        mask = np.ones((16, 16), dtype=bool)
        mask[z, :] = mask[:, z] = False
        np.fill_diagonal(mask, False)
        assert np.all(d[mask] <= a0 * sums[mask] + 1e-12)


def _a0_triple_loop(d):
    """Reference: max over z and pairs x, y outside z of d(x,y) / (d(x,z) + d(z,y))."""
    n = d.shape[0]
    best = 1.0
    for z in range(n):
        sums = d[:, z][:, None] + d[z, :][None, :]
        mask = ~np.eye(n, dtype=bool)
        mask[z, :] = mask[:, z] = False
        if mask.any():
            best = max(best, float((d[mask] / sums[mask]).max()))
    return best


@pytest.mark.parametrize("descriptor,power", [
    ("power_line(9, 2)", 1.0), ("grid(5, 2, metric=l2)", 1.0),
    ("tree(3)", 1.0), ("random_cloud(14, 2, 3)", 2.0),
    ("random_cloud(14, 2, 5)", 1.7), ("line(3)", 1.0),
])
def test_quasi_triangle_constant_equals_triple_loop(descriptor, power):
    sp = generate_space(descriptor)
    sp = FiniteSpace(dist=sp.dist**power, weights=sp.weights)
    c = compute_constants(sp)
    assert c.A0 == _a0_triple_loop(sp.dist)
    if c.A0 > 1.0:
        x, y, z = c.a0_witness
        assert len({x, y, z}) == 3
        d = sp.dist
        assert d[x, y] / (d[x, z] + d[z, y]) == c.A0
    else:
        assert c.a0_witness is None


def test_cmu_against_dense_grid_oracle(fix_b, constants_b):
    # oracle: sweep a fine radius grid well past the diameter
    t = 2.0
    grid = np.arange(1, 2000) / 1024.0
    best = 1.0
    for x in range(16):
        row = fix_b.dist[x]
        for r in grid:
            v1 = fix_b.weights[row < r].sum()
            v2 = fix_b.weights[row < t * r].sum()
            best = max(best, v2 / v1)
    assert constants_b.cmu(2.0) == pytest.approx(best)
    assert constants_b.cmu(2.0) == 3.0


def _cmu_global_breakpoints(space, t):
    # every centre scanned over the global list of distances and distances / t
    pos = np.unique(space.dist)
    pos = pos[pos > 0]
    if pos.size == 0:
        return 1.0
    radii = np.unique(np.concatenate([pos, pos / t, [pos[-1] + 1.0]]))
    best = 1.0
    for x in range(space.n):
        row = space.dist[x]
        order = np.argsort(row, kind="stable")
        sorted_d = row[order]
        cumw = np.cumsum(space.weights[order])
        vol = cumw[np.searchsorted(sorted_d, radii, side="left") - 1]
        vol_t = cumw[np.searchsorted(sorted_d, t * radii, side="left") - 1]
        best = max(best, float((vol_t / vol).max()))
    return best


@pytest.mark.parametrize("descriptor", [
    "FIX-A", "FIX-B", "cycle(16, scale=1)", "tree(4)", "grid(5, 2, metric=l2)",
    "power_line(9, 2)", "two_cluster(12, 20)", "line(1)",
    "random_cloud(20, 2, 1)", "random_cloud(30, 3, 7, weights=uniform)",
])
@pytest.mark.parametrize("t", [2.0, 3.0, 6.75])
def test_cmu_per_centre_equals_global_breakpoints(descriptor, t):
    sp = resolve_space(descriptor)
    assert compute_constants(sp).cmu(t) == _cmu_global_breakpoints(sp, t)


CMU_ORACLE_SPACES = ["FIX-A", "FIX-B", "line(1)", "line(2)", "tree(4)",
                     "two_cluster(12, 7)", "grid(16, 2)", "random_cloud(20, 2, 1)",
                     "random_cloud(64, 2, 3)", "random_cloud(256, 2, 5)"]


@pytest.mark.parametrize("descriptor", CMU_ORACLE_SPACES)
def test_cmu_equals_per_centre_oracle(descriptor):
    """Distinct radii only, and none past the first whose t r clears the
    farthest point, give the bits of the scan over every distance."""
    sp = resolve_space(descriptor)
    c = compute_constants(sp)
    for t in (1.0, 1.5, 2.0, 3.0 * c.A0**2, 1e9):
        assert c.cmu(t) == cmu_per_centre_oracle(sp, t)


@pytest.mark.parametrize("descriptor", ["FIX-B", "grid(16, 2)", "tree(4)",
                                        "random_cloud(20, 2, 1)", "line(1)"])
def test_sizes_equals_size_per_pair(descriptor):
    """Ties (the grid's and the tree's equal distances, and radii drawn from
    the distances themselves), r = 0, r = inf and radii unsorted within a
    centre: every pair counts what ``size`` counts."""
    sp = resolve_space(descriptor)
    tab = sp.balls
    rng = np.random.default_rng(3)
    xs = np.sort(rng.integers(0, sp.n, size=8 * sp.n))
    r = np.concatenate([sp.dist[xs[:2 * sp.n], rng.integers(0, sp.n, size=2 * sp.n)],
                        rng.uniform(0.0, 1.5 * sp.diam + 1.0, size=6 * sp.n)])
    r[rng.integers(0, r.size, size=sp.n)] = 0.0
    r[rng.integers(0, r.size, size=sp.n)] = np.inf
    rng.shuffle(r)
    want = np.array([tab.size(int(x), float(v)) for x, v in zip(xs, r)])
    assert np.array_equal(tab.sizes(xs, r), want)
    # ungrouped centres cost more searches, not other counts
    mixed = rng.permutation(xs.size)
    assert np.array_equal(tab.sizes(xs[mixed], r[mixed]), want[mixed])
    assert tab.sizes(xs[:0], r[:0]).size == 0


def _max_packing(space):
    """Largest set of points of one ball B(x, r), r a canonical radius,
    pairwise farther than half its largest member distance, by trying every
    subset."""
    d = space.dist
    best = 1
    for x in range(space.n):
        for r in canonical_radii(space):
            members = np.nonzero(d[x] < r)[0]
            half = d[x, members].max() / 2
            for size in range(members.size, best, -1):
                if any(all(d[a, b] > half for a, b in itertools.combinations(sub, 2))
                       for sub in itertools.combinations(members, size)):
                    best = size
                    break
    return best


# (greedy count, maximum packing) wherever the greedy pass falls short
GREEDY_SHORTFALLS = {
    "random_cloud(8, 2, 4)": (4, 5),
    "random_cloud(10, 2, 5)": (6, 7),
    "random_cloud(10, 2, 6)": (5, 6),
}


@pytest.mark.parametrize("descriptor", [
    "FIX-A", "line(10)", "cycle(10)", "cycle(9, scale=1)", "tree(2)",
    "grid(3, 2)", "grid(3, 2, metric=l2)", "two_cluster(8, 10)",
    "power_line(6, 2)", "line(1)", "random_cloud(4, 2, 1)",
    "random_cloud(5, 2, 4)", "random_cloud(7, 2, 5)",
    *(f"random_cloud({n}, 2, {s})" for n in (8, 10) for s in range(1, 7)),
])
def test_greedy_n_geo_is_a_lower_bound(descriptor):
    sp = resolve_space(descriptor)
    greedy = compute_constants(sp).n_geo_lower_bound
    exact = _max_packing(sp)
    assert greedy <= exact
    assert GREEDY_SHORTFALLS.get(descriptor, (exact, exact)) == (greedy, exact)


def test_cmu_monotone_in_t(constants_b):
    values = [constants_b.cmu(t) for t in (1.0, 1.5, 2.0, 3.0, 4.0)]
    assert values == sorted(values)
    assert all(v >= 1.0 for v in values)


def test_ball_strict_inequality(fix_a):
    assert fix_a.ball(1, 1.0).tolist() == [1]
    assert fix_a.ball(1, 1.5).tolist() == [0, 1, 2]
    assert fix_a.volume(1, 1.5) == 3.0


def test_fix_b_ball_volume(fix_b):
    # nine points closer than 5/16 under uniform weights 1/16
    assert fix_b.ball(0, 5 / 16).size == 9
    assert fix_b.volume(0, 5 / 16) == pytest.approx(9 / 16)


def test_ball_rejects_nonpositive_radius(fix_a):
    with pytest.raises(ValueError):
        fix_a.ball(0, 0.0)
    with pytest.raises(ValueError):
        fix_a.volume(0, -1.0)


def test_volume_monotone_and_positive(fix_b, wide_line):
    for sp in (fix_b, wide_line, generate_space("cycle(20, weights=uniform)")):
        for x in range(sp.n):
            vols = [sp.volume(x, r) for r in canonical_radii(sp)]
            assert vols == sorted(vols)
            assert vols[0] >= sp.weights[x] > 0


def _masked_volume(space, x, r):
    """Ball mass as a pairwise sum over the ball, in index order."""
    return float(space.weights[space.dist[x] < r].sum())


@pytest.mark.parametrize("descriptor", [
    "FIX-A", "FIX-B", "tree(4)", "grid(5, 2, metric=l2)", "cycle(16, scale=1)",
    "random_cloud(20, 2, 1)", "cycle(20, weights=uniform)",
])
def test_volume_equals_masked_sum(descriptor):
    # exact on counting and FIX-B's 1/16 weights, last bits elsewhere
    sp = resolve_space(descriptor)
    exact = descriptor != "cycle(20, weights=uniform)"
    for x in range(sp.n):
        for r in canonical_radii(sp):
            want = _masked_volume(sp, x, r)
            assert sp.volume(x, r) == (want if exact else pytest.approx(want))


@pytest.mark.parametrize("descriptor", ["FIX-B", "cycle(20, weights=uniform)"])
def test_ball_table_order(descriptor):
    sp = resolve_space(descriptor)
    tab = sp.balls
    with pytest.raises(ValueError):
        tab.order[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        tab.order = tab.order.copy()
    for x in range(sp.n):
        assert tab.order[x, 0] == x
        assert np.array_equal(sp.dist[x, tab.order[x]], tab.dist[x])
        assert np.array_equal(np.cumsum(sp.weights[tab.order[x]]), tab.mass[x, 1:])


def test_single_point_space():
    sp = FiniteSpace(dist=np.zeros((1, 1)), weights=np.array([2.5]))
    c = compute_constants(sp)
    assert (c.A0, c.n_geo_lower_bound) == (1.0, 1)
    assert sp.ball(0, 0.5).tolist() == [0]


def test_generator_determinism():
    a = generate_space("random_cloud(20, 3, 99)")
    b = generate_space("random_cloud(20, 3, 99)")
    assert a.dist.tobytes() == b.dist.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


def test_generator_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        generate_space("line(0)")
    with pytest.raises(ValidationError):
        generate_space("power_line(5, 0.5)")
    with pytest.raises(ValidationError):
        generate_space("mystery(4)")


def test_two_cluster_gap():
    sp = generate_space("two_cluster(4, 100)")
    assert sp.dist[1, 2] == 99.0
    assert sp.dist[0, 1] == 1.0


def test_two_cluster_rejects_overlapping_gap():
    with pytest.raises(ValidationError, match="gap 5 must exceed the first cluster's width 5"):
        generate_space("two_cluster(12, 5)")
    sp = generate_space("two_cluster(14, 9.5)")
    assert sp.n == 14
    assert sp.dist[6, 7] == 3.5


def test_grid_linf_is_metric():
    sp = generate_space("grid(3, 2)")
    assert sp.n == 9
    assert compute_constants(sp).A0 == 1.0


def test_tree_path_metric():
    sp = generate_space("tree(2)")
    assert sp.n == 7
    assert sp.dist[3, 4] == 2.0  # siblings through their parent
    assert sp.dist[3, 6] == 4.0  # across the root


def _tree_pair_loop(depth):
    """Path distances of the complete binary tree, pair by pair through the
    lowest common ancestor found in each node's chain of ancestors."""
    n = 2 ** (depth + 1) - 1

    def ancestors(i):
        chain = [i]
        while i > 0:
            i = (i - 1) // 2
            chain.append(i)
        return chain

    anc = [ancestors(i) for i in range(n)]
    depths = [len(a) - 1 for a in anc]
    dist = np.zeros((n, n))
    for i in range(n):
        seti = set(anc[i])
        for j in range(i + 1, n):
            common = next(a for a in anc[j] if a in seti)
            dist[i, j] = dist[j, i] = depths[i] + depths[j] - 2 * depths[common]
    return dist


@pytest.mark.parametrize("depth", range(7))
def test_tree_equals_the_pair_loop(depth):
    assert np.array_equal(generate_space(f"tree({depth})").dist,
                          _tree_pair_loop(depth))


@pytest.mark.parametrize("scale", [None, 0.3])
def test_euclidean_file_equals_the_random_cloud(tmp_path, scale):
    """A space file and ``random_cloud`` share one Euclidean metric; a file's
    scale multiplies it after it is symmetrized."""
    pts = np.random.default_rng(3).uniform(size=(14, 2))
    data = {"metric": "euclidean", "coords": pts.tolist()}
    if scale is not None:
        data["scale"] = scale
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps(data))
    want = generate_space("random_cloud(14, 2, 3)").dist
    if scale is not None:
        want = want * scale
    assert np.array_equal(load_space(path).dist, want)


def test_euclidean_file_equals_the_l2_grid(tmp_path):
    lattice = [[i, j] for i in range(4) for j in range(4)]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"metric": "euclidean", "coords": lattice}))
    assert np.array_equal(load_space(path).dist,
                          generate_space("grid(4, 2, metric=l2)").dist)


def test_load_euclidean_and_power_metrics(tmp_path):
    path = tmp_path / "euc.json"
    path.write_text(json.dumps({"metric": "euclidean",
                                "coords": [[0, 0], [3, 4], [0, 1]],
                                "weights": [1, 2, 3]}))
    sp = load_space(path)
    assert sp.dist[0, 1] == 5.0
    path.write_text(json.dumps({"metric": "power", "r": 2,
                                "coords": [0, 1, 2], "weights": [1, 1, 1]}))
    sp = load_space(path)
    assert sp.dist[0, 2] == 4.0


def test_load_scale_field(tmp_path):
    dist = [[abs(i - j) for j in range(3)] for i in range(3)]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"metric": "explicit", "distances": dist,
                                "weights": [1, 1, 1], "scale": 0.5}))
    assert load_space(path).dist[0, 2] == 1.0


def test_resolve_space_fixture_descriptor_and_path(tmp_path, fix_a):
    assert resolve_space("FIX-A").n == 4
    assert resolve_space("line(7)").n == 7
    save_space(fix_a, tmp_path / "a.json")
    assert resolve_space(str(tmp_path / "a.json")).n == 4
    with pytest.raises(ValidationError):
        resolve_space("no-such-thing")


@given(s=st.floats(min_value=0.1, max_value=1.0),
       seed=st.integers(min_value=0, max_value=50))
@settings(**SETTINGS)
def test_snowflake_stability(s, seed):
    # the quasi-triangle constant of dist**s never exceeds A0**s
    sp = generate_space(f"random_cloud(12, 2, {seed})")
    a0 = compute_constants(sp).A0
    a0_s = compute_constants(power(sp, s)).A0
    assert a0_s <= a0**s + 1e-12


def test_snowflake_stability_power_line():
    sp = generate_space("power_line(17, 2)")
    a0 = compute_constants(sp).A0
    a0_half = compute_constants(power(sp, 0.5)).A0
    assert a0_half <= a0**0.5 + 1e-12
    assert a0_half == 1.0  # the square root of the squared line is the line


@given(seed=st.integers(min_value=0, max_value=100),
       n=st.integers(min_value=2, max_value=12))
@settings(**SETTINGS)
def test_random_cloud_constants_are_consistent(seed, n):
    sp = generate_space(f"random_cloud({n}, 2, {seed})")
    c = compute_constants(sp)
    d = sp.dist
    for z in range(n):
        sums = d[:, z][:, None] + d[z, :][None, :]
        mask = ~np.eye(n, dtype=bool)
        mask[z, :] = mask[:, z] = False
        assert np.all(d[mask] <= c.A0 * sums[mask] * (1 + 1e-12))
    assert c.n_geo_lower_bound >= 1
    assert c.cmu(2.0) >= 1.0


def test_rescale_preserves_structure(fix_b):
    big = rescale(fix_b, 16.0)
    assert big.min_sep == 1.0
    assert compute_constants(big).A0 == 1.0
