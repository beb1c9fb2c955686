import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

import hwave.analysis as an
from hwave import space as space_module
from hwave.nets import NetHierarchy, build_nets
from hwave.pipeline import build_bundle
from hwave.randomized import sample_omega
from hwave.space import (FiniteSpace, SpaceConstants, canonical_radii,
                         compute_constants, generate_space, resolve_space)

from helpers import (almost_diagonal_bound, almost_diagonal_check,
                     bmo_norm_blocks_oracle, dichotomy_ranks_oracle, distinct_balls,
                     size_redundancy_check)


@pytest.fixture(scope="module")
def two_cluster():
    sp = generate_space("two_cluster(4, 100)")
    return sp, compute_constants(sp)


@pytest.fixture(scope="module")
def plateau_bundle():
    return build_bundle(generate_space("two_cluster(6, 64)"), 0.25)


# ---------------------------------------------------------------------------
# Dichotomy
# ---------------------------------------------------------------------------


def test_dichotomy_gap_forces_empty_annulus(two_cluster):
    sp, c = two_cluster
    verdict = an.empty_annulus_dichotomy(sp, c, 0, 2.0, 50.0)
    assert verdict.annulus_empty


def test_dichotomy_fix_b_volume_growth(fix_b, constants_b):
    verdict = an.empty_annulus_dichotomy(fix_b, constants_b, 0, 1 / 16, 1 / 2)
    assert verdict.volume_growth
    assert verdict.eps == pytest.approx(1 / constants_b.cmu(3.0))


def test_dichotomy_vacuous_annulus_range(fix_a, constants_a):
    # R small enough that the annulus index range is empty
    verdict = an.empty_annulus_dichotomy(fix_a, constants_a, 0, 1.0, 1.5)
    assert verdict.annulus_empty


def test_dichotomy_never_fails_on_scans(fix_b, constants_b, two_cluster):
    for sp, c in ((fix_b, constants_b), two_cluster):
        radii = canonical_radii(sp)
        for x in range(sp.n):
            for i, r in enumerate(radii):
                for R in radii[i + 1:]:
                    an.empty_annulus_dichotomy(sp, c, x, float(r), float(R))


def test_dichotomy_rejects_bad_radii(fix_a, constants_a):
    with pytest.raises(ValueError):
        an.empty_annulus_dichotomy(fix_a, constants_a, 0, 2.0, 1.0)


# Spaces for the scan oracle; the random clouds have D = 191 canonical radii.
SCAN_SPACES = ["FIX-A", "FIX-B", "cycle(20, weights=uniform)", "tree(4)",
               "grid(5, 2, l2)", "two_cluster(12, 20)", "random_cloud(20, 2, 2)",
               "random_cloud(20, 2, 4)", "random_cloud(20, 2, 5)",
               "random_cloud(20, 2, 6)"]


def _triples(sp, a0):
    """For every x and canonical r: x, r, V(x, r), then the radii R > r, V(x, R)
    and whether the annulus 2 A0 r <= d(x, .) < R / (2 A0) is nonempty, with
    the expressions of ``empty_annulus_dichotomy``."""
    radii = canonical_radii(sp)
    for x in range(sp.n):
        row = sp.dist[x][:, None]
        vol = np.array([sp.volume(x, float(r)) for r in radii])
        for i, r in enumerate(radii):
            annulus = (row >= 2.0 * a0 * r) & (row < radii[i + 1:] / (2.0 * a0))
            yield x, r, vol[i], radii[i + 1:], vol[i + 1:], annulus.any(axis=0)


def _dichotomy_triple_loop(sp, c):
    """Whether the dichotomy holds at every (x, r, R), the R loop vectorised."""
    eps = 1.0 / c.cmu(3.0 * c.A0**2)
    return not any((~(big >= (1.0 + eps) * v) & nonempty).any()
                   for _, _, v, _, big, nonempty in _triples(sp, c.A0))


def _dichotomy_per_ball_scan(sp, c, radii):
    """The scan with one ``empty_annulus_dichotomy`` call per distinct ball
    B(x, r), at its first radius and the first R whose annulus is nonempty."""
    a0 = c.A0
    for x in range(sp.n):
        srow = sp.balls.dist[x]
        starts = distinct_balls(sp, x, radii)
        inner = np.searchsorted(srow, 2.0 * a0 * radii[starts], side="left")
        nearest = np.append(srow, np.inf)[inner]
        first_R = np.searchsorted(radii / (2.0 * a0), nearest, side="right")
        keep = first_R < radii.size
        for i, j in zip(starts[keep], first_R[keep]):
            try:
                an.empty_annulus_dichotomy(sp, c, x, float(radii[i]), float(radii[j]))
            except AssertionError:
                return False
    return True


def _least_slack_triples(sp, c):
    """Least V(x, R) - (1 + eps) V(x, r) over the (x, r, R) with a nonempty
    annulus, and every triple that attains it."""
    eps = 1.0 / c.cmu(3.0 * c.A0**2)
    best, argbest = math.inf, set()
    for x, r, v, Rs, big, nonempty in _triples(sp, c.A0):
        slack = big[nonempty] - (1.0 + eps) * v
        if slack.size == 0 or slack.min() > best:
            continue
        if slack.min() < best:
            best, argbest = slack.min(), set()
        argbest |= {(x, float(r), float(R)) for R in Rs[nonempty][slack == best]}
    return best, argbest


def _least_growth(sp, c):
    """Least V(x, R) / V(x, r) over the triples with a nonempty annulus."""
    return min(((big[nonempty] / v).min()
                for _, _, v, _, big, nonempty in _triples(sp, c.A0)
                if nonempty.any()),
               default=math.inf)


@pytest.mark.parametrize("desc", SCAN_SPACES)
def test_dichotomy_scan_matches_triple_loop(desc):
    sp = resolve_space(desc)
    c = compute_constants(sp)
    radii = canonical_radii(sp)
    assert _dichotomy_triple_loop(sp, c)
    assert an.dichotomy_holds(sp, c, radii)
    # A forced C_mu(3 A0^2) shrinks the growth factor.  1.0 and 1.25 make the
    # random clouds fail; just past the least growth ratio only the tightest
    # triples fail, which a scan checking the wrong R would miss.
    key = float(3.0 * c.A0**2)
    forced = {1.0: None, 1.25: None}
    rho = _least_growth(sp, c)
    if math.isfinite(rho):
        forced[1.0 / ((rho - 1.0) * (1.0 - 1e-9))] = True
        forced[1.0 / ((rho - 1.0) * (1.0 + 1e-9))] = False
    verdicts = []
    for cmu, holds in forced.items():
        cc = dataclasses.replace(c, _cmu_cache={key: cmu})
        expected = _dichotomy_triple_loop(sp, cc)
        assert holds is None or expected == holds
        assert an.dichotomy_holds(sp, cc, radii) == expected
        assert _dichotomy_per_ball_scan(sp, cc, radii) == expected
        verdicts.append(expected)
    if desc.startswith("random_cloud"):
        assert not verdicts[0] and not verdicts[1]


@pytest.mark.parametrize("desc", SCAN_SPACES + ["grid(16, 2)", "random_cloud(64, 2, 3)"])
def test_dichotomy_scan_equals_ranks_oracle(monkeypatch, desc):
    """Ball sizes from one search per centre make the one call that integer
    distance ranks made, with the same verdict, at the true C_mu and at
    forced ones that make some or only the tightest triples fail."""
    sp = resolve_space(desc)
    c = compute_constants(sp)
    radii = canonical_radii(sp)
    key = float(3.0 * c.A0**2)
    forced = [None, 1.0, 1.25]
    rho = _least_growth(sp, c)
    if math.isfinite(rho):
        forced += [1.0 / ((rho - 1.0) * (1.0 - 1e-9)), 1.0 / ((rho - 1.0) * (1.0 + 1e-9))]
    calls = _counted_calls(monkeypatch)
    for cmu in forced:
        cc = c if cmu is None else dataclasses.replace(c, _cmu_cache={key: cmu})
        holds = an.dichotomy_holds(sp, cc, radii)
        made = calls[:]
        calls.clear()
        assert holds == dichotomy_ranks_oracle(sp, cc, radii)
        assert made == calls and len(made) <= 1
        calls.clear()


@pytest.mark.parametrize("cmu", [None, 1.0])
def test_dichotomy_scan_agrees_with_calls(cmu):
    """The vectorised oracle against one ``empty_annulus_dichotomy`` call per
    (x, r, R), on a space small enough for every call (29 radii)."""
    sp = generate_space("random_cloud(8, 2, 1)")
    c = compute_constants(sp)
    if cmu is not None:
        c = dataclasses.replace(c, _cmu_cache={float(3.0 * c.A0**2): cmu})
    radii = canonical_radii(sp)
    failed = False
    for x in range(sp.n):
        for i, r in enumerate(radii):
            for R in radii[i + 1:]:
                try:
                    an.empty_annulus_dichotomy(sp, c, x, float(r), float(R))
                except AssertionError:
                    failed = True
    assert failed == (cmu is not None)
    assert _dichotomy_triple_loop(sp, c) == (not failed)
    assert an.dichotomy_holds(sp, c, radii) == (not failed)


def test_dichotomy_scan_without_monotone_volumes(wide_line):
    """On weights where a pairwise sum in index order made volumes drop as
    the ball grows, the running sums in distance order never drop, so the
    first R with a nonempty annulus is the R of least mass."""
    sp = wide_line
    radii = canonical_radii(sp)
    for x in range(sp.n):
        vol = np.array([sp.volume(x, float(r)) for r in radii])
        assert (np.diff(vol) >= 0).all()
    c = compute_constants(sp)
    c = dataclasses.replace(c, _cmu_cache={float(3.0 * c.A0**2): 15.886452615886332})
    assert _dichotomy_triple_loop(sp, c)
    assert an.dichotomy_holds(sp, c, radii)


def _counted_calls(monkeypatch):
    """Record every ``empty_annulus_dichotomy`` call as (x, r, R, raised)."""
    calls = []
    real = an.empty_annulus_dichotomy

    def counted(sp, c, x, r, R):
        try:
            real(sp, c, x, r, R)
        except AssertionError:
            calls.append((x, r, R, True))
            raise
        calls.append((x, r, R, False))

    monkeypatch.setattr(an, "empty_annulus_dichotomy", counted)
    return calls


def _one_least_slack_call(monkeypatch, sp, c):
    """The scan's verdict; its one call was at a triple of least slack and
    raised exactly when that slack is negative."""
    radii = canonical_radii(sp)
    slack, least = _least_slack_triples(sp, c)
    calls = _counted_calls(monkeypatch)
    holds = an.dichotomy_holds(sp, c, radii)
    assert len(calls) == 1
    x, r, R, raised = calls[0]
    assert (x, r, R) in least
    assert raised == (slack < 0) == (not holds)
    return holds


def test_dichotomy_scan_call_budget(monkeypatch):
    sp = generate_space("random_cloud(20, 2, 1)")
    assert _one_least_slack_call(monkeypatch, sp, compute_constants(sp))


def test_dichotomy_scan_call_raises_at_least_slack(monkeypatch):
    """A C_mu(3 A0^2) forced just past the least growth ratio makes only the
    tightest triples fail, and the one call is the one that raises."""
    sp = generate_space("random_cloud(20, 2, 1)")
    c = compute_constants(sp)
    rho = _least_growth(sp, c)
    c = dataclasses.replace(
        c, _cmu_cache={float(3.0 * c.A0**2): 1.0 / ((rho - 1.0) * (1.0 + 1e-9))})
    assert not _one_least_slack_call(monkeypatch, sp, c)


@pytest.mark.parametrize("dist, weights", [
    ([[0.0]], [1.0]),
    ([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]),
    ([[0.0, 3.0], [3.0, 0.0]], [1e-9, 5.0]),
])
def test_dichotomy_scan_on_one_and_two_points(monkeypatch, dist, weights):
    """No annulus of one or two points is nonempty: every scan holds, with
    no call, whatever C_mu(3 A0^2) is."""
    sp = FiniteSpace(dist=np.array(dist), weights=np.array(weights))
    c = compute_constants(sp)
    radii = canonical_radii(sp)
    calls = _counted_calls(monkeypatch)
    for cmu in (None, 1.0):
        cc = c if cmu is None else dataclasses.replace(
            c, _cmu_cache={float(3.0 * c.A0**2): cmu})
        assert _dichotomy_triple_loop(sp, cc)
        assert _dichotomy_per_ball_scan(sp, cc, radii)
        assert an.dichotomy_holds(sp, cc, radii)
    assert calls == []


# ---------------------------------------------------------------------------
# Volume-growth sequences and large-ball sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KjSequence:
    x: int
    r: float
    eps: float
    raw: tuple        # the k(j) values from the construction
    relabeled: tuple  # k_0 = k(0), k_{j+1} = k(j) - 2
    certificates: tuple
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def kj_sequence(space: FiniteSpace, constants: SpaceConstants, h: NetHierarchy,
                x: int, r: float) -> KjSequence:
    """Volume-growth level sequence with its distance-to-new-points certificates.

    k(0) is the largest level whose scale is at least r; each next k(j+1) is
    the largest level whose ball mass beats the previous one by the dichotomy
    factor.  In the gap levels the distance to the new points is certified
    from below, and past the end of the sequence no new points exist at all.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    a0 = constants.A0
    delta = h.delta
    eps = 1.0 / constants.cmu(3.0 * a0**2)
    total = space.total_mass
    raw = [an._largest_k_scale_geq(delta, r)]
    while True:
        target = (1.0 + eps) * space.volume(x, delta ** raw[-1])
        if target > total:
            break
        k = raw[-1] - 1
        while space.volume(x, delta**k) < target:
            k -= 1
        raw.append(k)

    slack = 1.0 - 1e-12
    certificates = []
    failures = []
    v_r = space.volume(x, r)
    for j in range(len(raw)):
        lo = raw[j + 1] - 1 if j + 1 < len(raw) else h.k_coarse - 1
        hi = raw[j] - 2
        for k in range(max(lo, h.k_coarse - 1), hi + 1):
            vol_ok = space.volume(x, delta**k) >= (1.0 + eps) ** j * v_r * slack
            certificates.append(("volume", j, k, vol_ok))
            if not vol_ok:
                failures.append(f"volume certificate failed at j={j}, k={k}")
            dist_y = an._dist_to_new_points(space, h, x, k)
            if j + 1 < len(raw):
                need = (delta / (2.0 * a0)) * delta ** raw[j + 1]
                dist_ok = dist_y + delta**k >= need * slack
            else:
                # terminal range: no new points may exist at these levels
                dist_ok = math.isinf(dist_y)
            certificates.append(("distance", j, k, dist_ok))
            if not dist_ok:
                failures.append(f"distance certificate failed at j={j}, k={k}")

    relabeled = (raw[0],) + tuple(k - 2 for k in raw)
    return KjSequence(x=x, r=float(r), eps=eps, raw=tuple(raw),
                      relabeled=relabeled, certificates=tuple(certificates),
                      failures=tuple(failures))


def test_kj_sequence_single_point():
    sp = FiniteSpace(dist=np.zeros((1, 1)), weights=np.ones(1))
    bundle = build_bundle(sp, 0.25)
    kj = kj_sequence(sp, bundle.constants, bundle.hierarchy, 0, 0.5)
    assert len(kj.raw) == 1
    assert kj.ok


def test_kj_sequence_fix_b(bundle_b):
    kj = kj_sequence(bundle_b.space, bundle_b.constants, bundle_b.hierarchy,
                        0, 1 / 16)
    assert kj.ok, kj.failures
    # independent reconstruction of the raw sequence
    sp, h = bundle_b.space, bundle_b.hierarchy
    eps = kj.eps
    raw = [2]  # largest k with (1/4)^k >= 1/16
    assert h.delta ** raw[0] >= 1 / 16 > h.delta ** (raw[0] + 1)
    while True:
        target = (1 + eps) * sp.volume(0, h.delta ** raw[-1])
        if target > sp.total_mass:
            break
        k = raw[-1] - 1
        while sp.volume(0, h.delta**k) < target:
            k -= 1
        raw.append(k)
    assert kj.raw == tuple(raw)
    assert kj.relabeled[0] == kj.raw[0]
    assert kj.relabeled[1:] == tuple(k - 2 for k in kj.raw)


def test_kj_sequence_certificates_on_plateau(plateau_bundle):
    b = plateau_bundle
    for x in (0, 3):
        kj = kj_sequence(b.space, b.constants, b.hierarchy, x, 1.0)
        assert kj.ok, kj.failures
        # the gap produces levels with no new points at all
        empties = [k for k in range(b.hierarchy.k_coarse, b.hierarchy.k_fine)
                   if b.hierarchy.wavelet_centers(k).size == 0]
        assert empties


def test_sum_large_balls_single_level(bundle_b):
    # only the top level contributes: one term bounded by one
    ratio = an.verify_sum_large_balls(bundle_b.space, bundle_b.hierarchy,
                                      0, 1.0, 1.0, 1.0, 1.0)
    assert ratio <= 1.0 + 1e-12


def test_sum_large_balls_parameters(bundle_b):
    with pytest.raises(ValueError):
        an.verify_sum_large_balls(bundle_b.space, bundle_b.hierarchy,
                                  0, 1.0, -1.0, 1.0, 1.0)


def test_sum_large_balls_sup_stable(bundle_b, bundle_c32):
    s16 = an.sum_large_balls_sup(bundle_b.space, bundle_b.hierarchy, 1, 1, 1)
    s32 = an.sum_large_balls_sup(bundle_c32.space, bundle_c32.hierarchy, 1, 1, 1)
    assert math.isfinite(s16) and math.isfinite(s32)
    assert max(s16, s32) / min(s16, s32) <= 1.3


@pytest.mark.parametrize("desc,delta", [
    ("FIX-A", 0.25), ("FIX-B", 0.25), ("cycle(16, scale=1)", 0.2),
    ("tree(4)", 0.25), ("two_cluster(6, 64)", 0.25), ("grid(4, 2)", 0.25),
    ("random_cloud(20, 2, 1)", 0.25),
])
@pytest.mark.parametrize("nu,a,gamma", [(1.0, 1.0, 1.0), (0.5, 2.0, 0.3)])
def test_sum_large_balls_sup_equals_scan_over_every_radius(desc, delta, nu, a, gamma):
    b = build_bundle(resolve_space(desc), delta)
    full = max(an.verify_sum_large_balls(b.space, b.hierarchy, x, float(r),
                                         nu, a, gamma)
               for x in range(b.space.n) for r in canonical_radii(b.space))
    assert an.sum_large_balls_sup(b.space, b.hierarchy, nu, a, gamma) == full


def _greedy_doubling_per_radius(sp):
    """N_geo's greedy packings over each centre's canonical radii, one
    distinct ball at its first radius at a time."""
    radii = canonical_radii(sp)
    best = 1
    for x in range(sp.n):
        for r in radii[distinct_balls(sp, x, radii)]:
            members = np.nonzero(sp.dist[x] < r)[0]
            if members.size <= best:
                continue
            half = sp.balls.dist[x, members.size - 1] / 2.0
            conflict = sp.dist[np.ix_(members, members)] <= half
            np.fill_diagonal(conflict, False)
            best = max(best, space_module._greedy_packing(conflict))
    return best


@pytest.mark.parametrize("desc", [
    "FIX-A", "FIX-B", "grid(8,2)", "random_cloud(20,2,1)",
    "random_cloud(64,2,3)", "two_cluster(12,7)", "cycle(64, scale=1)",
    "power_line(17,2)", "tree(4)"])
def test_ball_ends_walks_equal_the_per_radius_scans(desc):
    """N_geo and the large-ball sums sup read every distinct ball off
    ``ball_ends``: the same balls, at the same first radii, as the scan of
    each centre's canonical radii."""
    sp = resolve_space(desc)
    c = compute_constants(sp)
    assert c.n_geo_lower_bound == _greedy_doubling_per_radius(sp)
    h = build_nets(sp, c, 0.25)
    radii = canonical_radii(sp)
    want = max(an.verify_sum_large_balls(sp, h, x, float(r), 1.0, 1.0, 1.0)
               for x in range(sp.n) for r in radii[distinct_balls(sp, x, radii)])
    assert an.sum_large_balls_sup(sp, h, 1.0, 1.0, 1.0) == want


def test_sum_large_balls_bounded_despite_gap(plateau_bundle):
    b = plateau_bundle
    sup = an.sum_large_balls_sup(b.space, b.hierarchy, 1.0, 1.0, 1.0)
    assert math.isfinite(sup)
    assert sup > 0


# ---------------------------------------------------------------------------
# Kernel sums
# ---------------------------------------------------------------------------


def test_kernel_sums_tiny_space():
    sp = FiniteSpace(dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
                     weights=np.ones(2))
    bundle = build_bundle(sp, 0.25)
    rep = an.verify_kernel_sums(sp, bundle.constants, bundle.basis, bundle.eta)
    assert math.isfinite(rep.c_product)


def test_kernel_sums_recorded(bundle_b):
    rep = an.verify_kernel_sums(bundle_b.space, bundle_b.constants,
                                bundle_b.basis, bundle_b.eta)
    assert rep.c_product > 0
    assert rep.c_difference > 0
    assert rep.n_triples > 0


def test_modulated_kernels_obey_product_bound(bundle_b):
    rep = an.verify_kernel_sums(bundle_b.space, bundle_b.constants,
                                bundle_b.basis, bundle_b.eta)
    vol = an.volume_matrix(bundle_b.space)
    mask = ~np.eye(16, dtype=bool)
    rng = np.random.default_rng(17)
    for _ in range(20):
        signs = rng.choice([-1.0, 1.0], size=15)
        K = an.modulated_kernel(bundle_b.basis, signs)
        assert float((np.abs(K) * vol)[mask].max()) <= rep.c_product + 1e-12


@pytest.mark.parametrize("desc", ["FIX-B", "cycle(20, weights=uniform)",
                                  "random_cloud(20, 2, 1)", "tree(4)"])
def test_volume_matrix_reads_volume(desc):
    sp = resolve_space(desc)
    vol = an.volume_matrix(sp)
    assert (np.diag(vol) == 0.0).all()
    for x in range(sp.n):
        for y in range(sp.n):
            if y != x:
                assert vol[x, y] == sp.volume(x, float(sp.dist[x, y]))


def _almost_diagonal_loop(space, basis, eps):
    """The almost-diagonal bound with one ``space.volume`` call per pair."""
    levels = basis.wavelet_levels.astype(float)
    centers = basis.wavelet_centers
    delta = basis.delta
    scales = delta ** levels
    bvol = np.array([space.volume(int(y), float(s))
                     for y, s in zip(centers, scales)])
    d_centers = space.dist[np.ix_(centers, centers)]
    kmin = np.minimum(levels[:, None], levels[None, :])
    gap = delta ** (np.abs(levels[:, None] - levels[None, :]) * eps)
    sep = (1.0 + delta ** (-kmin) * d_centers) ** -eps
    vrel = np.array([[space.volume(int(centers[i]), float(d_centers[i, j]))
                      if d_centers[i, j] > 0 else 0.0
                      for j in range(centers.size)]
                     for i in range(centers.size)])
    denom = bvol[:, None] + bvol[None, :] + vrel
    return gap * sep * np.sqrt(np.outer(bvol, bvol)) / denom


@pytest.mark.parametrize("desc", ["FIX-B", "cycle(20, weights=uniform)"])
def test_almost_diagonal_bound_equals_pair_loop(desc):
    bundle = build_bundle(resolve_space(desc), 0.25)
    for eps in (0.02, 0.5):
        fast = almost_diagonal_bound(bundle.space, bundle.basis, eps)
        slow = _almost_diagonal_loop(bundle.space, bundle.basis, eps)
        assert np.array_equal(fast, slow)


# ---------------------------------------------------------------------------
# BMO
# ---------------------------------------------------------------------------


def test_bmo_constant_is_zero(fix_b):
    assert an.bmo_norm(fix_b, np.full(16, 2.3)) == 0.0


def test_bmo_homogeneity(fix_b):
    rng = np.random.default_rng(4)
    b = rng.normal(size=16)
    assert an.bmo_norm(fix_b, 3.5 * b) == pytest.approx(3.5 * an.bmo_norm(fix_b, b))


def test_bmo_half_indicator_oracle(fix_b):
    """Exhaustive oracle over a dense radius sweep for the arc indicator."""
    b = np.zeros(16)
    b[:8] = 1.0
    grid = np.arange(1, 4096) / 4096.0
    best = 0.0
    for x in range(16):
        row = fix_b.dist[x]
        for r in grid:
            mask = row < r
            w = fix_b.weights[mask]
            vals = b[mask]
            avg = float(np.dot(w, vals) / w.sum())
            best = max(best, float(np.dot(w, np.abs(vals - avg)) / w.sum()))
    assert an.bmo_norm(fix_b, b) == pytest.approx(best)
    assert best == 0.5


def _weighted_median(values, weights):
    """First value, in a stable sort, at which the running weight reaches half."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    return float(values[order][np.searchsorted(cum, 0.5 * cum[-1])])


def _oscillation_distance_order(sp, b, x, r, center):
    """Mean oscillation over B(x, r) in bmo_norm's documented arithmetic:
    running sums over the ball's points in distance order, shifted by b(x),
    over the table's ball mass."""
    tab = sp.balls
    size = int(tab.size(x, r))
    idx = tab.order[x, :size]
    bs, ws = b[idx], sp.weights[idx]
    mass = tab.mass[x, size]
    if center == "average":
        c = bs[0] + float(np.cumsum(ws * (bs - bs[0]))[-1]) / mass
    else:
        c = _weighted_median(bs, ws)
    return float(np.cumsum(ws * np.abs(bs - c))[-1]) / mass


def _oscillation_index_order(sp, b, x, r, center):
    """Mean oscillation over B(x, r) with dot products over the ball's points
    in index order, shifted by the first of them."""
    mask = sp.dist[x] < r
    wm, bm = sp.weights[mask], b[mask]
    tot = wm.sum()
    if center == "average":
        c = bm[0] + float(np.dot(wm, bm - bm[0]) / tot)
    else:
        c = _weighted_median(bm, wm)
    return float(np.dot(wm, np.abs(bm - c)) / tot)


@pytest.mark.parametrize("desc", ["FIX-B", "tree(4)", "random_cloud(20, 2, 1)"])
@pytest.mark.parametrize("center", ["average", "median"])
def test_bmo_norm_equals_scan_over_every_radius(desc, center):
    sp = resolve_space(desc)
    b = np.random.default_rng(21).normal(size=sp.n)
    best = max(_oscillation_distance_order(sp, b, x, r, center)
               for x in range(sp.n) for r in canonical_radii(sp))
    assert an.bmo_norm(sp, b, center) == best


@pytest.mark.parametrize("desc", ["cycle(20, weights=uniform)", "wide_line",
                                  "grid(5, 2, l2)", "random_cloud(64, 2, 1)"])
@pytest.mark.parametrize("center", ["average", "median"])
def test_bmo_norm_equals_per_ball_oracles(desc, center, request):
    """Equal to the documented arithmetic over each centre's distinct balls,
    and within 1e-12 of the index-order sums, on generic values and on
    values with many repeats (ties for the median)."""
    sp = request.getfixturevalue(desc) if desc == "wide_line" else resolve_space(desc)
    radii = canonical_radii(sp)
    balls = [(x, float(r)) for x in range(sp.n)
             for r in radii[distinct_balls(sp, x, radii)]]
    rng = np.random.default_rng(5)
    for b in (rng.normal(size=sp.n), rng.integers(0, 3, size=sp.n).astype(float)):
        got = an.bmo_norm(sp, b, center)
        assert got == max(_oscillation_distance_order(sp, b, x, r, center)
                          for x, r in balls)
        index_order = max(_oscillation_index_order(sp, b, x, r, center)
                          for x, r in balls)
        assert got == pytest.approx(index_order, rel=1e-12, abs=0)


@pytest.mark.parametrize("desc", ["FIX-B", "cycle(20, weights=uniform)", "wide_line",
                                  "grid(5, 2, l2)", "random_cloud(64, 2, 1)"])
def test_distinct_sizes_read_off_the_row(desc, request):
    """``ball_ends`` lists each centre's distinct balls, ascending, centre by
    centre: the sizes are the ball sizes at the first radius of each ball."""
    sp = request.getfixturevalue(desc) if desc == "wide_line" else resolve_space(desc)
    radii = canonical_radii(sp)
    xs, last = sp.balls.ball_ends()
    assert (np.diff(xs) >= 0).all()
    for x in range(sp.n):
        want = sp.balls.size(x, radii[distinct_balls(sp, x, radii)])
        assert np.array_equal(last[xs == x] + 1, want)


def _bmo_norm_per_centre(sp, b, center):
    """BMO norm with one vectorised pass per centre over its distinct balls,
    in the arithmetic ``bmo_norm`` documents."""
    tab = sp.balls
    n = sp.n
    best = 0.0
    for x in range(n):
        bs = b[tab.order[x]]
        ws = sp.weights[tab.order[x]]
        row = tab.dist[x]
        sizes = np.append(np.flatnonzero(np.diff(row)) + 1, row.size)
        last = (np.arange(sizes.size), sizes - 1)
        mass = tab.mass[x, sizes]
        if center == "average":
            c = bs[0] + np.cumsum(ws * (bs - bs[0]))[sizes - 1] / mass
        else:
            outside = np.arange(n) >= sizes[:, None]
            by_value = np.argsort(np.where(outside, np.inf, bs), axis=1,
                                  kind="stable")
            cum = np.cumsum(ws[by_value], axis=1)
            half = 0.5 * cum[last]
            c = bs[by_value[last[0], np.argmax(cum >= half[:, None], axis=1)]]
        dev = np.cumsum(ws * np.abs(bs - c[:, None]), axis=1)
        best = max(best, float((dev[last] / mass).max()))
    return best


# With n >= 2 every centre has at least two balls, one point and all of
# them, so there are more than n pairs and the blocks of n split centres.
BMO_ORACLE_SPACES = (["FIX-B", "grid(16, 2)", "cycle(64, scale=1)",
                      "two_cluster(12, 7)", "wide_line", "one_point"]
                     + [f"random_cloud({n}, 2, {s})" for n in (20, 64)
                        for s in range(10)])


def _bmo_space(desc, request):
    if desc == "wide_line":
        return request.getfixturevalue(desc)
    if desc == "one_point":
        return FiniteSpace(dist=np.zeros((1, 1)), weights=np.ones(1))
    return resolve_space(desc)


def _bmo_oracle_inputs(n):
    rng = np.random.default_rng(17)
    return rng.normal(size=n), rng.integers(0, 3, size=n).astype(float)


@pytest.mark.parametrize("desc", BMO_ORACLE_SPACES)
def test_bmo_norm_equals_per_centre_oracle(desc, request):
    sp = _bmo_space(desc, request)
    for b in _bmo_oracle_inputs(sp.n):
        for center in ("average", "median"):
            assert an.bmo_norm(sp, b, center) == _bmo_norm_per_centre(sp, b, center)


def _bmo_edge_inputs(n):
    rng = np.random.default_rng(5)
    noise = rng.normal(size=n)
    nan = noise.copy()
    nan[n // 2] = np.nan
    return {
        # two-point balls of equal weights meet the bound exactly
        "two-valued": rng.integers(0, 2, size=n).astype(float),
        # the mean centre rounds at the size of b(x), far above the oscillation
        "offset": 1e8 + 1e-6 * noise,
        # S2 overflows: every bound is inf and every ball is visited
        "overflow": 1e200 * noise,
        "constant": np.full(n, 3.7),
        "nan": nan,
    }


@pytest.mark.parametrize("desc", ["FIX-B", "grid(16, 2)", "random_cloud(64, 2, 1)",
                                  "wide_line"])
@pytest.mark.parametrize("case", ["two-valued", "offset", "overflow", "constant", "nan"])
def test_bmo_norm_at_the_edges_of_the_bound(desc, case, request):
    """Bit for bit the unpruned pass.  A NaN entry gives the unpruned pass's
    own result, which passes over each block of n balls holding a NaN."""
    sp = _bmo_space(desc, request)
    b = _bmo_edge_inputs(sp.n)[case]
    for center in ("average", "median"):
        got = an.bmo_norm(sp, b, center)
        assert got == bmo_norm_blocks_oracle(sp, b, center)
        if case != "nan":
            assert got == _bmo_norm_per_centre(sp, b, center)
    if case == "constant":
        assert an.bmo_norm(sp, b) == 0.0


def test_bmo_oracle_cases_catch_a_halved_bound(monkeypatch, request):
    """With the bound at half its value the pass skips balls that win, and
    the oracle cases see it."""
    real = an._variance_bound
    monkeypatch.setattr(an, "_variance_bound", lambda *args: 0.5 * real(*args))
    failed = []
    for desc in BMO_ORACLE_SPACES:
        sp = _bmo_space(desc, request)
        for i, b in enumerate(_bmo_oracle_inputs(sp.n)):
            for center in ("average", "median"):
                if an.bmo_norm(sp, b, center) != _bmo_norm_per_centre(sp, b, center):
                    failed.append((desc, i, center))
    assert ("random_cloud(20, 2, 2)", 0, "average") in failed
    assert ("wide_line", 1, "average") in failed


@pytest.mark.parametrize("desc", ["grid(16, 2)", "cycle(64, scale=1)",
                                  "random_cloud(64, 2, 1)", "random_cloud(256, 2, 1)"])
def test_bmo_exact_pass_takes_n_balls_on_normal_draws(monkeypatch, desc):
    """The bound prunes: on normal draws only the n balls of largest bound
    take the exact pass."""
    sp = resolve_space(desc)
    taken = []
    real = an._oscillations

    def counted(bs, ws, xs, *rest):
        taken.append(xs.size)
        return real(bs, ws, xs, *rest)

    monkeypatch.setattr(an, "_oscillations", counted)
    rng = np.random.default_rng(11)
    for _ in range(3):
        an.bmo_norm(sp, rng.normal(size=sp.n))
        assert sum(taken) == sp.n
        taken.clear()


def test_bmo_average_vs_median_factor_two(fix_b):
    rng = np.random.default_rng(9)
    for _ in range(10):
        b = rng.normal(size=16)
        avg = an.bmo_norm(fix_b, b, "average")
        med = an.bmo_norm(fix_b, b, "median")
        assert med <= avg * (1 + 1e-12)
        assert avg <= 2 * med + 1e-12


# ---------------------------------------------------------------------------
# Carleson sequences
# ---------------------------------------------------------------------------


def test_carleson_zero(bundle_b):
    coeffs = np.zeros(15)
    assert an.carleson_norm(bundle_b.space, bundle_b.hierarchy, bundle_b.order,
                            bundle_b.basis, coeffs) == 0.0


def test_carleson_single_unit_coefficient(bundle_b):
    b = bundle_b
    basis = b.basis
    idx = 7  # a finest-level wavelet
    coeffs = np.zeros(15)
    coeffs[idx] = 1.0
    norm = an.carleson_norm(b.space, b.hierarchy, b.order, basis, coeffs)
    # oracle: walk the ancestors of the wavelet's center and take the
    # smallest cube mass
    from hwave.nets import ancestors
    k1 = int(basis.wavelet_levels[idx]) + 1
    pos = b.hierarchy.position(k1, int(basis.wavelet_centers[idx]))
    anc = ancestors(b.hierarchy, b.order.parents)
    best = math.inf
    for ell in range(b.hierarchy.k_coarse, k1 + 1):
        p = int(pos)
        for kk in range(k1 - 1, ell - 1, -1):
            p = int(b.order.parents.at(kk)[p])
        mass = float(b.space.weights[anc.at(ell) == p].sum())
        best = min(best, mass)
    assert norm == pytest.approx(best ** -0.5)


def test_carleson_constant_function(bundle_b):
    coeffs = an.bmo_to_coefficients(bundle_b.basis, np.full(16, 5.0))
    np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)
    assert an.carleson_norm(bundle_b.space, bundle_b.hierarchy, bundle_b.order,
                            bundle_b.basis, coeffs) <= 1e-11


def test_carleson_monotone_and_sign_blind(bundle_b):
    rng = np.random.default_rng(3)
    c = rng.normal(size=15)
    args = (bundle_b.space, bundle_b.hierarchy, bundle_b.order, bundle_b.basis)
    base = an.carleson_norm(*args, c)
    assert an.carleson_norm(*args, -c) == pytest.approx(base)
    assert an.carleson_norm(*args, 2.0 * c) == pytest.approx(2.0 * base)
    bigger = c.copy()
    bigger[4] = 10.0 * abs(bigger[4])
    assert an.carleson_norm(*args, bigger) >= base


def test_carleson_sampled_cubes_comparable(bundle_random):
    """Swapping the reference cubes for a sampled system's cubes moves the
    norm by a bounded factor only."""
    b = bundle_random
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=int(b.basis.is_wavelet.sum()))
    ref = an.carleson_norm(b.space, b.hierarchy, b.order, b.basis, coeffs)
    ratios = []
    for seed in range(5):
        system = b.machine.system(sample_omega(b.order, seed))
        sampled = an.carleson_norm(b.space, b.hierarchy, b.order, b.basis,
                                   coeffs, parent_maps=system.parents)
        ratios.append(sampled / ref)
    assert all(0.25 <= r <= 4.0 for r in ratios)


# ---------------------------------------------------------------------------
# Round trip between oscillation norms
# ---------------------------------------------------------------------------


def test_roundtrip_constant(bundle_b):
    rt = an.bmo_carleson_roundtrip(bundle_b.space, bundle_b.hierarchy,
                                   bundle_b.order, bundle_b.basis,
                                   np.full(16, 1.25))
    assert rt.bmo == 0.0
    assert rt.carleson <= 1e-11
    assert rt.residual <= 1e-12


def test_roundtrip_random(bundle_b):
    rng = np.random.default_rng(10)
    for _ in range(10):
        f = rng.normal(size=16)
        rt = an.bmo_carleson_roundtrip(bundle_b.space, bundle_b.hierarchy,
                                       bundle_b.order, bundle_b.basis, f)
        assert rt.residual <= 1e-8


def test_roundtrip_pinning_changes_by_constant(bundle_b):
    rng = np.random.default_rng(13)
    f = rng.normal(size=16)
    coeffs = an.bmo_to_coefficients(bundle_b.basis, f)
    r1 = an.bmo_from_carleson(bundle_b.space, bundle_b.basis, coeffs, 0, 1.0)
    r2 = an.bmo_from_carleson(bundle_b.space, bundle_b.basis, coeffs, 5, 0.3)
    diff = r1 - r2
    assert diff.max() - diff.min() <= 1e-10


def test_zero_coefficients_force_constant(bundle_b):
    rng = np.random.default_rng(6)
    f = rng.normal(size=16)
    coeffs = bundle_b.basis.analyze(f)
    coeffs[bundle_b.basis.is_wavelet] = 0.0
    flat = bundle_b.basis.synthesize(coeffs)
    assert flat.max() - flat.min() <= 1e-12


def test_norm_ratio_interval_stable(bundle_b, bundle_c32):
    def interval(b):
        rng = np.random.default_rng(11)
        ratios = []
        for _ in range(50):
            f = rng.normal(size=b.space.n)
            rt = an.bmo_carleson_roundtrip(b.space, b.hierarchy, b.order,
                                           b.basis, f)
            ratios.append(rt.ratio)
        return min(ratios), max(ratios)

    lo16, hi16 = interval(bundle_b)
    lo32, hi32 = interval(bundle_c32)
    assert 0 < lo16 <= hi16 < math.inf
    assert max(lo16, lo32) / min(lo16, lo32) <= 2.0
    assert max(hi16, hi32) / min(hi16, hi32) <= 2.0


# ---------------------------------------------------------------------------
# Paraproducts
# ---------------------------------------------------------------------------


def test_paraproduct_constant_symbol(bundle_b):
    P = an.paraproduct_matrix(bundle_b.space, bundle_b.hierarchy,
                              bundle_b.splines, bundle_b.basis,
                              np.full(16, 2.0))
    np.testing.assert_allclose(P, 0.0, atol=1e-12)


def test_paraproduct_unit_image(bundle_b):
    rng = np.random.default_rng(5)
    beta = rng.normal(size=16)
    P = an.paraproduct_matrix(bundle_b.space, bundle_b.hierarchy,
                              bundle_b.splines, bundle_b.basis, beta)
    expected = beta - bundle_b.space.mean(beta)
    np.testing.assert_allclose(P @ np.ones(16), expected, atol=1e-8)
    # transpose kills constants: columns have zero mean against the measure
    np.testing.assert_allclose(bundle_b.space.weights @ P, 0.0, atol=1e-10)


def test_paraproduct_norm_tracks_carleson(bundle_b):
    rng = np.random.default_rng(19)
    ratios = []
    for _ in range(20):
        beta = rng.normal(size=16)
        P = an.paraproduct_matrix(bundle_b.space, bundle_b.hierarchy,
                                  bundle_b.splines, bundle_b.basis, beta)
        coeffs = an.bmo_to_coefficients(bundle_b.basis, beta)
        car = an.carleson_norm(bundle_b.space, bundle_b.hierarchy,
                               bundle_b.order, bundle_b.basis, coeffs)
        sq = np.sqrt(bundle_b.space.weights)
        norm = an.operator_norm(sq[:, None] * P / sq[None, :])
        ratios.append(norm / car)
    assert all(0.1 <= r <= 10.0 for r in ratios)


# ---------------------------------------------------------------------------
# Operator diagnostics
# ---------------------------------------------------------------------------


def test_identity_operator_coefficients(bundle_b):
    C = an.operator_wavelet_matrix(bundle_b.space, bundle_b.basis, np.eye(16))
    np.testing.assert_allclose(C, np.eye(15), atol=1e-10)
    s1, s2 = an.schur_statistic(bundle_b.space, bundle_b.basis, C)
    assert max(s1, s2) == pytest.approx(1.0)


def test_constant_kernel_annihilated(bundle_b):
    C = an.operator_wavelet_matrix(bundle_b.space, bundle_b.basis,
                                   np.ones((16, 16)), kind="kernel")
    np.testing.assert_allclose(C, 0.0, atol=1e-12)


def test_hilbert_kernel_schur_dominates_norm(bundle_c64):
    K = an.discrete_hilbert_kernel(64)
    assert np.allclose(K, -K.T)
    C = an.operator_wavelet_matrix(bundle_c64.space, bundle_c64.basis, K,
                                   kind="kernel")
    s1, s2 = an.schur_statistic(bundle_c64.space, bundle_c64.basis, C)
    assert an.operator_norm(C) <= max(s1, s2) + 1e-8
    rep = almost_diagonal_check(bundle_c64.space, bundle_c64.basis, C,
                                   eps=0.02)
    assert math.isfinite(rep.C0)


def test_schur_dominates_norm_generally(bundle_b):
    rng = np.random.default_rng(23)
    for _ in range(5):
        T = rng.normal(size=(16, 16))
        C = an.operator_wavelet_matrix(bundle_b.space, bundle_b.basis, T)
        s1, s2 = an.schur_statistic(bundle_b.space, bundle_b.basis, C)
        assert an.operator_norm(C) <= max(s1, s2) + 1e-8


# ---------------------------------------------------------------------------
# Kernel estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CZReport:
    size_constant: float
    regularity_first: float
    regularity_second: float


def cz_kernel_check(space: FiniteSpace, constants: SpaceConstants,
                    K: np.ndarray, s: float) -> CZReport:
    """Empirical size and Hoelder-regularity constants of an off-diagonal kernel."""
    K = np.asarray(K, dtype=float)
    vol = an.volume_matrix(space)
    n = space.n
    mask = ~np.eye(n, dtype=bool)
    size_c = float((np.abs(K) * vol)[mask].max()) if n > 1 else 0.0
    a0 = constants.A0
    reg1 = 0.0
    reg2 = 0.0
    d = space.dist
    for x in range(n):
        for xp in range(n):
            dxx = d[x, xp]
            if dxx <= 0:
                continue
            ys = np.nonzero((d[x] >= 2.0 * a0 * dxx) & (np.arange(n) != x)
                            & (np.arange(n) != xp))[0]
            if ys.size == 0:
                continue
            ratio = (d[x, ys] / dxx) ** s * vol[x, ys]
            reg1 = max(reg1, float((np.abs(K[x, ys] - K[xp, ys]) * ratio).max()))
            reg2 = max(reg2, float((np.abs(K[ys, x] - K[ys, xp]) * ratio).max()))
    return CZReport(size_constant=size_c, regularity_first=reg1,
                    regularity_second=reg2)


def test_cz_check_zero_kernel(fix_b, constants_b):
    rep = cz_kernel_check(fix_b, constants_b, np.zeros((16, 16)), s=0.5)
    assert rep == CZReport(0.0, 0.0, 0.0)


def test_cz_check_wavelet_kernel(bundle_b):
    K = an.modulated_kernel(bundle_b.basis, np.ones(15))
    rep = cz_kernel_check(bundle_b.space, bundle_b.constants, K,
                             s=bundle_b.eta)
    assert rep.size_constant > 0
    assert math.isfinite(rep.regularity_first)
    assert math.isfinite(rep.regularity_second)


def test_size_redundancy_stable(bundle_b, bundle_c32):
    c16 = size_redundancy_check(bundle_b.space, bundle_b.basis, eps=0.02)
    c32 = size_redundancy_check(bundle_c32.space, bundle_c32.basis, eps=0.02)
    assert max(c16, c32) / min(c16, c32) <= 2.0
