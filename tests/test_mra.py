import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwave import mra, pipeline
from hwave.mra import (NotSPDError, build_gram_system, component_positions,
                       decay_exponent_s, decay_fit, fit_decay_exponent,
                       inverse_and_sqrt, neumann_inverse_and_sqrt)
from hwave.space import (FIXTURES, FiniteSpace, compute_constants,
                         generate_space, resolve_space)
from hwave.pipeline import _suite_mra, build_bundle

from helpers import (chain_constants, neumann_dense_oracle, replace_level,
                     rescale, riesz_bounds, separated_sum_check,
                     suite_mra_oracle)

SETTINGS = dict(deadline=None, max_examples=20)


# ---------------------------------------------------------------------------
# Gram matrices and Riesz bounds
# ---------------------------------------------------------------------------


def test_gram_fix_a_level0_identity(bundle_a):
    M, vol = bundle_a.gramsys.at(0).M, bundle_a.gramsys.at(0).volumes
    np.testing.assert_array_equal(M, np.eye(4))
    np.testing.assert_array_equal(vol, np.ones(4))


def test_gram_fix_a_coarse_level(bundle_a):
    M, vol = bundle_a.gramsys.at(-1).M, bundle_a.gramsys.at(-1).volumes
    assert vol.tolist() == [4.0]  # the whole space sits inside B(0, 4)
    assert M.tolist() == [[1.0]]


def test_gram_diagonal_positive(bundle_b):
    for k in range(0, 3):
        M = bundle_b.gramsys.at(k).M
        assert np.all(np.diag(M) > 0)


def test_riesz_bounds_identity(bundle_a):
    assert riesz_bounds(np.eye(4)) == (1.0, 1.0)


def _ulps(a: float, b: float) -> int:
    return int(np.float64(a).view(np.int64) - np.float64(b).view(np.int64))


# GramLevel.riesz comes from the block eigh's; the oracle is eigvalsh of the
# whole matrix.  The two LAPACK drivers differ on one level: the upper bound
# of cycle(64)'s 12x12 level -1 lies 2 ulp above the oracle's.
RIESZ_ULPS = {("cycle(64, scale=1)", -1): (0, 2)}


@pytest.mark.parametrize("descriptor,delta", [
    ("FIX-B", 0.25), ("grid(8,2)", 0.25), ("cycle(64, scale=1)", 0.2),
    ("random_cloud(64,2,1)", 0.1)])
def test_riesz_bounds_equal_the_eigvalsh_oracle(descriptor, delta):
    b = build_bundle(resolve_space(descriptor), delta)
    for k in range(b.hierarchy.k_coarse, b.hierarchy.k_fine + 1):
        lv = b.gramsys.at(k)
        want = riesz_bounds(lv.M)
        ulps = tuple(_ulps(g, w) for g, w in zip(lv.riesz, want))
        assert ulps == RIESZ_ULPS.get((descriptor, k), (0, 0)), (k, lv.riesz, want)


def test_riesz_random_vector_sandwich(bundle_b):
    lv = bundle_b.gramsys.at(1)
    lo, hi = lv.riesz
    assert 0 < lo <= hi < math.inf
    rng = np.random.default_rng(0)
    for _ in range(100):
        lam = rng.normal(size=4)
        f = lam @ bundle_b.splines.at(1)
        lhs = bundle_b.space.inner(f, f)
        mass = float((lam**2 * lv.volumes).sum())
        assert lo * mass <= lhs * (1 + 1e-10) + 1e-30
        assert lhs <= hi * mass * (1 + 1e-10) + 1e-30


def test_riesz_invariant_under_weight_scaling(fix_b, bundle_b):
    scaled = FiniteSpace(dist=fix_b.dist.copy(), weights=fix_b.weights * 7.5)
    b2 = build_bundle(scaled, 0.25)
    for k in range(0, 3):
        assert b2.gramsys.at(k).riesz == pytest.approx(
            bundle_b.gramsys.at(k).riesz)


# ---------------------------------------------------------------------------
# Inverse and inverse square root
# ---------------------------------------------------------------------------


def test_inverse_of_identity():
    inv, isqrt = inverse_and_sqrt(np.eye(5))
    np.testing.assert_array_equal(inv, np.eye(5))
    np.testing.assert_array_equal(isqrt, np.eye(5))


def _tridiagonal(n, lam):
    M = np.eye(n)
    idx = np.arange(n - 1)
    M[idx, idx + 1] = -lam
    M[idx + 1, idx] = -lam
    return M


def test_band_matrix_residuals():
    M = _tridiagonal(64, 0.25)
    inv, isqrt = inverse_and_sqrt(M)
    np.testing.assert_allclose(inv @ M, np.eye(64), atol=1e-10)
    np.testing.assert_allclose(isqrt @ isqrt @ M, np.eye(64), atol=1e-10)


def test_neumann_route_agrees():
    M = _tridiagonal(64, 0.25)
    inv, isqrt = inverse_and_sqrt(M)
    ninv, nsqrt, r, terms = neumann_inverse_and_sqrt(M)
    assert r < 1
    np.testing.assert_allclose(ninv, inv, atol=1e-10)
    np.testing.assert_allclose(nsqrt, isqrt, atol=1e-10)


def test_neumann_rejects_indefinite():
    with pytest.raises(NotSPDError):
        neumann_inverse_and_sqrt(np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# The mra suite, one pass per Gram component
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("descriptor,delta", [
    (FIXTURES["FIX-B"], 0.25),
    ("grid(16,2)", 0.25),
    ("cycle(64, scale=1)", 0.2),
    ("random_cloud(64,2,3)", 0.1),
    ("power_line(33,2)", 0.05),
])
def test_suite_mra_equals_the_dense_oracle(descriptor, delta):
    b = build_bundle(generate_space(descriptor), delta)
    got = _suite_mra(b, np.random.default_rng(7))
    assert got == suite_mra_oracle(b, np.random.default_rng(7))
    assert all(c.passed for c in got)


def _interleaved_gram(rng, sizes):
    """A block-diagonal SPD matrix with components of the given sizes, its
    indices shuffled so that the components interleave; and its components'
    indices, each ascending, ordered by size and then by least index."""
    n = sum(sizes)
    label = np.repeat(np.arange(len(sizes)), sizes)
    M = np.zeros((n, n))
    for j, size in enumerate(sizes):
        A = rng.normal(size=(size, size)) * 0.15
        M[np.ix_(label == j, label == j)] = np.eye(size) + 0.5 * (A + A.T)
    perm = rng.permutation(n)
    M, label = M[np.ix_(perm, perm)], label[perm]
    members = sorted((np.flatnonzero(label == j) for j in range(len(sizes))),
                     key=lambda idx: (idx.size, idx[0]))
    return M, members


def test_component_positions_of_interleaved_components():
    M, members = _interleaved_gram(np.random.default_rng(11), [1, 2, 3, 2, 3, 1])
    positions = component_positions(M)
    assert [p.shape for p in positions] == [(2, 1, 1), (2, 2, 2), (2, 3, 3)]
    n = M.shape[0]
    got = [idx for p in positions for idx in p[:, 0, :] % n]
    assert [idx.tolist() for idx in got] == [idx.tolist() for idx in members]
    assert max(np.diff(idx).max() for idx in members if idx.size > 1) > 1


def test_component_positions_of_a_diagonal_matrix():
    # a zero on the diagonal is still a component of its own
    assert [p.tolist() for p in component_positions(np.diag([1.0, 0.0, 2.0]))] \
        == [[[[0]], [[4]], [[8]]]]
    M = np.diag([1.0, 0.0, 2.0])
    M[0, 2] = 0.5
    assert [p.tolist() for p in component_positions(M)] == [
        [[[4]]], [[[0, 2], [6, 8]]]]


def test_series_per_component_equals_the_dense_series():
    M, _ = _interleaved_gram(np.random.default_rng(11), [1, 2, 3, 2, 3, 1])
    ninv, nsqrt, r, terms = neumann_inverse_and_sqrt(M)
    dinv, dsqrt, dr, dterms = neumann_dense_oracle(M)
    # eigvalsh of the whole matrix and of its blocks may round r apart by a
    # few ulps (up to 14 over 200 seeds); the term count is the same
    assert terms == dterms > 10
    assert r == pytest.approx(dr, rel=1e-14, abs=0)
    np.testing.assert_allclose(ninv, dinv, rtol=0, atol=1e-15)
    np.testing.assert_allclose(nsqrt, dsqrt, rtol=0, atol=1e-15)
    assert np.all(ninv[M == 0.0] == 0.0) and np.all(nsqrt[M == 0.0] == 0.0)
    inv, isqrt = inverse_and_sqrt(M)
    np.testing.assert_allclose(ninv, inv, rtol=0, atol=1e-12)
    np.testing.assert_allclose(nsqrt, isqrt, rtol=0, atol=1e-12)


def test_series_of_one_component_is_the_dense_series():
    M = _tridiagonal(64, 0.25)
    got, want = neumann_inverse_and_sqrt(M), neumann_dense_oracle(M)
    assert got[2:] == want[2:]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _suite_with(b, k, **entries):
    """The mra suite's checks, by name, on ``b`` with level k's GramLevel
    fields replaced by ``entries``."""
    lv = dataclasses.replace(b.gramsys.at(k), **entries)
    broken = dataclasses.replace(b, gramsys=replace_level(b.gramsys, k, lv))
    return {c.name: c for c in _suite_mra(broken, np.random.default_rng(7))}


def _only_failing(checks, k, names):
    failed = {name for name, c in checks.items() if not c.passed}
    return failed == {f"{name} level {k}" for name in names}


@pytest.mark.parametrize("descriptor,delta,k,size,component", [
    ("grid(16,2)", 0.25, -1, 0, 5),       # one of 16 components of size 1
    ("cycle(64, scale=1)", 0.2, -1, 0, 0),  # the one component of size 12
])
def test_suite_mra_fails_on_one_perturbed_component(descriptor, delta, k,
                                                    size, component):
    b = build_bundle(generate_space(descriptor), delta)
    lv = b.gramsys.at(k)
    Minv = lv.Minv.copy()
    Minv.ravel()[component_positions(lv.M)[size][component]] += 1e-8
    assert _only_failing(_suite_with(b, k, Minv=Minv), k,
                         ["gram-inverse", "series-vs-eigen"])


@pytest.fixture(scope="module")
def grid_bundle():
    return build_bundle(generate_space("grid(16,2)"), 0.25)


@pytest.mark.parametrize("field,check", [
    ("Minv", "gram-inverse"), ("Misqrt", "gram-inverse-sqrt")])
def test_suite_mra_fails_on_an_entry_between_components(grid_bundle, field,
                                                         check):
    # level -1 of grid(16,2) has 16 components of size 1: the Gram is diagonal
    k = -1
    lv = grid_bundle.gramsys.at(k)
    assert [p.shape for p in component_positions(lv.M)] == [(16, 1, 1)]
    matrix = getattr(lv, field).copy()
    matrix[3, 9] = matrix[9, 3] = 1e-8
    assert _only_failing(_suite_with(grid_bundle, k, **{field: matrix}), k,
                         [check, "series-vs-eigen"])


def test_suite_mra_fails_on_a_nan_inside_a_component(grid_bundle):
    k = -1
    Minv = grid_bundle.gramsys.at(k).Minv.copy()
    Minv[4, 4] = np.nan
    assert _only_failing(_suite_with(grid_bundle, k, Minv=Minv), k,
                         ["gram-inverse", "series-vs-eigen"])


def test_suite_mra_fails_on_a_split_component(monkeypatch):
    # cycle(64)'s level -1 Gram is one component of size 12; labelled as 12
    # components of size 1, its entries between them fail both residuals
    b = build_bundle(generate_space("cycle(64, scale=1)"), 0.2)
    k = -1
    n = b.gramsys.at(k).M.shape[0]
    assert [p.shape for p in component_positions(b.gramsys.at(k).M)] == [
        (1, n, n)]
    diagonal = np.arange(n)[:, None, None] * (n + 1)
    monkeypatch.setattr(pipeline, "component_positions",
                        lambda M: [diagonal] if M.shape[0] == n
                        else component_positions(M))
    checks = {c.name: c for c in _suite_mra(b, np.random.default_rng(7))}
    assert _only_failing(checks, k, ["gram-inverse", "gram-inverse-sqrt"])


def test_nonsymmetric_inverse_route():
    # M^-1 = M^T (M M^T)^-1 reproduces the direct inverse on a band matrix
    rng = np.random.default_rng(3)
    n = 40
    M = np.eye(n)
    idx = np.arange(n - 1)
    M[idx, idx + 1] = rng.uniform(-0.4, 0.4, size=n - 1)
    M[idx + 1, idx] = rng.uniform(-0.4, 0.4, size=n - 1)
    gram_inv, _ = inverse_and_sqrt(M @ M.T)
    via_gram = M.T @ gram_inv
    np.testing.assert_allclose(via_gram, np.linalg.inv(M), atol=1e-10)


@given(lam=st.floats(min_value=0.05, max_value=0.45),
       n=st.integers(min_value=2, max_value=24))
@settings(**SETTINGS)
def test_inverse_residuals_property(lam, n):
    M = _tridiagonal(n, lam)
    inv, isqrt = inverse_and_sqrt(M)
    assert np.abs(inv @ M - np.eye(n)).max() < 1e-10
    assert np.abs(isqrt @ isqrt @ M - np.eye(n)).max() < 1e-10


# ---------------------------------------------------------------------------
# Decay fits
# ---------------------------------------------------------------------------


def test_decay_exponent_rule(constants_a):
    assert decay_exponent_s(constants_a) == 1.0
    c2 = compute_constants(generate_space("power_line(17, 2)"))
    assert decay_exponent_s(c2) == pytest.approx(0.5)


def test_decay_fit_flags_diagonal(bundle_b):
    sp = bundle_b.space
    prof = decay_fit(np.diag([1.0, 2.0, 3.0, 4.0]), [0, 4, 8, 12], sp, 0.25, 1.0)
    assert prof.degenerate
    assert prof.gamma == 0.0


def test_decay_fit_needs_two_entries(bundle_b):
    with pytest.raises(ValueError, match="fewer than 2"):
        decay_fit(np.zeros((4, 4)), [0, 4, 8, 12], bundle_b.space, 0.25, 1.0)


def test_sharp_band_example_orientation():
    """Inverse of the one-sided band matrix: geometric growth along the rows.

    The direct-inversion oracle fixes the orientation lambda**(j - i) for
    j >= i, zero below the diagonal.
    """
    lam = 0.5
    n = 64
    offsets = np.arange(-32, 32)
    M = np.eye(n)
    M[np.arange(n - 1), np.arange(1, n)] = -lam
    inv = np.linalg.inv(M)
    interior = np.nonzero(np.abs(offsets) <= 16)[0]
    for i in interior:
        for j in interior:
            expected = lam ** (j - i) if j >= i else 0.0
            assert abs(inv[i, j] - expected) <= 1e-9


def test_sharp_band_example_decay_exponent():
    # against d(i, j) = |i - j|^2 the decay exponent is 1/r = 1/2
    lam = 0.5
    n = 64
    M = np.eye(n)
    M[np.arange(n - 1), np.arange(1, n)] = -lam
    inv = np.linalg.inv(M)
    interior = slice(16, 48)
    sub = inv[interior, interior]
    coords = np.arange(16, 48, dtype=float)
    dists = np.abs(coords[:, None] - coords[None, :]) ** 2
    s_hat = fit_decay_exponent(sub, dists)
    assert abs(s_hat - 0.5) <= 0.05


def test_fix_b_gram_inverse_fit_is_degenerate(bundle_b, bundle_c32):
    """The level-1 splines are indicators of disjoint cubes here, so the Gram
    inverse is diagonal and the fit degenerates identically on both sizes."""
    for b in (bundle_b, bundle_c32):
        lv = b.gramsys.at(1)
        prof = decay_fit(lv.Minv, b.hierarchy.level(1), b.space,
                         b.hierarchy.scale(1), decay_exponent_s(b.constants))
        assert prof.degenerate
        assert prof.gamma == 0.0


def test_wavelet_gram_inverse_decay_recorded(bundle_b):
    """Regression baseline for the level-1 wavelet Gram inverse decay."""
    from hwave.wavelets import pre_wavelets
    b = bundle_b
    h = b.hierarchy
    tp, ys = pre_wavelets(b.space, h, b.splines, b.gramsys, 1)
    ypos = h.position(2, ys)
    vol = b.gramsys.at(2).volumes[ypos]
    g = b.space.gram(tp, tp) / np.sqrt(np.outer(vol, vol))
    gi, _ = inverse_and_sqrt(0.5 * (g + g.T))
    prof = decay_fit(gi, ys, b.space, h.scale(1), 1.0)
    assert not prof.degenerate
    assert prof.gamma == pytest.approx(0.7976, abs=0.01)


# ---------------------------------------------------------------------------
# Biorthogonal systems
# ---------------------------------------------------------------------------


def test_biorthogonal_fix_a(bundle_a):
    gs = bundle_a.gramsys
    np.testing.assert_allclose(gs.at(0).stilde, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(gs.at(0).phi, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(gs.at(-1).stilde, np.full((1, 4), 0.25),
                               atol=1e-12)


def test_biorthogonality_and_mass(bundle_b, bundle_random):
    for b in (bundle_b, bundle_random):
        h = b.hierarchy
        for k in range(h.k_coarse, h.k_fine + 1):
            lv = b.gramsys.at(k)
            values = b.splines.at(k)
            bio = b.space.gram(values, lv.stilde)
            np.testing.assert_allclose(bio, np.eye(values.shape[0]), atol=1e-10)
            ortho = b.space.gram(lv.phi, lv.phi)
            np.testing.assert_allclose(ortho, np.eye(values.shape[0]), atol=1e-10)
            np.testing.assert_allclose(lv.stilde @ b.space.weights, 1.0,
                                       atol=1e-10)


def _first_level_of_several_components(b):
    h = b.hierarchy
    return next(k for k in range(h.k_coarse, h.k_fine + 1)
                if any(flat.shape[0] > 1
                       for flat in component_positions(b.gramsys.at(k).M)))


ROUNDING = r"(0\.00e\+00|\d\.\d\de-1\d)"  # a residual of rounding alone


@pytest.mark.parametrize("in_root,damage,reading", [
    # M^-1 off by 1e-8 relative: only stilde and its identities move
    (False, lambda B: B.__imul__(1 + 1e-8),
     rf"bio 1\.00e-08, ortho {ROUNDING}, mass 1\.00e-08"),
    # a NaN in M^-1/2 reaches phi alone, so a NaN-blind maximum would miss it
    (True, lambda B: B.__setitem__((0, 0), np.nan),
     rf"bio {ROUNDING}, ortho nan, mass {ROUNDING}"),
])
def test_one_damaged_block_fails_the_dual_checks(monkeypatch, bundle_b, in_root,
                                                 damage, reading):
    # the last block of every stack of more than one component: the checks
    # per component must see one block among many
    block_inverse = mra._block_inverse

    def damaged(w, U, root=False):
        B = block_inverse(w, U, root)
        if root == in_root and B.shape[0] > 1:
            damage(B[-1])
        return B

    monkeypatch.setattr(mra, "_block_inverse", damaged)
    b = bundle_b
    k = _first_level_of_several_components(b)
    lo, hi = b.gramsys.at(k).riesz
    with pytest.raises(NotSPDError) as err:
        build_gram_system(b.space, b.constants, b.hierarchy, b.splines)
    message = str(err.value)
    head = f"level {k} dual-system identities failed ("
    tail = (f"; Gram condition number {hi / lo:.3g}, "
            f"C_mu(2) {b.constants.cmu(2.0):.3g})")
    assert message.startswith(head) and message.endswith(tail)
    assert re.fullmatch(reading, message[len(head):-len(tail)])


@pytest.mark.parametrize("pair", [False, True])
def test_splines_of_two_components_sharing_a_point_are_refused(bundle_b, pair):
    # the least subnormal at a point of another component's support: every
    # product with it underflows to 0.0 (FIX-B's weights are 1/16), so M and
    # its components are unchanged, and only the support count can see it.
    # With ``pair``, splines 0 and 1 overlap, so that the two components
    # sharing the point lie in different size groups
    b = bundle_b
    k = _first_level_of_several_components(b)
    values = b.splines.at(k).copy()
    point = int(np.flatnonzero(values[1])[0])
    if pair:
        values[0, point] = 0.5
    assert values[2, point] == 0.0
    values[2, point] = np.nextafter(0.0, 1.0)
    groups = component_positions(b.space.gram(values, values))
    assert len(groups) == 1 + pair
    with pytest.raises(NotSPDError, match=(
            rf"^level {k}: point {point} lies in the supports of splines "
            "from two Gram components$")):
        build_gram_system(b.space, b.constants, b.hierarchy,
                          replace_level(b.splines, k, values))


def test_a_refused_orthonormalization_names_its_level_and_conditioning():
    # weights over nine decades: the pre-wavelet Gram's condition number
    # puts the orthonormalization residual just over its tolerance
    space = resolve_space("random_cloud(128,2,1)")
    weights = 10 ** np.random.default_rng(0).uniform(0, 9, space.n)
    space = FiniteSpace(dist=space.dist, weights=weights / weights.sum())
    cmu = compute_constants(space).cmu(2.0)
    with pytest.raises(NotSPDError, match=(
            r"^level -?\d+ orthonormalization residual \d\.\d\de-\d\d, "
            r"pre-wavelet Gram condition number \d\.\d\de\+\d\d, "
            rf"C_mu\(2\) {re.escape(f'{cmu:.3g}')}$")) as err:
        build_bundle(space, 0.25)
    kappa = float(str(err.value).split(", ")[1].rsplit(" ", 1)[1])
    assert kappa > 1e6


def test_scaling_projector_idempotent(bundle_b):
    sp = bundle_b.space
    for k in range(0, 3):
        phi = bundle_b.gramsys.at(k).phi
        P = phi.T @ phi
        PP = P @ (sp.weights[:, None] * P)
        np.testing.assert_allclose(PP, P, atol=1e-10)


def test_nesting_in_weighted_norm(bundle_b):
    h = bundle_b.hierarchy
    for k in range(h.k_coarse, h.k_fine):
        reproduced = bundle_b.transitions.at(k) @ bundle_b.splines.at(k + 1)
        for a in range(reproduced.shape[0]):
            diff = bundle_b.splines.at(k)[a] - reproduced[a]
            assert bundle_b.space.norm(diff) <= 1e-10


def test_coarse_space_is_constants(bundle_b, bundle_a):
    for b in (bundle_a, bundle_b):
        coarse = b.splines.at(b.hierarchy.k_coarse)
        np.testing.assert_allclose(coarse, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Chain constants and separated sums
# ---------------------------------------------------------------------------


def test_chain_constants_metric(fix_b, constants_b):
    kappas = chain_constants(fix_b, constants_b, 4)
    np.testing.assert_allclose(kappas, 1.0, atol=1e-12)


def test_chain_constants_power_line():
    sp = generate_space("power_line(9, 2)")
    c = compute_constants(sp)
    kappas = chain_constants(sp, c, 4)
    assert kappas[0] == 1.0
    assert kappas[1] == pytest.approx(2.0)  # witness 0,1,2: 4 <= 2 (1 + 1)
    assert c.A0 == pytest.approx(2.0)
    assert np.all(np.diff(kappas) >= -1e-12)


def test_chain_constants_bounds_enforced():
    sp = generate_space("power_line(17, 3)")
    c = compute_constants(sp)
    kappas = chain_constants(sp, c, 5)
    for n in range(1, 6):
        assert kappas[n - 1] <= c.A0 * n ** math.log2(c.A0) + 1e-9


def test_separated_sum_single_point(fix_a, constants_a):
    rep = separated_sum_check(fix_a, constants_a, [2], eps=1.0)
    assert rep.value <= 1.0 + 1e-12


def test_separated_sum_fix_b_net(bundle_b):
    big = rescale(bundle_b.space, 16.0)
    c = compute_constants(big)
    rep = separated_sum_check(big, c, bundle_b.hierarchy.level(2), eps=1.0)
    assert math.isfinite(rep.value)
    # closed form on the rescaled cycle: the set is all of X, so the front
    # factor is 1 and the sum telescopes over the integer arc distances
    oracle = 1.0 + 2.0 * sum(math.exp(-j) for j in range(1, 8)) + math.exp(-8)
    assert rep.value == pytest.approx(oracle)


def test_separated_sum_rejects_crowded_set(fix_b, constants_b):
    with pytest.raises(ValueError, match="1-separated"):
        separated_sum_check(fix_b, constants_b, [0, 1], eps=1.0)


def test_separated_sum_union_subadditive():
    sp = generate_space("line(20)")
    c = compute_constants(sp)
    xi1 = [0, 2, 4]
    xi2 = [12, 14, 16]
    v1 = separated_sum_check(sp, c, xi1, eps=0.7).value
    v2 = separated_sum_check(sp, c, xi2, eps=0.7).value
    both = separated_sum_check(sp, c, xi1 + xi2, eps=0.7).value
    assert both <= v1 + v2 + 1e-12
