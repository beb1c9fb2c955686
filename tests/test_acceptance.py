"""Acceptance gate: every headline guarantee at its stated tolerance.

One test per criterion; each prints a single summary line when it passes so
the suite doubles as a human-readable report (run with -s or check captured
output).
"""
import numpy as np

import hwave.analysis as an
from hwave.mra import fit_decay_exponent, neumann_inverse_and_sqrt
from hwave.randomized import (boundary_layer_probability, sample_omega,
                              verify_center_sandwich, verify_system)
from hwave.space import canonical_radii, compute_constants, generate_space
from hwave.splines import compute_splines_mc

from helpers import size_redundancy_check


def _report(number: int, message: str) -> None:
    print(f"[PASS] criterion {number}: {message}")


def test_criterion_01_exact_spline_identities(bundle_a, bundle_b):
    """Partition of unity, interpolation, refinement, support sandwich."""
    for b in (bundle_a, bundle_b):
        h, st = b.hierarchy, b.splines
        a0 = b.constants.A0
        for k in range(h.k_coarse, h.k_fine + 1):
            values = st.at(k)
            lev = h.level(k)
            dk = h.scale(k)
            assert np.abs(values.sum(axis=0) - 1.0).max() <= 1e-12
            assert np.array_equal(values[:, lev], np.eye(lev.size))
            if k < h.k_fine:
                refined = b.transitions.at(k) @ st.at(k + 1)
                assert np.abs(values - refined).max() <= 1e-12
            for alpha in range(lev.size):
                inner = b.space.dist[lev[alpha]] < dk * a0**-3 / 8.0
                outer = b.space.dist[lev[alpha]] < 8.0 * a0**5 * dk
                assert np.all(values[alpha, inner] == 1.0)
                assert np.all(values[alpha, ~outer] == 0.0)
    _report(1, "exact identities on FIX-A and FIX-B at delta=1/4")


def test_criterion_02_monte_carlo_vs_exact(bundle_b):
    """100k draws reproduce the dynamic program entrywise to 0.01."""
    nsamples = 100_000
    mc, _ = compute_splines_mc(bundle_b.machine, nsamples, seed=2024)
    h = bundle_b.hierarchy
    dev = max(float(np.abs(mc.at(k) - bundle_b.splines.at(k)).max())
              for k in range(h.k_coarse, h.k_fine + 1))
    assert dev <= 0.01
    _report(2, f"MC/DP max entry deviation {dev:.2e} <= 0.01 over {nsamples} draws")


def test_criterion_03_cube_geometry_100_seeds(bundle_b):
    """Partition, child tiling and both ball sandwiches, every seed."""
    sp, c = bundle_b.space, bundle_b.constants
    h, order = bundle_b.hierarchy, bundle_b.order
    for seed in range(100):
        system = bundle_b.machine.system(sample_omega(order, seed))
        failed = [r.line() for r in verify_system(sp, c, h, order, system)
                  + verify_center_sandwich(sp, c, h, system) if not r.passed]
        assert not failed, failed
    _report(3, "cube geometry verified on 100 seeds with zero violations")


def test_criterion_04_small_boundary_layer(bundle_b):
    """Estimates sit under (7 A0^6 eps)^eta and decrease with eps."""
    nsamples = 100_000
    eps_values = (0.5, 0.25, 0.125, 0.0625)
    for x in (0, 3, 7):
        previous = None
        for eps in eps_values:
            est = boundary_layer_probability(bundle_b.machine, x, 1, eps,
                                             nsamples, seed=31 + x)
            assert est.estimate <= est.theory_bound + 4 * est.stderr
            if previous is not None:
                assert est.estimate <= previous.estimate \
                    + 4 * (est.stderr + previous.stderr)
            previous = est
    _report(4, "boundary-layer estimates bounded and monotone for x in {0,3,7}")


def test_criterion_05_basis_quality(bundle_b, bundle_c64):
    """Orthonormal basis with exact cardinality on 16 and 64 points."""
    rng = np.random.default_rng(404)
    for b in (bundle_b, bundle_c64):
        n = b.space.n
        basis = b.basis
        assert basis.n_members == n
        gram = b.space.gram(basis.values, basis.values)
        assert np.abs(gram - np.eye(n)).max() <= 1e-8
        means = basis.wavelet_values @ b.space.weights
        assert np.abs(means).max() <= 1e-10
        for _ in range(100):
            f = rng.normal(size=n)
            c = basis.analyze(f)
            rhs = b.space.inner(f, f)
            assert abs(float((c**2).sum()) - rhs) <= 1e-8 * rhs
    _report(5, "orthonormal bases on FIX-B and cycle(64): Gram, means, Parseval")


def test_criterion_06_band_matrix_decay_oracle():
    """Inverse of the sharp band example matches the geometric form and the
    fitted decay exponent against the squared distance is 1/2."""
    lam = 0.5
    n = 64
    M = np.eye(n)
    M[np.arange(n - 1), np.arange(1, n)] = -lam
    inv = np.linalg.inv(M)
    interior = np.arange(16, 48)
    worst = 0.0
    for i in interior:
        for j in interior:
            expected = lam ** (j - i) if j >= i else 0.0
            worst = max(worst, abs(inv[i, j] - expected))
    assert worst <= 1e-9
    coords = interior.astype(float)
    dists = np.abs(coords[:, None] - coords[None, :]) ** 2
    s_hat = fit_decay_exponent(inv[np.ix_(interior, interior)], dists)
    assert abs(s_hat - 0.5) <= 0.05
    _report(6, f"geometric inverse to {worst:.1e}; fitted exponent {s_hat:.4f}")


def test_criterion_07_matrix_algebra_residuals(bundle_a, bundle_b, bundle_c64):
    """Inverse and inverse-square-root residuals on every constructed Gram."""
    worst = 0.0
    worst_series = 0.0
    for b in (bundle_a, bundle_b, bundle_c64):
        h = b.hierarchy
        for k in range(h.k_coarse, h.k_fine + 1):
            lv = b.gramsys.at(k)
            n = lv.M.shape[0]
            worst = max(worst,
                        float(np.abs(lv.Minv @ lv.M - np.eye(n)).max()),
                        float(np.abs(lv.Misqrt @ lv.Misqrt @ lv.M - np.eye(n)).max()))
            ninv, nsqrt, r, _ = neumann_inverse_and_sqrt(lv.M)
            assert r < 1
            worst_series = max(worst_series,
                               float(np.abs(ninv - lv.Minv).max()),
                               float(np.abs(nsqrt - lv.Misqrt).max()))
    assert worst <= 1e-10
    assert worst_series <= 1e-10
    _report(7, f"residuals {worst:.1e}, series agreement {worst_series:.1e}")


def test_criterion_08_riesz_two_sided(bundle_a, bundle_b, bundle_c64):
    """Extreme Gram eigenvalues bound 100 random coefficient vectors."""
    rng = np.random.default_rng(88)
    for b in (bundle_a, bundle_b, bundle_c64):
        h = b.hierarchy
        for k in range(h.k_coarse, h.k_fine + 1):
            lv = b.gramsys.at(k)
            lo, hi = lv.riesz
            for _ in range(100):
                lam = rng.normal(size=lv.M.shape[0])
                f = lam @ b.splines.at(k)
                lhs = b.space.inner(f, f)
                mass = float((lam**2 * lv.volumes).sum())
                assert lo * mass <= lhs + 1e-10 * max(lhs, 1.0)
                assert lhs <= hi * mass + 1e-10 * max(lhs, 1.0)
    _report(8, "Riesz sandwich on all levels of FIX-A, FIX-B and cycle(64)")


def test_criterion_09_technical_sums_stable(bundle_b, bundle_c32):
    """Sum estimates drift at most 2x between 16 and 32 points; the
    volume/annulus dichotomy never fails on full scans."""
    s16 = an.sum_large_balls_sup(bundle_b.space, bundle_b.hierarchy, 1, 1, 1)
    s32 = an.sum_large_balls_sup(bundle_c32.space, bundle_c32.hierarchy, 1, 1, 1)
    assert max(s16, s32) / min(s16, s32) <= 2.0
    k16 = an.verify_kernel_sums(bundle_b.space, bundle_b.constants,
                                bundle_b.basis, bundle_b.eta)
    k32 = an.verify_kernel_sums(bundle_c32.space, bundle_c32.constants,
                                bundle_c32.basis, bundle_c32.eta)
    assert max(k16.c_product, k32.c_product) \
        / min(k16.c_product, k32.c_product) <= 2.0
    assert max(k16.c_difference, k32.c_difference) \
        / min(k16.c_difference, k32.c_difference) <= 2.0
    scans = [(bundle_b.space, bundle_b.constants)]
    tc = generate_space("two_cluster(4, 100)")
    scans.append((tc, compute_constants(tc)))
    for sp, c in scans:
        radii = canonical_radii(sp)
        for x in range(sp.n):
            for i, r in enumerate(radii):
                for R in radii[i + 1:]:
                    an.empty_annulus_dichotomy(sp, c, x, float(r), float(R))
    _report(9, f"sum sups ({s16:.3g} vs {s32:.3g}), kernel sums "
               f"({k16.c_product:.3g} vs {k32.c_product:.3g}), dichotomy clean")


def test_criterion_10_bmo_carleson_isomorphism(bundle_b, bundle_c32):
    """Round trip modulo constants, stable norm-ratio interval, exact
    constancy from vanishing coefficients."""
    rng = np.random.default_rng(505)
    intervals = []
    for b in (bundle_b, bundle_c32):
        ratios = []
        for _ in range(50):
            f = rng.normal(size=b.space.n)
            rt = an.bmo_carleson_roundtrip(b.space, b.hierarchy, b.order,
                                           b.basis, f)
            assert rt.residual <= 1e-8
            ratios.append(rt.ratio)
        intervals.append((min(ratios), max(ratios)))
    (lo16, hi16), (lo32, hi32) = intervals
    assert max(lo16, lo32) / min(lo16, lo32) <= 2.0
    assert max(hi16, hi32) / min(hi16, hi32) <= 2.0
    f = rng.normal(size=16)
    coeffs = bundle_b.basis.analyze(f)
    coeffs[bundle_b.basis.is_wavelet] = 0.0
    flat = bundle_b.basis.synthesize(coeffs)
    assert flat.max() - flat.min() <= 1e-12
    _report(10, f"round trips clean; ratio intervals [{lo16:.3g},{hi16:.3g}] "
                f"vs [{lo32:.3g},{hi32:.3g}]")


def test_criterion_11_operator_diagnostics(bundle_b, bundle_c64):
    """Identity, constant kernel, Schur domination and the paraproduct
    design identity."""
    n_w = int(bundle_b.basis.is_wavelet.sum())
    C = an.operator_wavelet_matrix(bundle_b.space, bundle_b.basis, np.eye(16))
    assert np.abs(C - np.eye(n_w)).max() <= 1e-10
    s1, s2 = an.schur_statistic(bundle_b.space, bundle_b.basis, C)
    assert abs(max(s1, s2) - 1.0) <= 1e-10
    C0 = an.operator_wavelet_matrix(bundle_b.space, bundle_b.basis,
                                    np.ones((16, 16)), kind="kernel")
    assert np.abs(C0).max() <= 1e-12
    K = an.discrete_hilbert_kernel(64)
    Ch = an.operator_wavelet_matrix(bundle_c64.space, bundle_c64.basis, K,
                                    kind="kernel")
    s1, s2 = an.schur_statistic(bundle_c64.space, bundle_c64.basis, Ch)
    norm = an.operator_norm(Ch)
    assert norm <= max(s1, s2) + 1e-8
    rng = np.random.default_rng(9)
    beta = rng.normal(size=16)
    P = an.paraproduct_matrix(bundle_b.space, bundle_b.hierarchy,
                              bundle_b.splines, bundle_b.basis, beta)
    err = float(np.abs(P @ np.ones(16) - (beta - bundle_b.space.mean(beta))).max())
    assert err <= 1e-8
    _report(11, f"identity/constant/Schur (norm {norm:.3g} <= {max(s1, s2):.3g}) "
                f"and paraproduct identity ({err:.1e})")


def test_criterion_12_size_redundancy(bundle_b, bundle_c32):
    """Size constants of bound-saturating synthesized kernels stay within 2x."""
    c16 = size_redundancy_check(bundle_b.space, bundle_b.basis, eps=0.02)
    c32 = size_redundancy_check(bundle_c32.space, bundle_c32.basis, eps=0.02)
    ratio = max(c16, c32) / min(c16, c32)
    assert ratio <= 2.0
    _report(12, f"synthesized-kernel size constants {c16:.3g} vs {c32:.3g} "
                f"(ratio {ratio:.3g})")
