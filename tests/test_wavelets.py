import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hwave.mra import NotSPDError
from hwave.pipeline import build_bundle
from hwave.randomized import sample_omega
from hwave.space import (FiniteSpace, compute_constants, generate_space,
                         resolve_space)
from hwave.wavelets import (WaveletBasis, assemble_basis,
                            decay_and_regularity_report,
                            kernel_of_projection, orthonormalize_level,
                            pre_wavelets, save_basis, wavelet_decay_a)

from helpers import replace_level


def test_pre_wavelets_fix_a_closed_form(bundle_a):
    tilde, ys = pre_wavelets(bundle_a.space, bundle_a.hierarchy,
                             bundle_a.splines, bundle_a.gramsys, -1)
    assert ys.tolist() == [1, 2, 3]
    for i, beta in enumerate(ys):
        expected = np.full(4, -0.25)
        expected[beta] += 1.0
        np.testing.assert_allclose(tilde[i], expected, atol=1e-12)


def test_pre_wavelets_orthogonal_to_constants(bundle_b):
    for k in (0, 1):
        tilde, ys = pre_wavelets(bundle_b.space, bundle_b.hierarchy,
                                 bundle_b.splines, bundle_b.gramsys, k)
        means = tilde @ bundle_b.space.weights
        np.testing.assert_allclose(means, 0.0, atol=1e-12)


def test_pre_wavelets_orthogonal_to_level_span(bundle_b):
    for k in (0, 1):
        tilde, _ = pre_wavelets(bundle_b.space, bundle_b.hierarchy,
                                bundle_b.splines, bundle_b.gramsys, k)
        inner = bundle_b.space.gram(tilde, bundle_b.splines.at(k))
        np.testing.assert_allclose(inner, 0.0, atol=1e-12)


def test_a_nan_dual_fails_the_pre_wavelet_checks(bundle_b):
    # one NaN in level 1's duals makes every pre-wavelet NaN; a NaN-blind
    # maximum let them through to the orthonormalization's eigh
    b = bundle_b
    lv = b.gramsys.at(1)
    stilde = lv.stilde.copy()
    stilde[0, 0] = np.nan
    gramsys = replace_level(b.gramsys, 1,
                            dataclasses.replace(lv, stilde=stilde))
    with pytest.raises(NotSPDError, match=(
            r"^pre-wavelets at level 1 not orthogonal to the span "
            r"\(residual nan\)$")):
        assemble_basis(b.space, b.constants, b.hierarchy, b.splines, gramsys)


@pytest.fixture(scope="module")
def plateau_bundle():
    # two far clusters: several coarse levels have no new points at all
    return build_bundle(generate_space("two_cluster(6, 64)"), 0.25)


def test_empty_levels_are_skipped(plateau_bundle):
    h = plateau_bundle.hierarchy
    empty = [k for k in range(h.k_coarse, h.k_fine)
             if h.wavelet_centers(k).size == 0]
    assert empty, "fixture should contain a level with no new points"
    tilde, ys = pre_wavelets(plateau_bundle.space, h, plateau_bundle.splines,
                             plateau_bundle.gramsys, empty[0])
    assert tilde.shape == (0, 6)
    assert plateau_bundle.basis.n_members == 6


def test_single_wavelet_level_is_normalized(plateau_bundle):
    h = plateau_bundle.hierarchy
    singles = [k for k in range(h.k_coarse, h.k_fine)
               if h.wavelet_centers(k).size == 1]
    assert singles
    k = singles[0]
    sp = plateau_bundle.space
    tilde, ys = pre_wavelets(sp, h, plateau_bundle.splines,
                             plateau_bundle.gramsys, k)
    ypos = h.position(k + 1, ys)
    vol = plateau_bundle.gramsys.at(k + 1).volumes[ypos]
    psi = orthonormalize_level(sp, tilde, vol)
    np.testing.assert_allclose(psi[0], tilde[0] / sp.norm(tilde[0]), atol=1e-12)


def test_orthonormalize_fix_a(bundle_a):
    sp, h = bundle_a.space, bundle_a.hierarchy
    tilde, ys = pre_wavelets(sp, h, bundle_a.splines, bundle_a.gramsys, -1)
    vol = bundle_a.gramsys.at(0).volumes[h.position(0, ys)]
    psi = orthonormalize_level(sp, tilde, vol)
    np.testing.assert_allclose(sp.gram(psi, psi), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(psi @ sp.weights, 0.0, atol=1e-12)
    # same span as the pre-wavelets: projectors agree
    q_tilde, _ = np.linalg.qr(tilde.T * np.sqrt(sp.weights)[:, None])
    q_psi, _ = np.linalg.qr(psi.T * np.sqrt(sp.weights)[:, None])
    np.testing.assert_allclose(q_tilde @ q_tilde.T, q_psi @ q_psi.T, atol=1e-10)


def test_wavelets_orthogonal_to_scaling_span(bundle_b):
    basis = bundle_b.basis
    for k in (0, 1):
        sel = basis.is_wavelet & (basis.levels == k)
        inner = bundle_b.space.gram(basis.values[sel], bundle_b.splines.at(k))
        np.testing.assert_allclose(inner, 0.0, atol=1e-10)


def test_member_counts(bundle_a, bundle_b, bundle_c64):
    assert bundle_a.basis.n_members == 4   # one constant plus three wavelets
    assert bundle_b.basis.n_members == 16  # 1 + 3 + 12
    by_level = {k: int((bundle_b.basis.levels[bundle_b.basis.is_wavelet] == k).sum())
                for k in (0, 1)}
    assert by_level == {0: 3, 1: 12}
    assert bundle_c64.basis.n_members == 64


def test_full_gram_identity(bundle_b, bundle_c64):
    for b in (bundle_b, bundle_c64):
        gram = b.space.gram(b.basis.values, b.basis.values)
        assert np.abs(gram - np.eye(b.space.n)).max() <= 1e-8


def test_parseval_random_functions(bundle_b):
    rng = np.random.default_rng(21)
    for _ in range(100):
        f = rng.normal(size=16)
        c = bundle_b.basis.analyze(f)
        lhs = float((c**2).sum())
        rhs = bundle_b.space.inner(f, f)
        assert abs(lhs - rhs) <= 1e-8 * rhs


def test_constant_has_no_wavelet_coefficients(bundle_b):
    c = bundle_b.basis.analyze(np.full(16, 3.7))
    np.testing.assert_allclose(c[bundle_b.basis.is_wavelet], 0.0, atol=1e-12)


def test_wavelet_maps_to_unit_coefficient(bundle_b):
    basis = bundle_b.basis
    idx = np.nonzero(basis.is_wavelet)[0][5]
    c = basis.analyze(basis.values[idx])
    expected = np.zeros(16)
    expected[idx] = 1.0
    np.testing.assert_allclose(c, expected, atol=1e-10)


def test_round_trip_random(bundle_b):
    rng = np.random.default_rng(2)
    f = rng.normal(size=16)
    back = bundle_b.basis.synthesize(bundle_b.basis.analyze(f))
    assert np.abs(back - f).max() <= 1e-8


def test_littlewood_paley_split(bundle_b):
    """f recomposes from the coarse projection plus the level pieces, and the
    squared norms add up."""
    sp, basis = bundle_b.space, bundle_b.basis
    rng = np.random.default_rng(30)
    f = rng.normal(size=16)
    coeffs = basis.analyze(f)
    coarse = basis.synthesize(np.where(basis.is_wavelet, 0.0, coeffs))
    pieces = [basis.synthesize(np.where(basis.is_wavelet
                                        & (basis.levels == k), coeffs, 0.0))
              for k in (0, 1)]
    recomposed = coarse + sum(pieces)
    assert np.abs(recomposed - f).max() <= 1e-10
    total = sp.inner(coarse, coarse) + sum(sp.inner(q, q) for q in pieces)
    assert abs(total - sp.inner(f, f)) <= 1e-8 * sp.inner(f, f)


def test_projection_kernels_fix_a(bundle_a):
    sp = bundle_a.space
    P = kernel_of_projection(sp, bundle_a.gramsys, bundle_a.basis, -1, "P")
    np.testing.assert_allclose(P, 0.25, atol=1e-12)
    Q = kernel_of_projection(sp, bundle_a.gramsys, bundle_a.basis, -1, "Q")
    np.testing.assert_allclose(Q, np.eye(4) - 0.25, atol=1e-12)


def test_projection_row_masses(bundle_b):
    sp = bundle_b.space
    for k in (0, 1, 2):
        P = kernel_of_projection(sp, bundle_b.gramsys, bundle_b.basis, k, "P")
        np.testing.assert_allclose(P @ sp.weights, 1.0, atol=1e-10)
        np.testing.assert_allclose(P, P.T, atol=0.0)
    for k in (0, 1):
        Q = kernel_of_projection(sp, bundle_b.gramsys, bundle_b.basis, k, "Q")
        np.testing.assert_allclose(Q @ sp.weights, 0.0, atol=1e-10)


def test_projection_telescoping(bundle_b):
    sp = bundle_b.space
    for k in (0, 1):
        P_k = kernel_of_projection(sp, bundle_b.gramsys, bundle_b.basis, k, "P")
        Q_k = kernel_of_projection(sp, bundle_b.gramsys, bundle_b.basis, k, "Q")
        P_next = kernel_of_projection(sp, bundle_b.gramsys, bundle_b.basis,
                                      k + 1, "P")
        np.testing.assert_allclose(P_next, P_k + Q_k, atol=1e-10)
    # the telescoped sum ends at the identity kernel on the measure
    top = kernel_of_projection(sp, bundle_b.gramsys, bundle_b.basis, 2, "P")
    np.testing.assert_allclose(top * sp.weights[None, :], np.eye(16), atol=1e-10)


def test_decay_exponent_formula(bundle_b):
    assert wavelet_decay_a(bundle_b.constants) == 1.0  # metric space
    c2 = compute_constants(generate_space("power_line(17, 2)"))
    assert wavelet_decay_a(c2) == pytest.approx(1.0 / 3.0)


def test_decay_report_uses_metric_exponent(bundle_b):
    reports = decay_and_regularity_report(bundle_b.space, bundle_b.constants,
                                          bundle_b.hierarchy, bundle_b.basis,
                                          bundle_b.eta)
    assert [r.level for r in reports] == [0, 1]
    assert all(r.a == 1.0 for r in reports)
    assert all(r.gamma > 0 for r in reports)
    assert all(math.isfinite(r.holder_sup) for r in reports)


def test_decay_profiles_stable_across_sizes(bundle_b, bundle_c32):
    r16 = {r.level: r for r in decay_and_regularity_report(
        bundle_b.space, bundle_b.constants, bundle_b.hierarchy,
        bundle_b.basis, bundle_b.eta)}
    r32 = {r.level: r for r in decay_and_regularity_report(
        bundle_c32.space, bundle_c32.constants, bundle_c32.hierarchy,
        bundle_c32.basis, bundle_c32.eta)}
    for k in (0, 1):  # structurally matching levels
        drift = abs(r16[k].gamma - r32[k].gamma) / abs(r16[k].gamma)
        assert drift < 0.20


def test_power_line_basis_builds():
    bundle = build_bundle(generate_space("power_line(33, 2)"), 1 / 16)
    assert bundle.basis.n_members == 33
    reports = decay_and_regularity_report(bundle.space, bundle.constants,
                                          bundle.hierarchy, bundle.basis,
                                          bundle.eta)
    assert all(r.a == pytest.approx(1.0 / 3.0) for r in reports)


def test_sign_multiplier_is_a_contraction(bundle_b):
    """Flipping wavelet coefficient signs is an isometry on the wavelet span,
    hence a norm-one operator."""
    import hwave.analysis as an
    sp = bundle_b.space
    W = bundle_b.basis.wavelet_values
    rng = np.random.default_rng(77)
    sq = np.sqrt(sp.weights)
    for _ in range(10):
        signs = rng.choice([-1.0, 1.0], size=W.shape[0])
        symmetrized = sq[:, None] * (W.T @ (signs[:, None] * W)) * sq[None, :]
        assert abs(an.operator_norm(symmetrized) - 1.0) <= 1e-8


def load_basis(space: FiniteSpace, path) -> WaveletBasis:
    data = json.loads(Path(path).read_text())
    members = data["members"]
    return WaveletBasis(
        space=space,
        delta=float(data["delta"]),
        values=np.asarray([m["values"] for m in members], dtype=float),
        levels=np.asarray([m["level"] for m in members], dtype=int),
        centers=np.asarray([m["center"] for m in members], dtype=int),
        is_wavelet=np.asarray([m["kind"] == "wavelet" for m in members]),
    )


def test_basis_file_roundtrip(tmp_path, bundle_b):
    path = tmp_path / "basis.json"
    save_basis(bundle_b.hierarchy, bundle_b.basis, path)
    loaded = load_basis(bundle_b.space, path)
    np.testing.assert_array_equal(loaded.values, bundle_b.basis.values)
    np.testing.assert_array_equal(loaded.levels, bundle_b.basis.levels)
    np.testing.assert_array_equal(loaded.centers, bundle_b.basis.centers)
    first = path.read_bytes()
    save_basis(bundle_b.hierarchy, loaded, path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("descriptor", ["FIX-B", "grid(8,2)", "tree(4)"])
def test_haar_wavelets_vanish_exactly_off_their_cube(descriptor):
    """At delta 1/4 every Gram splits into one block per cube, so a level-k
    wavelet is exactly 0.0 outside the level-k cube of its centre."""
    b = build_bundle(resolve_space(descriptor), 0.25)
    system = b.machine.system(sample_omega(b.order, 0))
    basis = b.basis
    for row, k, y in zip(basis.wavelet_values, basis.wavelet_levels,
                         basis.wavelet_centers):
        cube = system.cubes.at(k)
        assert np.all(row[cube != cube[y]] == 0.0), (k, y)


def _parseval_loop(b, rng):
    """One random function at a time, through ``analyze`` and ``inner``."""
    worst = 0.0
    for _ in range(100):
        f = rng.normal(size=b.space.n)
        c = b.basis.analyze(f)
        worst = max(worst, abs(float((c**2).sum()) - b.space.inner(f, f))
                    / max(b.space.inner(f, f), 1e-30))
    return worst


@pytest.mark.parametrize("descriptor,delta", [
    ("FIX-B", 0.25), ("cycle(64, scale=1)", 0.2), ("random_cloud(20,2,1)", 0.1),
    ("tree(4)", 0.25)])
def test_parseval_record_equals_the_per_function_loop(descriptor, delta):
    from hwave.pipeline import _suite_wavelets
    b = build_bundle(resolve_space(descriptor), delta)
    rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
    record = next(c for c in _suite_wavelets(b, rng) if c.name == "parseval")
    assert record.margin == 1e-8 - _parseval_loop(b, oracle_rng)
    # the same stream: later suites draw the same numbers
    assert rng.normal() == oracle_rng.normal()
