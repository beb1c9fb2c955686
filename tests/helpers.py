"""Small helpers that only the tests read."""
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hwave.analysis as an
from hwave.analysis import _wavelet_ball_volumes, volume_matrix
from hwave.mra import (SERIES_MAX_TERMS, SERIES_TOL, NotSPDError,
                       inverse_and_sqrt)
from hwave.nets import Levels, ReferenceOrder
from hwave.randomized import _level_split
from hwave.report import check_error
from hwave.space import FiniteSpace, SpaceConstants
from hwave.wavelets import WaveletBasis


def rescale(space: FiniteSpace, factor: float) -> FiniteSpace:
    """The same points and weights with every distance multiplied by
    ``factor``."""
    return FiniteSpace(dist=space.dist * factor, weights=space.weights)


def power(space: FiniteSpace, s: float) -> FiniteSpace:
    """Snowflaked space with distance dist**s, 0 < s <= 1."""
    if not 0 < s <= 1:
        raise ValueError("power must lie in (0, 1]")
    return FiniteSpace(
        dist=space.dist**s,
        weights=space.weights.copy(),
        name=f"{space.name}^{s:g}" if space.name else "",
    )


def distinct_balls(space: FiniteSpace, x: int, radii: np.ndarray) -> np.ndarray:
    """Index of the first radius of each distinct ball B(x, r), r in ``radii``.

    ``radii`` is sorted ascending.  The balls are nested, so two radii give
    the same ball exactly when the balls have the same size: an oracle for
    ``BallTable.ball_ends``.
    """
    sizes = space.balls.size(x, radii)
    return np.flatnonzero(np.diff(sizes, prepend=-1))


def children(order: ReferenceOrder, k: int) -> tuple:
    """Per level-k cell, the ascending positions of its children at level
    k + 1: the per-cell scan of the parent map."""
    parent = order.parents.at(k)
    return tuple(np.nonzero(parent == a)[0]
                 for a in range(order.label1.at(k).size))


def replace_level(levels: Levels, k: int, item) -> Levels:
    """``levels`` with the item of level k replaced by ``item``."""
    items = list(levels)
    items[k - levels.k_coarse] = item
    return Levels(levels.k_coarse, tuple(items))


def riesz_bounds(M) -> tuple[float, float]:
    """Extreme eigenvalues of the whole matrix from one ``eigvalsh``: the
    optimal two-sided Riesz constants, as an oracle for ``GramLevel.riesz``."""
    eigs = np.linalg.eigvalsh(M)
    return float(eigs[0]), float(eigs[-1])


def minplus_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """General min-plus product, out[i, j] = min over k of A[i, k] + B[k, j],
    as one (n x n x n) reduction."""
    return (A[:, :, None] + B[None, :, :]).min(axis=1)


def chain_constants(space: FiniteSpace, constants: SpaceConstants,
                    n_max: int) -> np.ndarray:
    """kappa_n: worst ratio of the direct distance to the best n-chain sum.

    Computed exactly by min-plus matrix powers; kappa_1 = 1 and the sequence
    obeys kappa_{m+n} <= A0 max(kappa_m, kappa_n) and
    kappa_n <= A0 n^(log2 A0).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    d = space.dist
    iu, ju = np.triu_indices(space.n, 1)
    kappas = []
    best_chain = d.copy()
    for n in range(1, n_max + 1):
        if n > 1:
            best_chain = minplus_product(best_chain, d)
        if iu.size:
            kappas.append(float((d[iu, ju] / best_chain[iu, ju]).max()))
        else:
            kappas.append(1.0)
    kappas = np.asarray(kappas)
    a0 = constants.A0
    tol = 1e-12
    if abs(kappas[0] - 1.0) > tol:
        raise AssertionError("kappa_1 must equal 1")
    if np.any(np.diff(kappas) < -tol):
        raise AssertionError("kappa must be nondecreasing")
    for m in range(1, n_max + 1):
        for n in range(1, n_max + 1 - m):
            if kappas[m + n - 1] > a0 * max(kappas[m - 1], kappas[n - 1]) + tol:
                raise AssertionError("submultiplicative chain bound failed")
    for n in range(1, n_max + 1):
        if kappas[n - 1] > a0 * n ** math.log2(max(a0, 1.0)) + tol:
            raise AssertionError("power-law chain bound failed")
    return kappas


@dataclass(frozen=True)
class SeparatedSumReport:
    eps: float
    value: float
    argmax: int


def separated_sum_check(space: FiniteSpace, constants: SpaceConstants,
                        xi, eps: float) -> SeparatedSumReport:
    """sup_alpha exp(eps d(alpha, Xi)/A0) * sum_beta exp(-eps d(alpha, beta)).

    Xi must be 1-separated; the finite value is the empirical constant of the
    exponential-sum estimate over separated sets.
    """
    xi = np.asarray(sorted(set(map(int, xi))), dtype=int)
    if xi.size == 0:
        raise ValueError("Xi must be nonempty")
    if xi.size > 1:
        sub = space.dist[np.ix_(xi, xi)]
        off = sub[~np.eye(xi.size, dtype=bool)]
        if off.min() < 1.0:
            raise ValueError("Xi is not 1-separated")
    dmat = space.dist[:, xi]
    sums = np.exp(-eps * dmat).sum(axis=1)
    front = np.exp(eps * dmat.min(axis=1) / constants.A0)
    values = front * sums
    arg = int(np.argmax(values))
    return SeparatedSumReport(eps=float(eps), value=float(values[arg]), argmax=arg)


def coordinate_draws(order: ReferenceOrder, seed: int, i: int, nsamples: int):
    """The 1-based coordinates (ell, m) of level k_coarse + i for a batch of
    draws, ell from 0..L and m from 1..M, each from its own stream per
    (seed, level, coordinate): the draws as they were taken before
    ``randomized._level_draws`` read m - 1 directly."""
    def stream(which):
        return np.random.default_rng(
            np.random.SeedSequence([int(seed), int(i), int(which)]))
    return (stream(0).integers(0, order.L + 1, size=nsamples),
            stream(1).integers(1, order.M + 1, size=nsamples))


def sample_omega_batch(order: ReferenceOrder, seed: int, nsamples: int):
    """Vectorized draws: arrays of shape (num_levels, nsamples).  The oracle
    of ``CubeMachine.sample_outcomes`` (through ``outcome_index``) and of
    ``sample_omega``, whose draw heads every batch."""
    if nsamples < 1:
        raise ValueError("nsamples must be >= 1")
    nlev = len(order.parents)
    ell = np.zeros((nlev, nsamples), dtype=np.int64)
    m = np.zeros((nlev, nsamples), dtype=np.int64)
    for i in range(nlev):
        ell[i], m[i] = coordinate_draws(order, seed, i, nsamples)
    return ell, m


def first_seen_classes(rows: np.ndarray) -> np.ndarray:
    """Per row, the index of its distinct value in first-seen order."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.ravel()]


def per_draw_walk(machine, seed: int, nsamples: int, k: int):
    """Yield ``(level, anc)`` from k_fine down to k, one row of ``anc`` per
    draw: the level's ancestor of every point under that draw.  The oracle
    of ``CubeMachine.draw_classes``.

    The classes are the distinct rows in first-seen order, and the draws
    are kept in class order.  Each level's split (``_level_split``) of the
    class counts is expanded into one outcome per draw, class by class and
    ascending outcomes within a class, and every draw is then walked on its
    own through the level's parent table.
    """
    h = machine.h
    n = h.level(h.k_fine).size
    n_out = machine.n_outcomes
    anc = np.tile(np.arange(n, dtype=np.int32), (nsamples, 1))
    yield h.k_fine, anc
    for kk in range(h.k_fine - 1, k - 1, -1):
        counts = np.bincount(first_seen_classes(anc))
        split = _level_split(machine.order, seed, kk - h.k_coarse, counts)
        outcomes = np.repeat(np.tile(np.arange(n_out), counts.size),
                             split.ravel())
        anc = machine.parent_tables[kk][outcomes[:, None], anc]
        anc = anc[np.argsort(first_seen_classes(anc), kind="stable")]
        yield kk, anc


def ancestors_per_draw(machine, seed: int, nsamples: int, k: int) -> np.ndarray:
    """Level-k ancestors of every point, one row per draw in class order
    (``per_draw_walk``)."""
    for _, anc in per_draw_walk(machine, seed, nsamples, k):
        pass
    return anc


def almost_diagonal_bound(space: FiniteSpace, basis: WaveletBasis,
                          eps: float) -> np.ndarray:
    """Reference bound: scale-gap times center-separation times volume factor."""
    levels = basis.wavelet_levels.astype(float)
    centers = basis.wavelet_centers
    delta = basis.delta
    bvol = _wavelet_ball_volumes(space, basis)
    d_centers = space.dist[np.ix_(centers, centers)]
    kmin = np.minimum(levels[:, None], levels[None, :])
    gap = delta ** (np.abs(levels[:, None] - levels[None, :]) * eps)
    sep = (1.0 + delta ** (-kmin) * d_centers) ** -eps
    # wavelet centres are distinct points; d = 0 would give the empty ball, 0
    vrel = volume_matrix(space)[np.ix_(centers, centers)]
    denom = bvol[:, None] + bvol[None, :] + vrel
    return gap * sep * np.sqrt(np.outer(bvol, bvol)) / denom


@dataclass(frozen=True)
class AlmostDiagonalReport:
    C0: float
    witness: tuple | None


def almost_diagonal_check(space: FiniteSpace, basis: WaveletBasis,
                          coeffs: np.ndarray, eps: float) -> AlmostDiagonalReport:
    """Smallest C0 making |coef| <= C0 * (scale-gap, separation, volume) bound."""
    bound = almost_diagonal_bound(space, basis, eps)
    ratios = np.abs(np.asarray(coeffs)) / bound
    idx = np.unravel_index(np.argmax(ratios), ratios.shape)
    return AlmostDiagonalReport(C0=float(ratios[idx]),
                                witness=(int(idx[0]), int(idx[1])))


def synthesize_kernel_from_bound(space: FiniteSpace, basis: WaveletBasis,
                                 eps: float) -> np.ndarray:
    """Kernel assembled from coefficients saturating the almost-diagonal bound."""
    coeffs = almost_diagonal_bound(space, basis, eps)
    W = basis.wavelet_values
    return W.T @ coeffs @ W


def size_redundancy_check(space: FiniteSpace, basis: WaveletBasis,
                          eps: float) -> float:
    """Size constant of the bound-saturating synthesized kernel."""
    K = synthesize_kernel_from_bound(space, basis, eps)
    vol = volume_matrix(space)
    mask = ~np.eye(space.n, dtype=bool)
    return float((np.abs(K) * vol)[mask].max())


# The artifact writers as they were before every float of a table went
# through ``report.json_rows`` or ``report.write_nonzeros``: each entry
# formatted on its own by ``repr`` or ``json.dumps``.  The writers must reproduce these bytes.

def save_space_oracle(space: FiniteSpace, path) -> None:
    Path(path).write_text(json.dumps({
        "n": space.n,
        "metric": "explicit",
        "distances": space.dist.tolist(),
        "weights": space.weights.tolist(),
        "scale": 1.0,
        "name": space.name,
    }, sort_keys=True) + "\n")


def save_basis_oracle(h, basis: WaveletBasis, path) -> None:
    Path(path).write_text(json.dumps({
        "n": basis.space.n,
        "delta": basis.delta,
        "k_coarse": h.k_coarse,
        "k_fine": h.k_fine,
        "members": [{
            "level": int(basis.levels[i]),
            "center": int(basis.centers[i]),
            "kind": "wavelet" if bool(basis.is_wavelet[i]) else "scaling",
            "values": basis.values[i].tolist(),
        } for i in range(basis.n_members)],
    }, sort_keys=True) + "\n")


def save_splines_oracle(h, table: Levels, path) -> None:
    with Path(path).open("w") as fh:
        fh.write("level\talpha_id\tpoint_id\tvalue\n")
        for k in range(h.k_coarse, h.k_fine + 1):
            for center, row in zip(h.level(k).tolist(), table.at(k)):
                for x, v in enumerate(row.tolist()):
                    fh.write(f"{k}\t{center}\t{x}\t{v!r}\n")


def save_matrix_csv_oracle(matrix: np.ndarray, path, labels=None) -> None:
    if labels is None:
        labels = np.arange(matrix.shape[0])
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value"])
        for i, j in zip(*np.nonzero(matrix)):
            writer.writerow([int(labels[i]), int(labels[j]),
                             repr(float(matrix[i, j]))])


def neumann_dense_oracle(M):
    """``mra.neumann_inverse_and_sqrt`` as it was before it ran per
    connected component: h and r from ``eigvalsh`` of all of M, and the
    series summed in n x n products."""
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= 0.0:
        raise NotSPDError("Neumann route needs a positive definite matrix")
    hconst = 0.5 * (float(eigs[-1]) + 1.0 / float(eigs[0]))
    n = M.shape[0]
    A = np.eye(n) - M / hconst
    r = float(np.abs(np.linalg.eigvalsh(A)).max())
    if r >= 1.0:
        raise NotSPDError("series does not contract")
    inv_sum, sqrt_sum, power = np.eye(n), np.eye(n), np.eye(n)
    c = 1.0
    terms = 0
    while r ** (terms + 1) / (1.0 - r) >= SERIES_TOL:
        power = power @ A
        c = c * (2 * terms + 1) / (2 * terms + 2)
        inv_sum += power
        sqrt_sum += c * power
        terms += 1
        if terms > SERIES_MAX_TERMS:
            raise NotSPDError("series did not converge within the term budget")
    return inv_sum / hconst, sqrt_sum / math.sqrt(hconst), r, terms


def duals_dense_oracle(lv, values: np.ndarray):
    """(stilde, phi) of one ``GramLevel`` as ``mra.build_gram_system`` formed
    them before it worked per Gram component: products of the whole n x n
    M^-1 and M^-1/2 with the spline table."""
    sqrt_vol = np.sqrt(lv.volumes)
    stilde = (lv.Minv / np.outer(sqrt_vol, sqrt_vol)) @ values
    phi = (lv.Misqrt / sqrt_vol[None, :]) @ values
    return stilde, phi


def orthonormalize_dense_oracle(space: FiniteSpace, tilde_psi: np.ndarray,
                                volumes: np.ndarray) -> np.ndarray:
    """``wavelets.orthonormalize_level`` as it was before it worked per
    component of the pre-wavelet Gram: the whole n x n inverse square root
    times the pre-wavelets."""
    sqrt_vol = np.sqrt(volumes)
    gram = space.gram(tilde_psi, tilde_psi) / np.outer(sqrt_vol, sqrt_vol)
    _, isqrt = inverse_and_sqrt(0.5 * (gram + gram.T))
    return (isqrt / sqrt_vol[None, :]) @ tilde_psi


def suite_mra_oracle(b, rng):
    """The mra suite as it was before its checks ran per Gram component:
    residuals from products of whole n x n matrices and the series on all
    of M.  The per-component suite must give the same records."""
    checks = []
    h = b.hierarchy
    for k in range(h.k_coarse, h.k_fine + 1):
        lv = b.gramsys.at(k)
        n = lv.M.shape[0]
        err_inv = float(np.abs(lv.Minv @ lv.M - np.eye(n)).max())
        err_sqrt = float(np.abs(lv.Misqrt @ lv.Misqrt @ lv.M - np.eye(n)).max())
        checks.append(check_error(f"gram-inverse level {k}", "residual of M^-1 M",
                                  err_inv, 1e-10))
        checks.append(check_error(f"gram-inverse-sqrt level {k}",
                                  "residual of (M^-1/2)^2 M", err_sqrt, 1e-10))
        ninv, nsqrt, r, terms = neumann_dense_oracle(lv.M)
        agree = max(float(np.abs(ninv - lv.Minv).max()),
                    float(np.abs(nsqrt - lv.Misqrt).max()))
        checks.append(check_error(
            f"series-vs-eigen level {k}",
            f"ratio {r:.3g}, {terms} terms", agree, 1e-10))
        lo, hi = lv.riesz
        worst = 0.0
        lams = rng.normal(size=(100, n))
        for lam, f in zip(lams, lams @ b.splines.at(k)):
            lhs = b.space.inner(f, f)
            mass = float((lam**2 * lv.volumes).sum())
            worst = max(worst,
                        (lo * mass - lhs) / max(lhs, 1e-30),
                        (lhs - hi * mass) / max(lhs, 1e-30))
        checks.append(check_error(f"riesz-bounds level {k}",
                                  f"[{lo:.4g}, {hi:.4g}] on 100 random vectors",
                                  worst, 1e-10))
    return checks


def cmu_per_centre_oracle(space: FiniteSpace, t: float) -> float:
    """``SpaceConstants.cmu`` as it was before it read each centre's distinct
    radii only: one pass per centre over every distance from it."""
    best = 1.0
    tab = space.balls
    for x in range(space.n):
        radii = tab.dist[x, 1:]  # tab.dist[x, 0] is x itself
        vol = tab.mass[x, tab.size(x, radii)]
        vol_t = tab.mass[x, tab.size(x, t * radii)]
        best = max(best, float((vol_t / vol).max(initial=1.0)))
    return best


def dichotomy_ranks_oracle(space: FiniteSpace, constants: SpaceConstants,
                           radii: np.ndarray) -> bool:
    """``analysis.dichotomy_holds`` as it was before ``BallTable.sizes``: ball
    sizes counted from integer ranks of every distance, offset by row.  It
    makes the same single ``empty_annulus_dichotomy`` call."""
    a0 = constants.A0
    tab = space.balls
    n, n_r = space.n, radii.size
    xs, last = tab.ball_ends()
    first_r = np.searchsorted(radii, tab.dist[xs, last], side="right")
    keep = first_r < n_r
    xs, first_r = xs[keep], first_r[keep]
    levels = np.unique(tab.dist)
    m = levels.size
    keys = (np.searchsorted(levels, tab.dist) + m * np.arange(n)[:, None]).reshape(-1)

    def count_below(rows, t):
        below = np.searchsorted(levels, t, side="left")
        return np.searchsorted(keys, m * rows + below, side="left") - n * rows

    inner = count_below(xs, 2.0 * a0 * radii[first_r])
    nearest = np.where(inner < n, tab.dist[xs, np.minimum(inner, n - 1)], np.inf)
    first_R = np.searchsorted(radii / (2.0 * a0), nearest, side="right")
    keep = first_R < n_r
    xs, first_r, first_R = xs[keep], first_r[keep], first_R[keep]
    if xs.size == 0:
        return True
    eps = 1.0 / constants.cmu(3.0 * a0**2)
    v_r = tab.mass[xs, count_below(xs, radii[first_r])]
    v_R = tab.mass[xs, count_below(xs, radii[first_R])]
    w = int(np.argmin(v_R - (1.0 + eps) * v_r))
    try:
        an.empty_annulus_dichotomy(space, constants, int(xs[w]),
                                   float(radii[first_r[w]]), float(radii[first_R[w]]))
    except AssertionError:
        return False
    return True


def bmo_norm_blocks_oracle(space: FiniteSpace, b: np.ndarray,
                           center: str = "average") -> float:
    """``analysis.bmo_norm`` as it was before the variance bound pruned it:
    every distinct ball in blocks of n, smallest balls first.  A block whose
    largest value is NaN is passed over, as ``max`` passes over NaN."""
    b = np.asarray(b, dtype=float)
    tab = space.balls
    n = space.n
    xs, last = tab.ball_ends()
    by_size = np.argsort(last, kind="stable")
    xs, last = xs[by_size], last[by_size]
    mass = tab.mass[xs, last + 1]
    bs = b[tab.order]
    ws = space.weights[tab.order]
    if center == "average":
        c = bs[xs, 0] + np.cumsum(ws * (bs - bs[:, :1]), axis=1)[xs, last] / mass
    best = 0.0
    for lo in range(0, xs.size, n):
        block = slice(lo, lo + n)
        ends = last[block]
        rows, cols = np.arange(ends.size), int(ends[-1]) + 1
        vals, wts = bs[xs[block], :cols], ws[xs[block], :cols]
        if center == "average":
            cb = c[block]
        else:
            outside = np.arange(cols) > ends[:, None]
            by_value = np.argsort(np.where(outside, np.inf, vals), axis=1,
                                  kind="stable")
            cum = np.cumsum(np.take_along_axis(wts, by_value, axis=1), axis=1)
            half = 0.5 * cum[rows, ends]
            cb = vals[rows, by_value[rows, np.argmax(cum >= half[:, None], axis=1)]]
        dev = np.cumsum(wts * np.abs(vals - cb[:, None]), axis=1)
        best = max(best, float((dev[rows, ends] / mass[block]).max()))
    return best
