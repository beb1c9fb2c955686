"""Function-space and operator diagnostics over the wavelet machinery.

Everything here is an exact finite computation: dichotomy and sum estimates
are scanned over all admissible arguments, BMO and Carleson norms are exact
maxima, and operator checks compare against singular-value oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import Levels, NetHierarchy, ReferenceOrder, ancestors
from .space import FiniteSpace, SpaceConstants, canonical_radii
from .wavelets import WaveletBasis

__all__ = [
    "DichotomyVerdict",
    "KernelSumReport",
    "empty_annulus_dichotomy",
    "dichotomy_holds",
    "verify_sum_large_balls",
    "sum_large_balls_sup",
    "verify_kernel_sums",
    "modulated_kernel",
    "volume_matrix",
    "bmo_norm",
    "carleson_norm",
    "bmo_to_coefficients",
    "bmo_from_carleson",
    "bmo_carleson_roundtrip",
    "paraproduct_matrix",
    "operator_wavelet_matrix",
    "schur_statistic",
    "operator_norm",
    "discrete_hilbert_kernel",
]


# ---------------------------------------------------------------------------
# Dichotomy and sums over large balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DichotomyVerdict:
    x: int
    r: float
    R: float
    eps: float
    volume_growth: bool
    annulus_empty: bool

    @property
    def verdict(self) -> str:
        if self.volume_growth and self.annulus_empty:
            return "both"
        return "volume-growth" if self.volume_growth else "empty-annulus"


def empty_annulus_dichotomy(space: FiniteSpace, constants: SpaceConstants,
                            x: int, r: float, R: float) -> DichotomyVerdict:
    """Either the ball mass grows by 1 + 1/Cmu(3 A0^2), or an annulus is empty."""
    if not R > r > 0:
        raise ValueError("need R > r > 0")
    if not 0 <= x < space.n:
        raise ValueError(f"x={x} outside 0..{space.n - 1}")
    a0 = constants.A0
    eps = 1.0 / constants.cmu(3.0 * a0**2)
    growth = space.volume(x, R) >= (1.0 + eps) * space.volume(x, r)
    row = space.dist[x]
    annulus = np.nonzero((row >= 2.0 * a0 * r) & (row < R / (2.0 * a0)))[0]
    empty = annulus.size == 0
    if not (growth or empty):
        raise AssertionError(
            f"dichotomy failed at x={x}, r={r}, R={R}: neither alternative holds"
        )
    return DichotomyVerdict(x=x, r=float(r), R=float(R), eps=eps,
                            volume_growth=bool(growth), annulus_empty=bool(empty))


def dichotomy_holds(space: FiniteSpace, constants: SpaceConstants,
                    radii: np.ndarray) -> bool:
    """Whether the dichotomy holds at every point x for all r < R in ``radii``.

    Same verdict as calling ``empty_annulus_dichotomy`` on every (x, r, R),
    decided by one call.  Within one ball V(x, r) is constant and the
    annulus only shrinks as r grows, so the ball's first radius decides.
    The annulus of (r, R) is nonempty exactly for R at or past the first
    radius with R / (2 A0) above the nearest distance >= 2 A0 r.  On that
    suffix the mass V(x, R), a running sum of positive weights, never
    decreases, so the dichotomy fails for some R exactly when it fails for
    the first R.  Every (ball, first R) pair is read off the ball table at
    once; the one call goes to the pair of least slack
    V(x, R) - (1 + eps) V(x, r), whose annulus is nonempty, so it raises
    exactly when some pair fails.  Every ball size comes from one
    ``BallTable.sizes`` search per centre.
    """
    a0 = constants.A0
    tab = space.balls
    n, n_r = space.n, radii.size
    xs, last = tab.ball_ends()
    first_r = np.searchsorted(radii, tab.dist[xs, last], side="right")
    keep = first_r < n_r
    xs, first_r = xs[keep], first_r[keep]
    inner = tab.sizes(xs, 2.0 * a0 * radii[first_r])
    # nearest is itself a radius above r, so every R from here on is > r
    nearest = np.where(inner < n, tab.dist[xs, np.minimum(inner, n - 1)], np.inf)
    first_R = np.searchsorted(radii / (2.0 * a0), nearest, side="right")
    keep = first_R < n_r
    xs, first_r, first_R = xs[keep], first_r[keep], first_R[keep]
    if xs.size == 0:
        return True
    eps = 1.0 / constants.cmu(3.0 * a0**2)
    # V(x, r) and V(x, R) side by side, so each centre takes one search
    pairs = np.stack([first_r, first_R], axis=1).ravel()
    counts = tab.sizes(np.repeat(xs, 2), radii[pairs])
    v_r, v_R = tab.mass[xs, counts[0::2]], tab.mass[xs, counts[1::2]]
    # the exact sign of V(x, R) - (1 + eps) V(x, r) is the call's comparison
    w = int(np.argmin(v_R - (1.0 + eps) * v_r))
    try:
        empty_annulus_dichotomy(space, constants, int(xs[w]),
                                float(radii[first_r[w]]), float(radii[first_R[w]]))
    except AssertionError:
        return False
    return True


def _largest_k_scale_geq(delta: float, r: float) -> int:
    # largest k with delta^k >= r
    k = 0
    if delta**k >= r:
        while delta ** (k + 1) >= r:
            k += 1
    else:
        while delta**k < r:
            k -= 1
    return k


def _dist_to_new_points(space: FiniteSpace, h: NetHierarchy, x: int, k: int) -> float:
    if not h.k_coarse <= k <= h.k_fine - 1:
        return math.inf
    ys = h.wavelet_centers(k)
    if ys.size == 0:
        return math.inf
    return float(space.dist[x, ys].min())


def verify_sum_large_balls(space: FiniteSpace, h: NetHierarchy, x: int, r: float,
                           nu: float, a: float, gamma: float) -> float:
    """Ratio of sum_k V(x, delta^k)^-nu exp(-gamma (d(x, Y^k)/delta^k)^a) to
    V(x, r)^-nu, summed over the levels with delta^k >= r."""
    if min(nu, a, gamma) <= 0:
        raise ValueError("nu, a, gamma must be positive")
    delta = h.delta
    k_top = _largest_k_scale_geq(delta, r)
    total = 0.0
    for k in range(h.k_coarse, min(k_top, h.k_fine - 1) + 1):
        dy = _dist_to_new_points(space, h, x, k)
        if math.isinf(dy):
            continue
        dk = delta**k
        total += space.volume(x, dk) ** -nu * math.exp(-gamma * (dy / dk) ** a)
    return total * space.volume(x, r) ** nu


def sum_large_balls_sup(space: FiniteSpace, h: NetHierarchy,
                        nu: float, a: float, gamma: float) -> float:
    """Worst ratio over every point and every canonical radius."""
    radii = canonical_radii(space)
    tab = space.balls
    xs, last = tab.ball_ends()
    # within one ball V(x, r) is fixed and a smaller r only adds nonnegative
    # terms: the ball's first radius, the first above its last point, is worst
    first = radii[np.searchsorted(radii, tab.dist[xs, last], side="right")]
    return max(verify_sum_large_balls(space, h, int(x), float(r), nu, a, gamma)
               for x, r in zip(xs, first))


# ---------------------------------------------------------------------------
# Kernel sums
# ---------------------------------------------------------------------------


def volume_matrix(space: FiniteSpace) -> np.ndarray:
    """V[x, y] = mu(B(x, d(x, y))); the diagonal holds the empty ball, 0."""
    tab = space.balls
    xs = np.repeat(np.arange(space.n), space.n)
    return tab.mass[xs, tab.sizes(xs, space.dist.ravel())].reshape(space.n, space.n)


@dataclass(frozen=True)
class KernelSumReport:
    c_product: float
    c_difference: float
    n_pairs: int
    n_triples: int


def verify_kernel_sums(space: FiniteSpace, constants: SpaceConstants,
                       basis: WaveletBasis, eta: float) -> KernelSumReport:
    """Exact suprema of the absolute wavelet kernel sums.

    c_product bounds sum_i |psi_i(x) psi_i(y)| V(x, d(x,y)) over pairs;
    c_difference bounds the first-difference sum over admissible triples,
    normalized by (d(x,y)/d(x,x'))^eta.
    """
    W = np.abs(basis.wavelet_values)
    vol = volume_matrix(space)
    n = space.n
    pair_sum = W.T @ W
    mask = ~np.eye(n, dtype=bool)
    c_product = float((pair_sum * vol)[mask].max()) if n > 1 else 0.0

    a0 = constants.A0
    Wraw = basis.wavelet_values
    c_diff = 0.0
    n_triples = 0
    for x in range(n):
        diffs = np.abs(Wraw[:, x][:, None] - Wraw)  # (m, n) over x'
        sums = diffs.T @ W  # (x', y)
        dxx = space.dist[x]
        for xp in range(n):
            if xp == x:
                continue
            admissible = dxx > 2.0 * a0 * dxx[xp]
            admissible[x] = False
            admissible[xp] = False
            ys = np.nonzero(admissible)[0]
            if ys.size == 0:
                continue
            stats = sums[xp, ys] * vol[x, ys] * (dxx[ys] / dxx[xp]) ** eta
            n_triples += ys.size
            m = float(stats.max())
            if m > c_diff:
                c_diff = m
    return KernelSumReport(c_product=c_product, c_difference=c_diff,
                           n_pairs=int(mask.sum()), n_triples=n_triples)


def modulated_kernel(basis: WaveletBasis, signs: np.ndarray) -> np.ndarray:
    """K(x, y) = sum_i c_i psi_i(x) psi_i(y) for coefficients |c_i| <= 1."""
    W = basis.wavelet_values
    return W.T @ (np.asarray(signs)[:, None] * W)


# ---------------------------------------------------------------------------
# BMO and Carleson
# ---------------------------------------------------------------------------


def _oscillations(bs: np.ndarray, ws: np.ndarray, xs: np.ndarray, last: np.ndarray,
                  mass: np.ndarray, c: np.ndarray | None) -> np.ndarray:
    """Mean oscillation of each ball (xs[i], last[i]), balls sorted by size.

    ``bs`` and ``ws`` are b and the weights in each row's distance order;
    ``c`` holds the centre values, or None for the weighted median.  The
    balls go in blocks of n, and a block reads only the columns up to its
    largest ball: no temporary exceeds n^2 entries, and a ball's running
    sums, hence its value, are the same in any block.
    """
    n = bs.shape[0]
    out = np.empty(xs.size)
    for lo in range(0, xs.size, n):
        block = slice(lo, lo + n)
        ends = last[block]
        rows, cols = np.arange(ends.size), int(ends[-1]) + 1
        vals, wts = bs[xs[block], :cols], ws[xs[block], :cols]
        if c is None:
            # points outside a ball sort last, after any value inside it
            outside = np.arange(cols) > ends[:, None]
            by_value = np.argsort(np.where(outside, np.inf, vals), axis=1,
                                  kind="stable")
            cum = np.cumsum(np.take_along_axis(wts, by_value, axis=1), axis=1)
            half = 0.5 * cum[rows, ends]
            cb = vals[rows, by_value[rows, np.argmax(cum >= half[:, None], axis=1)]]
        else:
            cb = c[block]
        dev = np.cumsum(wts * np.abs(vals - cb[:, None]), axis=1)
        out[block] = dev[rows, ends] / mass[block]
    return out


def _variance_bound(space: FiniteSpace, b: np.ndarray, mass: np.ndarray,
                    s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """UB of ``bmo_norm``'s docstring for each ball, from its mass and its
    running sums S1 of w (b - b(x)) and S2 of w (b - b(x))^2."""
    n = space.n
    big = float(np.abs(b).max())
    k = 8.0 * (n + 2) * np.finfo(float).eps
    tau = k * big + math.sqrt((n / float(space.weights.min()) + 1.0)
                              * (big + 1.0) * np.finfo(float).tiny)
    if not math.isfinite(8.0 * big * max(space.total_mass, 1.0)):
        tau = math.inf
    with np.errstate(all="ignore"):
        a, q = s2 / mass, s1 / mass
        return (1.0 + k) * (np.sqrt(a - q * q + k * a) + tau)


def bmo_norm(space: FiniteSpace, b: np.ndarray, center: str = "average") -> float:
    """Exact max over balls of the mean oscillation around a centre value c.

    Every distinct ball is a pair (centre x, last point) from
    ``balls.ball_ends()``: the ball is the points of ``balls.order[x]`` up
    to its last, x itself first.  Every sum runs over a ball's points in
    that distance order, as a running sum along the row (``np.cumsum``), and
    the ball's mass mu(B) is the table's ``balls.mass[x, last + 1]``.  The
    oscillation is sum w |b - c| / mu(B).

    ``center='average'`` takes c = b(x) + S1 / mu(B), S1 the running sum of
    w (b - b(x)): shifted by the centre's own value, a constant input has
    zero oscillation exactly.  ``center='median'`` takes the exact minimizer
    of the L1 oscillation, the weighted median: the first value, in a stable
    sort of the ball's values in distance order, at which the running weight
    reaches half its total.  The two norms differ by at most a factor 2.

    Only the balls that can win take that exact pass.  With q = S1 / mu(B),
    S2 the running sum of w (b - b(x))^2 and a = S2 / mu(B), the variance
    of b on the ball is Var = a - q^2.  By Cauchy-Schwarz the oscillation
    around the mean is at most sqrt(Var), and the median's is at most the
    mean's, so both centres' values are at most

        UB = (1 + k) (sqrt(a - q^2 + k a) + tau),   k = 8 (n + 2) eps,
        tau = k M + sqrt((n / min w + 1) (M + 1) tiny),   M = max |b|.

    UB evaluated in floats bounds even the float value the pass computes.
    Proof, with u = eps / 2 and N = n + 2 >= (points of B) + 2.  Each float
    operation errs by at most u relative, plus eta = tiny 2^-53 absolute
    for a product or a quotient (gradual underflow); U = (n / min w + 1)
    (M + 1) eta collects the underflow below.
    - q is within 2.1 N u sqrt(a) of its exact value, since
      sum w |b - b(x)| <= mu(B) sqrt(a).  The mean centre c is then within
      2.2 N u sqrt(a) + u M of the exact mean; u M is c's last addition,
      which rounds at the size of b(x).
    - The median centre is the exact weighted median, or a value whose
      running weight, like every running weight between the two, is within
      2.1 N u mu(B) of half.  Its L1 sum then exceeds the minimum by at most
      that times the spread of b, 4.2 N u M mu(B), and the minimum is at
      most the mean's, mu(B) sqrt(Var).
    - Summing w |b - c| and dividing by the float mass add a factor
      1 + 4 N u, so each centre's float value is at most
      (1 + 4 N u) (sqrt(Var) + 3 N u sqrt(a) + 6 N u M + 7 U).
    - The float a - q^2 is within 7.2 N u a + 12 U of Var: the subtraction
      cancels, but neither term exceeds a.  So sqrt(Var) + 3 N u sqrt(a) is
      at most sqrt(a - q^2 + 14 N u a) + sqrt(12 U) in floats, and
      k = 16 N u leaves 2 N u a for the roundings of UB itself.  k M covers
      6 N u M, and the root in tau, sqrt(2^53 U), covers sqrt(12 U) + 7 U
      wherever it is finite.
    - While 8 M max(mu(X), 1) is finite, no step of the pass overflows;
      otherwise tau is inf.  An overflow in the bound, a NaN entry of b and
      a negative radicand each make UB inf or NaN.
    A ball is skipped only where UB < best is True, so every ball of
    infinite or NaN bound is visited.  The pass takes the n balls of largest
    UB, then every other ball whose UB is not below the best value found; a
    skipped ball's float value is below that best, so the result is the
    full pass's, bit for bit.
    """
    if center not in ("average", "median"):
        raise ValueError("center must be 'average' or 'median'")
    b = np.asarray(b, dtype=float)
    tab = space.balls
    n = space.n
    xs, last = tab.ball_ends()
    mass = tab.mass[xs, last + 1]
    bs = b[tab.order]
    ws = space.weights[tab.order]
    flat = xs * n + last
    with np.errstate(all="ignore"):
        shift = bs - bs[:, :1]
        wd = ws * shift
        s1 = np.cumsum(wd, axis=1).ravel()[flat]
        s2 = np.cumsum(wd * shift, axis=1).ravel()[flat]
    bound = _variance_bound(space, b, mass, s1, s2)
    c = bs[xs, 0] + s1 / mass if center == "average" else None
    val = np.full(xs.size, -np.inf)

    def visit(idx):
        idx = idx[np.argsort(last[idx], kind="stable")]
        val[idx] = _oscillations(bs, ws, xs[idx], last[idx], mass[idx],
                                 None if c is None else c[idx])

    # every centre has a ball, so there are at least n
    top = np.argpartition(-bound, n - 1)[:n]
    visit(top)
    rest = ~(bound < val[top].max())
    rest[top] = False
    visit(np.flatnonzero(rest))
    if np.isnan(val).any():
        # a NaN value needs a NaN or infinite entry of b or an overflow, each
        # of which visits every ball.  The norm is then the largest value
        # over the blocks of n balls, smallest first, that hold no NaN.
        by_size = np.argsort(last, kind="stable")
        padded = np.pad(val[by_size], (0, -xs.size % n), constant_values=-np.inf)
        return max([0.0, *padded.reshape(-1, n).max(axis=1).tolist()])
    return max(0.0, float(val.max()))


def _wavelet_positions(h: NetHierarchy, basis: WaveletBasis) -> np.ndarray:
    """Position of each wavelet's center inside level k+1 of the hierarchy."""
    levels, centers = basis.wavelet_levels, basis.wavelet_centers
    pos = np.zeros(levels.size, dtype=int)
    for k in np.unique(levels).tolist():
        at = levels == k
        pos[at] = h.position(k + 1, centers[at])
    return pos


def carleson_norm(space: FiniteSpace, h: NetHierarchy, order: ReferenceOrder,
                  basis: WaveletBasis, coeffs: np.ndarray,
                  parent_maps=None) -> float:
    """Sup over dyadic cubes of the normalized mass of the coefficients
    sitting below the cube.

    By default the cubes come from the deterministic reference order; passing
    the parent maps of a sampled system evaluates the norm over that system's
    cubes instead (the two differ by a bounded factor).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    levels = basis.wavelet_levels
    if coeffs.shape != levels.shape:
        raise ValueError("coefficient field must match the wavelet index set")
    if parent_maps is None:
        parent_maps = order.parents
    anc = ancestors(h, parent_maps)
    k1 = levels.astype(int) + 1
    squares = coeffs**2
    # p[i]: the level-ell cell below which wavelet i sits, once k1[i] >= ell
    p = _wavelet_positions(h, basis)
    best = 0.0
    for ell in range(h.k_fine, h.k_coarse - 1, -1):
        if ell < h.k_fine:
            up = k1 > ell
            p[up] = parent_maps.at(ell)[p[up]]
        n_cells = h.level(ell).size
        mass = np.zeros(n_cells)
        np.add.at(mass, anc.at(ell), space.weights)
        below = k1 >= ell
        acc = np.zeros(n_cells)
        np.add.at(acc, p[below], squares[below])  # in wavelet order
        live = acc > 0
        if live.any():
            best = max(best, float(np.sqrt(acc[live] / mass[live]).max()))
    return best


def bmo_to_coefficients(basis: WaveletBasis, b: np.ndarray) -> np.ndarray:
    return basis.analyze(b)[basis.is_wavelet]


def bmo_from_carleson(space: FiniteSpace, basis: WaveletBasis,
                      coeffs: np.ndarray, x0: int, r0: float) -> np.ndarray:
    """Renormalized wavelet sum: coarse-scale terms are pinned at x0.

    Levels with scale exceeding r0 contribute psi - psi(x0); different
    choices of (x0, r0) change the output by an additive constant only.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    W = basis.wavelet_values
    f = W.T @ coeffs
    coarse = basis.delta ** basis.wavelet_levels.astype(float) > r0
    shift = float(np.dot(coeffs[coarse], W[coarse, x0]))
    return f - shift


@dataclass(frozen=True)
class RoundTripReport:
    bmo: float
    carleson: float
    residual: float  # deviation of (input - reconstruction) from a constant

    @property
    def ratio(self) -> float:
        return self.carleson / self.bmo if self.bmo > 0 else math.nan


def bmo_carleson_roundtrip(space: FiniteSpace, h: NetHierarchy,
                           order: ReferenceOrder, basis: WaveletBasis,
                           b: np.ndarray) -> RoundTripReport:
    coeffs = bmo_to_coefficients(basis, b)
    # pinned at point 0, radius 1: another pin moves rec by a constant only
    rec = bmo_from_carleson(space, basis, coeffs, 0, 1.0)
    diff = np.asarray(b, dtype=float) - rec
    residual = float(diff.max() - diff.min())
    return RoundTripReport(
        bmo=bmo_norm(space, b),
        carleson=carleson_norm(space, h, order, basis, coeffs),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Paraproducts and operator diagnostics
# ---------------------------------------------------------------------------


def paraproduct_matrix(space: FiniteSpace, h: NetHierarchy, table: Levels,
                       basis: WaveletBasis, beta: np.ndarray) -> np.ndarray:
    """Matrix of the paraproduct with symbol beta on weighted functions.

    Averages the input against the L1-normalized next-level spline of each
    wavelet center, multiplies by the wavelet coefficient of beta and expands
    back on the wavelets; applying it to the constant 1 returns beta minus
    its mean.
    """
    beta = np.asarray(beta, dtype=float)
    W = basis.wavelet_values
    levels = basis.wavelet_levels
    pos = _wavelet_positions(h, basis)
    cb = W @ (beta * space.weights)
    rows = np.zeros_like(W)
    for k in np.unique(levels).tolist():
        at = np.flatnonzero(levels == k)
        s = table.at(k + 1)[pos[at]]
        rows[at] = s / np.array([np.dot(r, space.weights) for r in s])[:, None]
    return W.T @ (cb[:, None] * rows * space.weights[None, :])


def operator_wavelet_matrix(space: FiniteSpace, basis: WaveletBasis,
                            T: np.ndarray, kind: str = "matrix") -> np.ndarray:
    """Coefficients <T psi_j, psi_i> of an operator against the wavelet family.

    ``kind='matrix'`` treats T as a plain matrix acting on function values;
    ``kind='kernel'`` treats it as a kernel integrated against the measure.
    """
    T = np.asarray(T, dtype=float)
    if kind == "kernel":
        A = T * space.weights[None, :]
    elif kind == "matrix":
        A = T
    else:
        raise ValueError("kind must be 'matrix' or 'kernel'")
    W = basis.wavelet_values
    images = A @ W.T  # columns: T psi_j
    return W @ (space.weights[:, None] * images)


def _wavelet_ball_volumes(space: FiniteSpace, basis: WaveletBasis) -> np.ndarray:
    scales = basis.delta ** basis.wavelet_levels.astype(float)
    return np.asarray([
        space.volume(int(y), float(s))
        for y, s in zip(basis.wavelet_centers, scales)
    ])


def schur_statistic(space: FiniteSpace, basis: WaveletBasis,
                    coeffs: np.ndarray) -> tuple[float, float]:
    """Weighted row/column l1 statistics whose max dominates the l2 norm."""
    wgt = np.sqrt(_wavelet_ball_volumes(space, basis))
    C = np.abs(np.asarray(coeffs))
    if C.size == 0:  # no wavelets
        return 0.0, 0.0
    col = float(((C * wgt[:, None]).sum(axis=0) / wgt).max())
    row = float(((C * wgt[None, :]).sum(axis=1) / wgt).max())
    return col, row


def operator_norm(matrix: np.ndarray) -> float:
    sv = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    return float(sv[0]) if sv.size else 0.0


def discrete_hilbert_kernel(n: int) -> np.ndarray:
    """Antisymmetric 1/sin kernel on the n-cycle with zero diagonal."""
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore"):
        K = np.where(diff == 0, 0.0, 1.0 / np.sin(math.pi * diff / n))
    return K
