"""Weighted L2 structure on the splines and off-diagonal-decay matrix algebra.

Gram matrices are normalized by the ball volumes mu^k_alpha = mu(B(x^k_alpha,
delta^k)); their extreme eigenvalues are exactly the optimal Riesz constants.
One eigendecomposition per connected component of a Gram-type matrix's
nonzero pattern gives its SPD check, Riesz bounds, inverse and inverse
square root; entries between components are exactly 0.0, as the theory has
them, so ``basis.json`` is exactly zero off the blocks.  The duals and the
orthonormal scaling functions are formed, and their identities checked, per
component too (``build_gram_system``).  An optional Neumann-series route is
kept for decay experiments.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nets import Levels, NetHierarchy
from .report import nonzero_entries
from .space import FiniteSpace, SpaceConstants

__all__ = [
    "GramLevel",
    "DecayProfile",
    "NotSPDError",
    "component_positions",
    "inverse_and_sqrt",
    "neumann_inverse_and_sqrt",
    "decay_fit",
    "fit_decay_exponent",
    "build_gram_system",
    "decay_exponent_s",
    "save_matrix_csv",
    "save_gram_system",
]


class NotSPDError(RuntimeError):
    """Matrix expected to be symmetric positive definite is not."""


BAND_COEFF = 16.0  # Gram entries vanish beyond 16 A0^6 delta^k
DUAL_TOL = 1e-10  # biorthogonality, orthonormality and mass of each level
SERIES_TOL = 1e-13  # tail bound at which the Neumann series stops
SERIES_MAX_TERMS = 20000
DECAY_FLOOR = 1e-14  # entries at or below this are left out of decay fits


def decay_exponent_s(constants: SpaceConstants) -> float:
    """Exponent in the inverse-matrix decay: 1 for a metric, else (1+log2 A0)^-1."""
    if constants.A0 <= 1.0:
        return 1.0
    return 1.0 / (1.0 + math.log2(constants.A0))


def component_positions(M: np.ndarray) -> list[np.ndarray]:
    """The blocks of the connected components of a square M's symmetric
    nonzero pattern, as positions in ``M.ravel()``: one (c, s, s) array per
    component size s, smallest first, for the c components of that size
    ordered by their least index, indices ascending."""
    n = M.shape[0]
    pattern = M != 0.0
    if np.count_nonzero(pattern) == np.count_nonzero(pattern.diagonal()):
        # nothing off the diagonal, as in every Gram at delta 1/4: n
        # components of one index, without the labelling rounds
        return [(np.arange(n) * (n + 1))[:, None, None]]
    pattern |= pattern.T
    # labels are indices of the same component, each at most its own index:
    # every label takes the least label next to any index carrying it, then
    # every index follows labels to one that labels itself.  The fixed point
    # labels each component by its least index, in O(log n) rounds on paths
    lab = np.arange(n)
    while True:
        new = lab.copy()
        np.minimum.at(new, lab, np.where(pattern, lab, lab[:, None]).min(axis=1))
        jumped = new[new]
        while (jumped != new).any():
            new, jumped = jumped, jumped[jumped]
        if (new == lab).all():
            break
        lab = new
    size = np.bincount(lab)[lab]
    order = np.argsort(size * n + lab, kind="stable")
    size = size[order]
    cuts = [0, *(np.flatnonzero(size[1:] != size[:-1]) + 1).tolist(), n]
    positions = []
    for start, stop in zip(cuts, cuts[1:]):
        idx = order[start:stop].reshape(-1, size[start])
        positions.append(idx[:, :, None] * n + idx[:, None, :])
    return positions


def _eigh_blocks(M: np.ndarray, name: str):
    """Eigendecomposition of a symmetric M per connected component of its
    symmetric nonzero pattern, and its extreme eigenvalues (the Riesz
    bounds); ``NotSPDError`` naming ``name`` unless they are positive.

    One ``(flat, w, U)`` per component size s (``component_positions``):
    ``flat`` (c, s, s) holds the positions of the blocks in ``M.ravel()``,
    and ``w`` (c, s), ``U`` (c, s, s) their ascending eigenvalues and
    eigenvectors from one batched ``eigh``.
    """
    blocks = []
    lo, hi = math.inf, -math.inf
    for flat in component_positions(M):
        w, U = np.linalg.eigh(M.take(flat))
        lo, hi = min(lo, w[:, 0].min()), max(hi, w[:, -1].max())
        blocks.append((flat, w, U))
    if lo <= 0.0:
        raise NotSPDError(f"{name} has eigenvalue {lo:.3e} <= 0")
    return blocks, (float(lo), float(hi))


def _block_inverse(w: np.ndarray, U: np.ndarray, root: bool = False) -> np.ndarray:
    """The blocks of M^-1 (M^-1/2 with ``root``) for one size group of
    ``_eigh_blocks``: U diag(w)^-1 U^T (diag(w)^-1/2) per block, symmetrized,
    as a (c, s, s) stack."""
    B = (U / (np.sqrt(w) if root else w)[:, None, :]) @ U.swapaxes(1, 2)
    return 0.5 * (B + B.swapaxes(1, 2))


def _gram_level(space: FiniteSpace, constants: SpaceConstants, h: NetHierarchy,
                table: Levels, k: int):
    """Volume-normalized Gram matrix of the level-k splines and the volumes,
    plus its block eigendecomposition and Riesz bounds (``_eigh_blocks``)."""
    values = table.at(k)
    lev = h.level(k)
    dk = h.scale(k)
    tab = space.balls
    vol = tab.mass[lev, (tab.dist[lev] < dk).sum(axis=1)]
    raw = space.gram(values, values)
    M = raw / np.sqrt(np.outer(vol, vol))
    M = 0.5 * (M + M.T)
    centers = space.dist[lev[:, None], lev]
    far = centers >= BAND_COEFF * constants.A0**6 * dk
    if np.any(M[far] != 0.0):
        raise NotSPDError(f"band property violated at level {k}")
    return (M, vol) + _eigh_blocks(M, f"Gram at level {k}")


def inverse_and_sqrt(M: np.ndarray):
    """(M^-1, M^-1/2) by symmetric eigendecomposition per connected component
    of M's nonzero pattern; entries between components are exactly 0.0."""
    M = np.asarray(M, dtype=float)
    atol = 1e-12 * max(1.0, abs(M).max())
    if not abs(M - M.T).max() <= atol:
        raise NotSPDError("matrix is not symmetric")
    blocks, _ = _eigh_blocks(M, "matrix")
    n = M.shape[0]
    inverse, isqrt = np.zeros(n * n), np.zeros(n * n)
    for flat, w, U in blocks:
        inverse[flat] = _block_inverse(w, U)
        isqrt[flat] = _block_inverse(w, U, root=True)
    return inverse.reshape(n, n), isqrt.reshape(n, n)


def neumann_inverse_and_sqrt(M: np.ndarray):
    """Series route: write M = h (I - A) and sum powers of A.

    Returns (inverse, inverse square root, contraction ratio r, #terms).
    The square-root series uses the central binomial coefficients, which are
    bounded by one, so both tails are controlled by r^(N+1) / (1 - r).

    The series runs on the (c, s, s) stack of M's connected components of
    each size at once (``component_positions``), with the h and r of all of
    M from the eigenvalues of every stack, and is 0.0 between components.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    flats = component_positions(M)
    stacks = [M.take(flat) for flat in flats]
    eigs = [np.linalg.eigvalsh(S) for S in stacks]
    least = min(float(e[:, 0].min()) for e in eigs)
    if least <= 0.0:
        raise NotSPDError("Neumann route needs a positive definite matrix")
    norm_m = max(float(e[:, -1].max()) for e in eigs)
    hconst = 0.5 * (norm_m + 1.0 / least)
    A = [np.eye(S.shape[1]) - S / hconst for S in stacks]
    r = max(float(np.abs(np.linalg.eigvalsh(a)).max()) for a in A)
    if r >= 1.0:
        raise NotSPDError("series does not contract")
    terms = 0
    while r ** (terms + 1) / (1.0 - r) >= SERIES_TOL:
        terms += 1
        if terms > SERIES_MAX_TERMS:
            raise NotSPDError("series did not converge within the term budget")
    inverse, isqrt = np.zeros(n * n), np.zeros(n * n)
    for flat, a in zip(flats, A):
        # blocks of one entry multiply elementwise, as matmul would
        mul = np.matmul if a.shape[1] > 1 else np.multiply
        power = np.eye(a.shape[1])
        inv_sum = np.zeros_like(a) + power
        sqrt_sum = inv_sum.copy()
        c = 1.0
        for t in range(terms):
            power = mul(power, a)
            c = c * (2 * t + 1) / (2 * t + 2)
            inv_sum += power
            sqrt_sum += c * power
        inverse[flat] = inv_sum / hconst
        isqrt[flat] = sqrt_sum / math.sqrt(hconst)
    return inverse.reshape(n, n), isqrt.reshape(n, n), r, terms


@dataclass(frozen=True)
class DecayProfile:
    exponent: float       # s applied to the normalized distance
    C: float              # fitted amplitude
    gamma: float          # fitted decay rate (positive = decay)
    max_residual: float   # worst underestimate of ln|entry| by the fit
    n_entries: int
    degenerate: bool


def decay_fit(matrix: np.ndarray, center_ids, space: FiniteSpace, scale: float,
              exponent: float) -> DecayProfile:
    """Least squares of ln|entry| against (d/scale)^exponent over live entries."""
    matrix = np.asarray(matrix, dtype=float)
    centers = np.asarray(center_ids, dtype=int)
    dists = space.dist[np.ix_(centers, centers)]
    live = np.abs(matrix) > DECAY_FLOOR
    if live.sum() < 2:
        raise ValueError("fewer than 2 entries above the floor")
    u = (dists[live] / scale) ** exponent
    v = np.log(np.abs(matrix[live]))
    if np.unique(u).size < 2:
        return DecayProfile(exponent=exponent, C=float(np.exp(v.max())),
                            gamma=0.0, max_residual=0.0,
                            n_entries=int(live.sum()), degenerate=True)
    design = np.stack([np.ones_like(u), -u], axis=1)
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    lnC, gamma = float(coef[0]), float(coef[1])
    resid = v - design @ coef
    return DecayProfile(exponent=exponent, C=math.exp(lnC), gamma=gamma,
                        max_residual=float(resid.max()),
                        n_entries=int(live.sum()), degenerate=False)


def fit_decay_exponent(matrix: np.ndarray, dists: np.ndarray) -> float:
    """Slope of ln(-ln|entry|) against ln(distance): the decay exponent itself."""
    matrix = np.asarray(matrix, dtype=float)
    live = ((np.abs(matrix) > DECAY_FLOOR) & (np.abs(matrix) < 1.0)
            & (dists > 0))
    if live.sum() < 2:
        raise ValueError("not enough entries to fit an exponent")
    x = np.log(dists[live])
    y = np.log(-np.log(np.abs(matrix[live])))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


@dataclass(frozen=True)
class GramLevel:
    M: np.ndarray
    volumes: np.ndarray
    Minv: np.ndarray
    Misqrt: np.ndarray
    stilde: np.ndarray
    phi: np.ndarray
    riesz: tuple[float, float]


def build_gram_system(space: FiniteSpace, constants: SpaceConstants,
                      h: NetHierarchy, table: Levels) -> Levels:
    """Gram, dual and orthonormal data per level (a ``GramLevel`` each), with
    identities asserted.

    The duals stilde = (M^-1 / sqrt(vol vol^T)) s and the scaling functions
    phi = (M^-1/2 / sqrt(vol)^T) s are one batched product of each component's
    blocks (``_eigh_blocks``) with its spline rows: the full product summed
    the same terms in the same order, plus exact 0.0 terms, so the rows are
    the same bit for bit.  <s_i, stilde_j> = <phi_i, phi_j> = delta_ij is
    checked per component, and one pass over the spline values counts the
    components whose splines are nonzero at each point: no point may lie in
    the supports of two components.  So stilde_j and phi_j, made of the
    splines of j's component, are 0.0 where any other component's splines
    are nonzero, and each skipped entry is a sum of 0.0 terms: exactly 0.0,
    as the identity has it.  (Splines are nonnegative, so M_ij = 0.0 means
    disjoint supports unless the products underflow.)  A NaN in a block
    reaches its own component's residual, which fails.  The mass check
    <stilde_i, 1> = 1 stays on every row.  A failure names the level,
    M's condition number hi/lo and the space's C_mu(2).
    """
    out = []
    for k in range(h.k_coarse, h.k_fine + 1):
        M, vol, blocks, riesz = _gram_level(space, constants, h, table, k)
        n = M.shape[0]
        values, sqrt_vol = table.at(k), np.sqrt(vol)
        Minv, Misqrt = np.zeros(n * n), np.zeros(n * n)
        stilde, phi = np.empty_like(values), np.empty_like(values)
        holders, bio, ortho = np.zeros(values.shape[1], dtype=np.intp), [], []
        for flat, w, U in blocks:
            idx = flat[:, :, 0] // n
            Minv[flat] = inv = _block_inverse(w, U)
            Misqrt[flat] = isqrt = _block_inverse(w, U, root=True)
            sv, rows = sqrt_vol[idx], values[idx]
            # count the components whose splines hold each point
            holders += rows.any(axis=1).sum(axis=0)
            eye = np.eye(idx.shape[1])
            stilde[idx] = dual = (inv / (sv[:, :, None] * sv[:, None, :])) @ rows
            dual *= space.weights
            bio.append(np.abs(rows @ dual.swapaxes(1, 2) - eye).max())
            phi[idx] = dual = (isqrt / sv[:, None, :]) @ rows
            ortho.append(np.abs(dual @ (dual * space.weights).swapaxes(1, 2)
                                - eye).max())
        if holders.max() > 1:
            raise NotSPDError(f"level {k}: point {np.argmax(holders > 1)} lies in "
                              "the supports of splines from two Gram components")
        err_mass = np.abs(stilde @ space.weights - 1.0).max()
        # a NaN residual compares False, so it fails
        if not all(err <= DUAL_TOL for err in (*bio, *ortho, err_mass)):
            raise NotSPDError(
                f"level {k} dual-system identities failed (bio {np.max(bio):.2e}, "
                f"ortho {np.max(ortho):.2e}, mass {err_mass:.2e}; "
                f"Gram condition number {riesz[1] / riesz[0]:.3g}, "
                f"C_mu(2) {constants.cmu(2.0):.3g})"
            )
        out.append(GramLevel(M=M, volumes=vol, Minv=Minv.reshape(n, n),
                             Misqrt=Misqrt.reshape(n, n), stilde=stilde,
                             phi=phi, riesz=riesz))
    return Levels(h.k_coarse, tuple(out))


def save_matrix_csv(matrix: np.ndarray, path, labels=None) -> None:
    """Nonzero entries as (row, col, value) CSV rows in row-major order.

    ``labels`` names the rows and columns (default: their indices).
    """
    labels = np.arange(matrix.shape[0]) if labels is None else np.asarray(labels)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value"])
        for rows, cols, texts in nonzero_entries(matrix):
            writer.writerows(zip(labels[rows].tolist(), labels[cols].tolist(),
                                 texts))


def save_gram_system(h: NetHierarchy, gramsys: Levels, out) -> None:
    """``gram_level_<k>.csv`` per level, rows and columns named by point id."""
    for k in range(h.k_coarse, h.k_fine + 1):
        save_matrix_csv(gramsys.at(k).M, Path(out) / f"gram_level_{k}.csv",
                        h.level(k))
