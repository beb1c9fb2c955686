"""Orthonormal wavelet basis built over the new points of each level.

Pre-wavelets are next-level splines minus their projection onto the current
spline span; symmetric orthonormalization (Gram inverse square root) then
turns each level family into an orthonormal set without destroying locality.
The coarse direction closes with the normalized constant, so the final family
is a genuine basis: member count equals the number of points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mra import DECAY_FLOOR, NotSPDError, _block_inverse, _eigh_blocks
from .nets import Levels, NetHierarchy
from .report import check_error, check_flag, json_rows, write_json
from .space import FiniteSpace, SpaceConstants

__all__ = [
    "WaveletBasis",
    "WaveletDecayReport",
    "pre_wavelets",
    "orthonormalize_level",
    "assemble_basis",
    "kernel_of_projection",
    "decay_and_regularity_report",
    "wavelet_decay_a",
    "save_basis",
]

ORTHO_TOL = 1e-10  # pre-wavelet orthogonality and per-level orthonormality
BASIS_TOL = 1e-8   # orthonormality of the whole basis


def wavelet_decay_a(constants: SpaceConstants) -> float:
    """Decay exponent of the wavelets: 1 for a metric, else (1+2 log2 A0)^-1."""
    if constants.A0 <= 1.0:
        return 1.0
    return 1.0 / (1.0 + 2.0 * math.log2(constants.A0))


def pre_wavelets(space: FiniteSpace, h: NetHierarchy, table: Levels,
                 gramsys: Levels, k: int):
    """Level-k pre-wavelets: one per new point, orthogonal to the level span.

    Returns (values, center point ids); empty when the level adds no points.
    """
    ys = h.wavelet_centers(k)
    if ys.size == 0:
        return np.zeros((0, space.n)), ys
    ypos = h.position(k + 1, ys)
    s_next = table.at(k + 1)[ypos]
    s_cur = table.at(k)
    stilde = gramsys.at(k).stilde
    coef = space.gram(s_next, stilde)
    tilde_psi = s_next - coef @ s_cur
    # a NaN residual compares False, so it fails
    err = np.abs(space.gram(tilde_psi, s_cur)).max()
    if not err <= ORTHO_TOL:
        raise NotSPDError(f"pre-wavelets at level {k} not orthogonal to the "
                          f"span (residual {err:.2e})")
    err = np.abs(tilde_psi @ space.weights).max()
    if not err <= ORTHO_TOL:
        raise NotSPDError(f"pre-wavelets at level {k} have nonzero mean "
                          f"(residual {err:.2e})")
    return tilde_psi, ys


def orthonormalize_level(space: FiniteSpace, tilde_psi: np.ndarray,
                         volumes: np.ndarray) -> np.ndarray:
    """Symmetric orthonormalization of one level family.

    ``volumes`` are the ball masses of the new points at the next-level scale;
    they normalize the Gram before the inverse square root is applied.  The
    root and its product with the pre-wavelets are formed per connected
    component of that Gram (``_eigh_blocks``), as ``build_gram_system`` forms
    phi.  The residual <psi_i, psi_j> - delta_ij stays dense: pre-wavelets
    change sign, so a 0.0 entry of their Gram does not mean disjoint
    supports.  A refusal gives the Gram's condition number hi/lo, and
    ``assemble_basis`` adds the level and C_mu(2).
    """
    if tilde_psi.shape[0] == 0:
        return tilde_psi
    sqrt_vol = np.sqrt(volumes)
    gram = space.gram(tilde_psi, tilde_psi) / np.outer(sqrt_vol, sqrt_vol)
    gram = 0.5 * (gram + gram.T)
    blocks, (lo, hi) = _eigh_blocks(gram, "pre-wavelet Gram")
    n = gram.shape[0]
    psi = np.empty_like(tilde_psi)
    for flat, w, U in blocks:
        idx = flat[:, :, 0] // n
        psi[idx] = ((_block_inverse(w, U, root=True) / sqrt_vol[idx][:, None, :])
                    @ tilde_psi[idx])
    err = np.abs(space.gram(psi, psi) - np.eye(n)).max()
    if not err <= ORTHO_TOL:
        raise NotSPDError(f"orthonormalization residual {err:.2e}, pre-wavelet "
                          f"Gram condition number {hi / lo:.3g}")
    return psi


@dataclass(frozen=True)
class WaveletBasis:
    space: FiniteSpace
    delta: float
    values: np.ndarray      # one row per member, evaluated on all points
    levels: np.ndarray      # level of each member (coarse member: k_coarse)
    centers: np.ndarray     # point id each member concentrates at
    is_wavelet: np.ndarray
    # the records assemble_basis asserted: orthonormality, member count
    checks: tuple = field(default=(), compare=False, repr=False)

    @property
    def n_members(self) -> int:
        return self.values.shape[0]

    @property
    def wavelet_values(self) -> np.ndarray:
        return self.values[self.is_wavelet]

    @property
    def wavelet_levels(self) -> np.ndarray:
        return self.levels[self.is_wavelet]

    @property
    def wavelet_centers(self) -> np.ndarray:
        return self.centers[self.is_wavelet]

    def analyze(self, f: np.ndarray) -> np.ndarray:
        return self.values @ (np.asarray(f) * self.space.weights)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self.values.T @ np.asarray(coeffs)


def assemble_basis(space: FiniteSpace, constants: SpaceConstants,
                   h: NetHierarchy, table: Levels,
                   gramsys: Levels) -> WaveletBasis:
    """Constant plus all level wavelets; verifies the family is orthonormal.
    A refused orthonormalization names the level and C_mu(2)."""
    rows = [np.full((1, space.n), 1.0 / math.sqrt(space.total_mass))]
    levels = [h.k_coarse]
    centers = [int(h.level(h.k_coarse)[0])]
    for k in range(h.k_coarse, h.k_fine):
        tilde_psi, ys = pre_wavelets(space, h, table, gramsys, k)
        if ys.size == 0:
            continue
        ypos = h.position(k + 1, ys)
        volumes = gramsys.at(k + 1).volumes[ypos]
        try:
            rows.append(orthonormalize_level(space, tilde_psi, volumes))
        except NotSPDError as err:
            raise NotSPDError(f"level {k} {err}, C_mu(2) "
                              f"{constants.cmu(2.0):.3g}") from err
        levels += [k] * ys.size
        centers += ys.tolist()
    values = np.vstack(rows)
    count = check_flag("basis-count",
                       f"{values.shape[0]} members for {space.n} points",
                       values.shape[0] == space.n)
    if not count.passed:
        raise NotSPDError(count.line())
    err = float(np.abs(space.gram(values, values) - np.eye(space.n)).max())
    ortho = check_error("basis-orthonormality", "Gram vs identity", err,
                        BASIS_TOL)
    if not ortho.passed:
        raise NotSPDError(ortho.line())
    return WaveletBasis(
        space=space, delta=h.delta, values=values, levels=np.asarray(levels),
        centers=np.asarray(centers),
        is_wavelet=np.arange(space.n) > 0,  # member 0 is the constant
        checks=(ortho, count),
    )


def kernel_of_projection(space: FiniteSpace, gramsys: Levels,
                         basis: WaveletBasis, k: int, kind: str) -> np.ndarray:
    """Kernel matrix of P_k (scaling span) or Q_k (level-k wavelet span)."""
    if kind == "P":
        phi = gramsys.at(k).phi
        return phi.T @ phi
    if kind == "Q":
        sel = basis.is_wavelet & (basis.levels == k)
        psi = basis.values[sel]
        if psi.shape[0] == 0:
            return np.zeros((space.n, space.n))
        return psi.T @ psi
    raise ValueError("kind must be 'P' or 'Q'")


@dataclass(frozen=True)
class WaveletDecayReport:
    level: int
    a: float
    gamma: float
    C: float
    max_residual: float
    holder_sup: float
    n_entries: int


def decay_and_regularity_report(space: FiniteSpace, constants: SpaceConstants,
                                h: NetHierarchy, basis: WaveletBasis,
                                eta: float):
    """Per-level decay fit and Hoelder statistic for the wavelet rows.

    The fit normalizes each wavelet by the root ball volume of its center at
    its own scale and regresses the log magnitude on the scaled distance to
    the center raised to the decay exponent.
    """
    a = wavelet_decay_a(constants)
    reports = []
    for k in range(h.k_coarse, h.k_fine):
        sel = basis.is_wavelet & (basis.levels == k)
        if not sel.any():
            continue
        psi = basis.values[sel]
        ys = basis.centers[sel]
        dk = h.scale(k)
        root_vol = np.sqrt([space.volume(int(y), dk) for y in ys])
        normalized = np.abs(psi) * root_vol[:, None]
        u_all = (space.dist[ys] / dk) ** a
        live = normalized > DECAY_FLOOR
        u = u_all[live]
        v = np.log(normalized[live])
        if u.size >= 2 and np.unique(u).size >= 2:
            design = np.stack([np.ones_like(u), -u], axis=1)
            coef, *_ = np.linalg.lstsq(design, v, rcond=None)
            lnC, gamma = float(coef[0]), float(coef[1])
            resid = float((v - design @ coef).max())
        else:
            lnC, gamma, resid = float(v.max()) if v.size else 0.0, 0.0, 0.0
        holder_sup = 0.0
        iu, ju = np.triu_indices(space.n, 1)
        close = space.dist[iu, ju] <= dk
        for i in range(psi.shape[0]):
            diffs = np.abs(psi[i, iu[close]] - psi[i, ju[close]])
            dpair = space.dist[iu[close], ju[close]]
            damp = np.exp(gamma * u_all[i, iu[close]])
            stats = diffs * root_vol[i] * (dk / dpair) ** eta * damp
            if stats.size:
                holder_sup = max(holder_sup, float(stats.max()))
        reports.append(WaveletDecayReport(
            level=k, a=a, gamma=gamma, C=math.exp(lnC),
            max_residual=resid, holder_sup=holder_sup, n_entries=int(live.sum()),
        ))
    return reports


def save_basis(h: NetHierarchy, basis: WaveletBasis, path) -> None:
    members = ({
        "level": level,
        "center": center,
        "kind": "wavelet" if wavelet else "scaling",
        "values": values,
    } for level, center, wavelet, values in zip(
        basis.levels.tolist(), basis.centers.tolist(),
        basis.is_wavelet.tolist(), json_rows(basis.values)))
    write_json(path, {
        "n": basis.space.n,
        "delta": basis.delta,
        "k_coarse": h.k_coarse,
        "k_fine": h.k_fine,
        "members": members,
    })
