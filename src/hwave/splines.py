"""Spline functions: membership probabilities of the randomized cubes.

s^k_alpha(x) is the probability, over the random choice of the dyadic
system, that x lands in the cube with index alpha at level k.  Because the
parent relation at level k depends only on the level-k coordinate, these
probabilities factor through row-indexed transition matrices and an exact
dynamic program replaces sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .nets import NetHierarchy
from .randomized import CubeMachine
from .report import CheckResult, check_flag
from .space import FiniteSpace, SpaceConstants

__all__ = [
    "TransitionSystem",
    "SplineTable",
    "HolderProfile",
    "Bump",
    "transition_probabilities",
    "build_transitions",
    "compute_splines_exact",
    "compute_splines_mc",
    "compute_splines_exact_rational",
    "holder_profile",
    "build_bump",
    "verify_spline_table",
    "save_splines",
]


@dataclass(frozen=True)
class TransitionSystem:
    """Exact refinement matrices p^k indexed by level-k x level-(k+1) positions."""

    k_coarse: int
    k_fine: int
    matrices: tuple

    def at(self, k: int) -> np.ndarray:
        return self.matrices[k - self.k_coarse]


@dataclass(frozen=True)
class SplineTable:
    k_coarse: int
    k_fine: int
    tables: tuple  # per level k: (#level-k cells, n) values

    def at(self, k: int) -> np.ndarray:
        return self.tables[k - self.k_coarse]


def transition_probabilities(machine: CubeMachine, k: int) -> np.ndarray:
    """p^k[alpha, beta] = probability that beta's omega-parent is alpha.

    Column sums equal one: every child has exactly one parent per outcome.
    """
    h = machine.h
    if not h.k_coarse <= k < h.k_fine:
        raise KeyError(f"level {k} has no transition")
    parents = machine.parent_tables[k]
    n_out, n_children = parents.shape
    n_parents = h.level(k).size
    pairs = parents.astype(np.intp) * n_children + np.arange(n_children)
    counts = np.bincount(pairs.ravel(), minlength=n_parents * n_children)
    return counts.reshape(n_parents, n_children) / n_out


def build_transitions(machine: CubeMachine) -> TransitionSystem:
    h = machine.h
    mats = tuple(transition_probabilities(machine, k)
                 for k in range(h.k_coarse, h.k_fine))
    return TransitionSystem(k_coarse=h.k_coarse, k_fine=h.k_fine, matrices=mats)


def compute_splines_exact(h: NetHierarchy, transitions: TransitionSystem) -> SplineTable:
    """Backward recursion s^k = p^k s^{k+1} from singleton indicators."""
    n = h.level(h.k_fine).size
    tables = [np.eye(n)]
    for k in range(h.k_fine - 1, h.k_coarse - 1, -1):
        tables.append(transitions.at(k) @ tables[-1])
    tables.reverse()
    return SplineTable(k_coarse=h.k_coarse, k_fine=h.k_fine, tables=tuple(tables))


def compute_splines_mc(machine: CubeMachine, nsamples: int, seed: int):
    """Empirical cube-membership frequencies plus per-entry binomial stderr.

    One walk over the draw classes (``CubeMachine.draw_classes``); per level,
    one bincount of the (cell, point) pairs weighted by class size gives the
    exact whole-number counts, divided once by ``nsamples``.
    """
    if nsamples < 1:
        raise ValueError("nsamples must be >= 1")
    h = machine.h
    n = h.level(h.k_fine).size
    outcomes = machine.sample_outcomes(seed, nsamples)
    cols = np.arange(n)
    freq = []
    errs = []
    for k, anc, counts, _ in machine.draw_classes(outcomes, h.k_coarse):
        n_cells = h.level(k).size
        draws = np.bincount((anc * n + cols).ravel(),
                            weights=np.repeat(counts, n), minlength=n_cells * n)
        table = draws.reshape(n_cells, n) / nsamples
        freq.append(table)
        errs.append(np.sqrt(table * (1.0 - table) / nsamples))
    return (
        SplineTable(k_coarse=h.k_coarse, k_fine=h.k_fine, tables=tuple(freq[::-1])),
        SplineTable(k_coarse=h.k_coarse, k_fine=h.k_fine, tables=tuple(errs[::-1])),
    )


def compute_splines_exact_rational(machine: CubeMachine) -> dict:
    """Exact-fraction recomputation of the dynamic program (tiny fixtures only).

    Entries are integer multiples of ((L+1)M)^-(k_fine - k); this validates the
    floating-point tables bit for bit on small spaces.
    """
    h = machine.h
    n = h.level(h.k_fine).size
    n_out = machine.n_outcomes
    tables = {h.k_fine: [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]}
    for k in range(h.k_fine - 1, h.k_coarse - 1, -1):
        parents = machine.parent_tables[k]
        n_par = h.level(k).size
        n_child = h.level(k + 1).size
        p = [[Fraction(0) for _ in range(n_child)] for _ in range(n_par)]
        for row in parents:
            for beta in range(n_child):
                p[row[beta]][beta] += Fraction(1, n_out)
        nxt = tables[k + 1]
        cur = [[sum((p[a][b] * nxt[b][x] for b in range(n_child)), Fraction(0))
                for x in range(n)] for a in range(n_par)]
        tables[k] = cur
    return tables


@dataclass(frozen=True)
class HolderProfile:
    level: int
    eta: float
    constant: float
    witness: tuple | None  # (alpha position, x, y)


def holder_profile(space: FiniteSpace, h: NetHierarchy, table: SplineTable,
                   k: int, eta: float) -> HolderProfile:
    """Smallest C with |s(x) - s(y)| <= C (d(x,y)/delta^k)^eta over all pairs."""
    values = table.at(k)
    dk = h.scale(k)
    iu, ju = np.triu_indices(space.n, 1)
    moduli = (space.dist[iu, ju] / dk) ** eta
    best = 0.0
    witness = None
    for alpha in range(values.shape[0]):
        ratios = np.abs(values[alpha, iu] - values[alpha, ju]) / moduli
        pos = int(np.argmax(ratios))
        if ratios[pos] > best:
            best = float(ratios[pos])
            witness = (alpha, int(iu[pos]), int(ju[pos]))
    return HolderProfile(level=k, eta=eta, constant=best, witness=witness)


@dataclass(frozen=True)
class Bump:
    values: np.ndarray
    level: int
    selected: np.ndarray  # positions of the summed splines at that level


def build_bump(space: FiniteSpace, constants: SpaceConstants, h: NetHierarchy,
               table: SplineTable, F, G) -> Bump:
    """Partition-of-unity bump with 1_F <= phi <= 1_G.

    The working scale is the smallest k with 16 A0^6 delta^k <= d(F, G^c),
    clamped to the available levels; the summed splines are those whose
    actual support meets F.
    """
    F = np.asarray(sorted(set(map(int, F))), dtype=int)
    G_set = set(map(int, G))
    if not set(F).issubset(G_set):
        raise ValueError("F must be contained in G")
    complement = np.asarray(sorted(set(range(space.n)) - G_set), dtype=int)
    if complement.size == 0:
        gap = math.inf
    elif F.size == 0:
        gap = math.inf
    else:
        gap = float(space.dist[np.ix_(F, complement)].min())
    if gap <= 0:
        raise ValueError("F touches the complement of G")

    a0 = constants.A0
    if math.isinf(gap):
        k = h.k_coarse
    else:
        k = h.k_coarse
        while 16.0 * a0**6 * h.scale(k) > gap and k < h.k_fine:
            k += 1
    values = table.at(k)
    if F.size:
        touching = np.nonzero((values[:, F] > 0).any(axis=1))[0]
    else:
        touching = np.array([], dtype=int)
    phi = values[touching].sum(axis=0) if touching.size else np.zeros(space.n)
    return Bump(values=phi, level=k, selected=touching)


def verify_spline_table(space: FiniteSpace, constants: SpaceConstants,
                        h: NetHierarchy, transitions: TransitionSystem,
                        table: SplineTable, tol: float = 1e-12) -> list[CheckResult]:
    """Partition of unity, interpolation, refinement and support sandwich."""
    a0 = constants.A0
    checks = []

    def record(name, ok, detail=""):
        checks.append(check_flag(name, detail, ok))

    for k in range(h.k_coarse, h.k_fine + 1):
        values = table.at(k)
        lev = h.level(k)
        dk = h.scale(k)

        col_err = float(np.abs(values.sum(axis=0) - 1.0).max())
        record(f"partition-of-unity level {k}", col_err <= tol, f"err {col_err:.2e}")

        interp = values[:, lev]
        record(f"interpolation level {k}",
               np.array_equal(interp, np.eye(lev.size)),
               "grid values differ from identity")

        record(f"range level {k}",
               values.min() >= 0.0 and values.max() <= 1.0)

        if k < h.k_fine:
            refine = transitions.at(k) @ table.at(k + 1)
            err = float(np.abs(values - refine).max())
            record(f"refinement level {k}", err <= tol, f"err {err:.2e}")

            p = transitions.at(k)
            col = float(np.abs(p.sum(axis=0) - 1.0).max())
            record(f"column-stochastic level {k}", col <= tol, f"err {col:.2e}")
            rows, cols = np.nonzero(p > 0)
            if rows.size:
                reach = (0.25 * a0**-1 + 2.0 * a0**2) * dk
                dist_pc = space.dist[h.level(k + 1)[cols], lev[rows]]
                record(f"transition-support level {k}",
                       float(dist_pc.max()) < reach, f"max {dist_pc.max():.3g}")

        dx = space.dist[lev]
        failed = np.stack([
            ((dx < dk * a0**-3 / 8.0) & ~(values == 1.0)).any(axis=1),
            (~(dx < 8.0 * a0**5 * dk) & (values != 0.0)).any(axis=1),
        ], axis=1)
        # row-major nonzero: ascending alpha, inner before outer
        for alpha, kind in zip(*np.nonzero(failed)):
            record(f"support-{('inner', 'outer')[kind]} level {k}", False,
                   f"alpha={alpha}")
    return checks


def save_splines(h: NetHierarchy, table: SplineTable, path) -> None:
    """One TSV row per (level, centre, point) with the spline value."""
    with Path(path).open("w") as fh:
        fh.write("level\talpha_id\tpoint_id\tvalue\n")
        for k in range(h.k_coarse, h.k_fine + 1):
            vals = table.at(k)
            points = [f"\t{x}\t" for x in range(vals.shape[1])]
            # one row of Python floats at a time: a whole level would add
            # ~2 MB to the peak at n = 256
            for center, row in zip(h.level(k).tolist(), vals):
                head = f"{k}\t{center}"
                fh.write("".join([f"{head}{p}{v!r}\n"
                                  for p, v in zip(points, row.tolist())]))
