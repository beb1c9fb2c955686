"""Spline functions: membership probabilities of the randomized cubes.

s^k_alpha(x) is the probability, over the random choice of the dyadic
system, that x lands in the cube with index alpha at level k.  Because the
parent relation at level k depends only on the level-k coordinate, these
probabilities factor through row-indexed transition matrices and an exact
dynamic program replaces sampling.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nets import Levels, NetHierarchy
from .randomized import CubeMachine
from .report import CheckResult, check_flag, write_nonzeros
from .space import FiniteSpace, SpaceConstants

__all__ = [
    "HolderProfile",
    "transition_probabilities",
    "build_transitions",
    "compute_splines_exact",
    "compute_splines_mc",
    "holder_profile",
    "verify_spline_table",
    "save_splines",
]

SPLINE_TOL = 1e-12  # float error allowed in the spline identities


def transition_probabilities(machine: CubeMachine, k: int) -> np.ndarray:
    """p^k[alpha, beta] = probability that beta's omega-parent is alpha.

    Column sums equal one: every child has exactly one parent per outcome.
    """
    h = machine.h
    machine.order.parents.at(k)  # KeyError naming the range unless k has one
    parents = machine.parent_tables[k]
    n_out, n_children = parents.shape
    n_parents = h.level(k).size
    pairs = parents.astype(np.intp) * n_children + np.arange(n_children)
    counts = np.bincount(pairs.ravel(), minlength=n_parents * n_children)
    return counts.reshape(n_parents, n_children) / n_out


def build_transitions(machine: CubeMachine) -> Levels:
    """The exact refinement matrices p^k, levels k_coarse .. k_fine-1, each
    indexed by level-k x level-(k+1) positions."""
    h = machine.h
    return Levels(h.k_coarse, tuple(transition_probabilities(machine, k)
                                    for k in range(h.k_coarse, h.k_fine)))


def compute_splines_exact(h: NetHierarchy, transitions: Levels) -> Levels:
    """Backward recursion s^k = p^k s^{k+1} from singleton indicators: per
    level k, the (#level-k cells, n) spline values."""
    n = h.level(h.k_fine).size
    tables = [np.eye(n)]
    for k in range(h.k_fine - 1, h.k_coarse - 1, -1):
        tables.append(transitions.at(k) @ tables[-1])
    return Levels(h.k_coarse, tuple(reversed(tables)))


def compute_splines_mc(machine: CubeMachine, nsamples: int, seed: int):
    """Empirical cube-membership frequencies plus per-entry binomial stderr.

    One walk over the draw classes (``CubeMachine.draw_classes``), which
    splits each class's draws over a level's outcomes by multinomial counts;
    per level, one bincount of the (cell, point) pairs weighted by class
    size gives the whole-number counts (exact below 2**53), divided once by
    ``nsamples``.  The cost does not grow with ``nsamples``, which the walk
    refuses outside [1, 2**63).
    """
    h = machine.h
    n = h.level(h.k_fine).size
    cols = np.arange(n)
    freq = []
    errs = []
    for k, anc, counts in machine.draw_classes(seed, nsamples, h.k_coarse):
        n_cells = h.level(k).size
        draws = np.bincount((anc * n + cols).ravel(),
                            weights=np.repeat(counts, n), minlength=n_cells * n)
        table = draws.reshape(n_cells, n) / nsamples
        freq.append(table)
        errs.append(np.sqrt(table * (1.0 - table) / nsamples))
    return Levels(h.k_coarse, tuple(freq[::-1])), Levels(h.k_coarse, tuple(errs[::-1]))


@dataclass(frozen=True)
class HolderProfile:
    level: int
    eta: float
    constant: float
    witness: tuple | None  # (alpha position, x, y)


def holder_profile(space: FiniteSpace, h: NetHierarchy, table: Levels,
                   k: int, eta: float) -> HolderProfile:
    """Smallest C with |s(x) - s(y)| <= C (d(x,y)/delta^k)^eta over all pairs."""
    values = table.at(k)
    dk = h.scale(k)
    iu, ju = np.triu_indices(space.n, 1)
    if iu.size == 0:  # one point: no pairs
        return HolderProfile(level=k, eta=eta, constant=0.0, witness=None)
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


def verify_spline_table(space: FiniteSpace, constants: SpaceConstants,
                        h: NetHierarchy, transitions: Levels,
                        table: Levels) -> list[CheckResult]:
    """Partition of unity, interpolation, refinement and support sandwich;
    the float identities hold to ``SPLINE_TOL``."""
    a0 = constants.A0
    checks = []

    def record(name, ok, detail=""):
        checks.append(check_flag(name, detail, ok))

    for k in range(h.k_coarse, h.k_fine + 1):
        values = table.at(k)
        lev = h.level(k)
        dk = h.scale(k)

        col_err = float(np.abs(values.sum(axis=0) - 1.0).max())
        record(f"partition-of-unity level {k}", col_err <= SPLINE_TOL,
               f"err {col_err:.2e}")

        interp = values[:, lev]
        record(f"interpolation level {k}",
               np.array_equal(interp, np.eye(lev.size)),
               "grid values differ from identity")

        record(f"range level {k}",
               values.min() >= 0.0 and values.max() <= 1.0)

        if k < h.k_fine:
            refine = transitions.at(k) @ table.at(k + 1)
            err = float(np.abs(values - refine).max())
            record(f"refinement level {k}", err <= SPLINE_TOL,
                   f"err {err:.2e}")

            p = transitions.at(k)
            col = float(np.abs(p.sum(axis=0) - 1.0).max())
            record(f"column-stochastic level {k}", col <= SPLINE_TOL,
                   f"err {col:.2e}")
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


def save_splines(h: NetHierarchy, table: Levels, path) -> None:
    """One TSV row per (level, centre, point) where the spline value is
    ``!= 0.0``; an absent row reads 0.0."""
    with Path(path).open("w") as fh:
        fh.write("level\talpha_id\tpoint_id\tvalue\n")
        points = [f"{x}\t" for x in range(table.at(h.k_fine).shape[1])]
        for k in range(h.k_coarse, h.k_fine + 1):
            heads = [f"{k}\t{center}\t" for center in h.level(k).tolist()]
            write_nonzeros(fh, table.at(k), heads, points, "\n")
