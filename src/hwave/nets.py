"""Nested nets of reference dyadic points, reference partial order, labels.

Level k holds a maximal delta^k-separated subset of the space; levels are
nested upward.  The greedy scans always run over ascending point ids so the
whole construction is reproducible.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .report import CheckResult, check_flag, write_json
from .space import FiniteSpace, SpaceConstants

__all__ = [
    "Levels",
    "NetHierarchy",
    "ReferenceOrder",
    "NetError",
    "GeometryViolation",
    "build_nets",
    "verify_nets",
    "build_reference_order",
    "ancestors",
    "save_nets",
    "load_nets",
]

STRICT_DELTA_COEFF = 1e-3  # strict mode requires delta <= coeff * A0**-10


class NetError(ValueError):
    """Invalid construction parameters."""


class GeometryViolation(RuntimeError):
    """A geometric conclusion failed at runtime; decrease delta."""

    def __init__(self, message: str):
        super().__init__(message + " (suggestion: decrease delta)")


@dataclass(frozen=True)
class Levels:
    """One item per level, from level ``k_coarse`` up: ``at(k)`` is the item
    of level k.  A level outside the range raises ``KeyError`` naming it and
    the range; iteration runs over the items, coarsest first."""

    k_coarse: int
    levels: tuple

    @property
    def k_fine(self) -> int:
        return self.k_coarse + len(self.levels) - 1

    def at(self, k: int):
        if not self.k_coarse <= k <= self.k_fine:
            raise KeyError(f"level {k} outside [{self.k_coarse}, {self.k_fine}]")
        return self.levels[k - self.k_coarse]

    def __iter__(self):
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class NetHierarchy:
    delta: float
    levels: Levels  # per level: sorted int array of point ids
    # ``verify_nets``'s records, which ``build_nets`` asserted
    checks: tuple = field(default=(), compare=False, repr=False)

    @property
    def k_coarse(self) -> int:
        return self.levels.k_coarse

    @property
    def k_fine(self) -> int:
        return self.levels.k_fine

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level(self, k: int) -> np.ndarray:
        return self.levels.at(k)

    def scale(self, k: int) -> float:
        return self.delta**k

    def wavelet_centers(self, k: int) -> np.ndarray:
        """Points of level k+1 that are new relative to level k."""
        return np.setdiff1d(self.level(k + 1), self.level(k))

    def position(self, k: int, points) -> np.ndarray:
        """Positions of the given point ids within the sorted level-k array."""
        lev = self.level(k)
        pos = np.searchsorted(lev, points)
        if np.any(lev[pos] != points):
            raise KeyError("point not on the requested level")
        return pos


def _greedy_extend(dist: np.ndarray, base: list[int], candidates, sep: float) -> list[int]:
    """``base`` plus, in candidate order, every point at distance >= sep from
    all points chosen so far, sorted.  ``blocked`` marks the points within sep
    of a chosen one (itself included), so each candidate is one lookup."""
    taken = np.zeros(dist.shape[0], dtype=bool)
    blocked = np.zeros(dist.shape[0], dtype=bool)
    for i in base:
        taken[i] = True
        blocked |= dist[i] < sep
    for i in candidates:
        if not blocked[i]:
            taken[i] = True
            blocked |= dist[i] < sep
    return np.flatnonzero(taken).tolist()


def _check_params(constants: SpaceConstants, delta: float, mode: str) -> None:
    """``NetError`` unless delta is in (0, 1) and below strict mode's bound."""
    if not 0 < delta < 1:
        raise NetError("delta must lie in (0, 1)")
    if mode not in ("strict", "relaxed"):
        raise NetError(f"unknown mode {mode!r}")
    if mode == "strict":
        bound = STRICT_DELTA_COEFF * constants.A0**-10
        if delta > bound:
            raise NetError(
                f"strict mode requires delta <= {bound:.3g}, got {delta}"
            )


def build_nets(space: FiniteSpace, constants: SpaceConstants, delta: float,
               mode: str = "relaxed") -> NetHierarchy:
    """Greedy nested nets for all scales from one root point down to all of X."""
    _check_params(constants, delta, mode)
    n = space.n
    dist = space.dist
    ids = range(n)

    level0 = _greedy_extend(dist, [], ids, 1.0)
    finer = [level0]  # finer[k] is level k
    while len(finer[-1]) < n:
        finer.append(_greedy_extend(dist, finer[-1], ids, delta**len(finer)))
    coarser = [level0]  # coarser[j] is level -j
    while len(coarser[-1]) > 1:
        coarser.append(_greedy_extend(dist, [], coarser[-1], delta**-len(coarser)))
    all_levels = coarser[:0:-1] + finer
    # normalize: keep the last level that is a single point and the first
    # that exhausts the space; nested levels never shrink going finer
    sizes = [len(lv) for lv in all_levels]
    first, last = sizes.count(1) - 1, sizes.index(n)
    k0 = 1 - len(coarser)  # the level of all_levels[0]
    h = NetHierarchy(delta=delta, levels=Levels(k0 + first, tuple(
        np.asarray(lv, dtype=int) for lv in all_levels[first:last + 1])))
    checks = verify_nets(space, constants, h)
    if not all(c.passed for c in checks):
        raise GeometryViolation("net covering/separation failed: " + "; ".join(
            c.line() for c in checks if not c.passed))
    return replace(h, checks=tuple(checks))


def verify_nets(space: FiniteSpace, constants: SpaceConstants,
                h: NetHierarchy) -> list[CheckResult]:
    """Check separation >= delta^k within levels and covering < 2 A0 delta^k."""
    checks = []
    structure = []
    a0 = constants.A0
    for k in range(h.k_coarse, h.k_fine + 1):
        lev = h.level(k)
        dk = h.scale(k)
        if lev.size > 1:
            sub = space.dist[np.ix_(lev, lev)]
            off = sub[~np.eye(lev.size, dtype=bool)]
            sep_worst = float(off.min())
        else:
            sep_worst = math.inf
        cov_worst = float(space.dist[:, lev].min(axis=1).max())
        cov_bound = 2.0 * a0 * dk
        checks.append(check_flag(
            f"net-separation level {k}",
            f"min pair distance {sep_worst:.4g} vs scale {dk:.4g}",
            sep_worst >= dk))
        checks.append(CheckResult(
            f"net-covering level {k}", f"worst distance to net {cov_worst:.4g}",
            tolerance=cov_bound, margin=cov_bound - cov_worst,
            passed=cov_worst < cov_bound))
        if k > h.k_coarse and not np.all(np.isin(h.level(k - 1), lev)):
            structure.append(f"level {k - 1} not nested in level {k}")
    if not np.array_equal(h.level(h.k_fine), np.arange(space.n)):
        structure.append("finest level does not exhaust the space")
    if h.level(h.k_coarse).size != 1:
        structure.append("coarsest level is not a single point")
    detail = "; ".join(["nesting, coarse root, finest level"] + structure)
    checks.append(check_flag("net-structure", detail, not structure))
    return checks


@dataclass(frozen=True)
class ReferenceOrder:
    """Parent maps between consecutive levels plus neighbour and label data.

    Internally everything is indexed by position within the sorted level
    arrays of the hierarchy it was built from.  Every field but ``label2``
    holds levels k_coarse .. k_fine-1.
    """

    parents: Levels     # at(k): level k+1 position -> level k position
    neighbours: Levels  # at(k)[alpha]: same-level positions
    label1: Levels      # at(k)[alpha] in {0..L}
    label2: Levels      # at(k)[beta] in {1..M}, levels k_coarse+1 .. k_fine
    L: int
    M: int


def _neighbours(space: FiniteSpace, lev: np.ndarray, nxt: np.ndarray,
                parent: np.ndarray, k: int, dk: float, a0: float) -> tuple:
    """Ascending same-level neighbour positions of every level-k cell.

    ``beta`` and ``gamma`` are neighbours when they own children closer than
    (2 A0)^-1 delta^k to each other: Pᵀ·close·P > 0 off the diagonal, with P
    the children's parent one-hot, whose integer counts are exact in floats.
    Neighbours must lie within 5 A0^3 delta^k; the first pair in row-major
    order that does not raises.
    """
    close = space.dist[np.ix_(nxt, nxt)] < dk / (2.0 * a0)
    onehot = np.zeros((nxt.size, lev.size))
    onehot[np.arange(nxt.size), parent] = 1.0
    near = onehot.T @ (close.astype(float) @ onehot) > 0.0
    np.fill_diagonal(near, False)
    far = np.triu(near & (space.dist[np.ix_(lev, lev)] >= 5.0 * a0**3 * dk))
    if far.any():
        a, b = np.argwhere(far)[0]
        raise GeometryViolation(
            f"neighbours {lev[a]},{lev[b]} at level {k} too far apart")
    return tuple(np.flatnonzero(row) for row in near)


def build_reference_order(space: FiniteSpace, constants: SpaceConstants,
                          h: NetHierarchy) -> ReferenceOrder:
    a0 = constants.A0
    parents = []
    neighbours = []
    label1 = []
    label2 = []
    L = 0
    M = 1
    for k in range(h.k_coarse, h.k_fine):
        lev = h.level(k)
        nxt = h.level(k + 1)
        dk = h.scale(k)
        d_sub = space.dist[np.ix_(nxt, lev)]
        parent = np.argmin(d_sub, axis=1)  # first minimum = lowest id (sorted level)
        dmin = d_sub[np.arange(nxt.size), parent]
        if np.any(dmin >= 2.0 * a0 * dk):
            bad = int(np.argmax(dmin))
            raise GeometryViolation(
                f"child {nxt[bad]} at level {k + 1} has no parent within 2*A0*delta^{k}"
            )
        close = d_sub < dk / (2.0 * a0)
        counts = close.sum(axis=1)
        if np.any(counts > 1):
            bad = int(np.argmax(counts))
            raise GeometryViolation(
                f"child {nxt[bad]} has several near parents at level {k}"
            )
        parents.append(parent)
        sizes = np.bincount(parent, minlength=lev.size)
        M = max(M, int(sizes.max()))

        nbrs = _neighbours(space, lev, nxt, parent, k, dk, a0)
        neighbours.append(nbrs)
        L = max(L, max((v.size for v in nbrs), default=0))

        colors = np.full(lev.size, -1, dtype=int)
        for a in range(lev.size):
            used = {colors[b] for b in nbrs[a] if colors[b] >= 0}
            c = 0
            while c in used:
                c += 1
            colors[a] = c
        label1.append(colors)

        # each child's rank among its siblings by ascending position, from 1
        child = np.argsort(parent, kind="stable")
        first = np.cumsum(sizes) - sizes  # where each cell's children start
        lab2 = np.empty(nxt.size, dtype=int)
        lab2[child] = np.arange(1, nxt.size + 1) - first[parent[child]]
        label2.append(lab2)

    k0 = h.k_coarse
    return ReferenceOrder(
        parents=Levels(k0, tuple(parents)),
        neighbours=Levels(k0, tuple(neighbours)),
        label1=Levels(k0, tuple(label1)),
        label2=Levels(k0 + 1, tuple(label2)),
        L=L,
        M=M,
    )


def ancestors(h: NetHierarchy, parents) -> Levels:
    """Level-k ancestor position of every point, per level k_coarse..k_fine.

    ``parents`` holds one parent map per level pair, coarsest first: a
    reference order's or a sampled system's.
    """
    anc = [np.arange(h.level(h.k_fine).size)]
    for parent in reversed(tuple(parents)):
        anc.append(parent[anc[-1]])
    return Levels(h.k_coarse, tuple(reversed(anc)))


# ---------------------------------------------------------------------------
# Net files
# ---------------------------------------------------------------------------


# Per-level fields of a net file and the offset from k_coarse of their first
# entry's level: a parent map and the sibling labels belong to the finer level.
_LEVEL_FIELDS = {"levels": 0, "parents": 1, "neighbours": 0, "label1": 0,
                 "label2": 1}


def _nets_payload(h: NetHierarchy, order: ReferenceOrder) -> dict:
    """The net file of a hierarchy and its reference order, field by field."""
    return {
        "delta": h.delta,
        "k_coarse": h.k_coarse,
        "k_fine": h.k_fine,
        "levels": [lv.tolist() for lv in h.levels],
        "parents": [p.tolist() for p in order.parents],
        "neighbours": [[v.tolist() for v in lvl] for lvl in order.neighbours],
        "label1": [v.tolist() for v in order.label1],
        "label2": [v.tolist() for v in order.label2],
        "L": order.L,
        "M": order.M,
    }


def save_nets(h: NetHierarchy, order: ReferenceOrder, path) -> None:
    write_json(path, _nets_payload(h, order))


def load_nets(path, space: FiniteSpace, constants: SpaceConstants,
              delta: float, mode: str):
    """The hierarchy and reference order of a net file on ``space``.

    The run's ``delta`` and ``mode`` pass ``build_nets``'s check and the
    file's delta is the run's.  The levels are the input: ascending point
    ids that pass ``verify_nets``.  Every other field must equal what
    ``save_nets`` writes for them, else ``NetError`` names the first field
    that differs, its level and both values."""
    _check_params(constants, delta, mode)
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise NetError(f"net file parse error: {exc}") from exc
    h = NetHierarchy(delta=float(data["delta"]), levels=Levels(
        int(data["k_coarse"]),
        tuple(np.asarray(lv, dtype=int) for lv in data["levels"])))
    k_fine = int(data["k_fine"])
    if h.delta != delta:
        raise NetError(f"net file has delta {h.delta}, the run has {delta}")
    if h.k_fine != k_fine:
        raise NetError(
            f"net file invariant violated: {h.num_levels} levels for the "
            f"range {h.k_coarse}..{k_fine}")
    for k, lv in enumerate(h.levels, start=h.k_coarse):
        if (lv.ndim != 1 or lv.size == 0 or lv[0] < 0 or lv[-1] >= space.n
                or np.any(np.diff(lv) <= 0)):
            raise NetError(
                f"net file invariant violated: level {k} is not ascending "
                f"distinct point ids in 0..{space.n - 1}")
    failed = [c.line() for c in verify_nets(space, constants, h) if not c.passed]
    if failed:
        raise NetError("net file invariant violated: " + "; ".join(failed))
    order = build_reference_order(space, constants, h)
    want = _nets_payload(h, order)
    for key in [*want, *sorted(set(data) - set(want))]:
        got, value = data.get(key, "missing"), want.get(key, "missing")
        if got == value:
            continue
        where = key
        if key in _LEVEL_FIELDS and isinstance(got, list):
            i, got, value = next(
                (i, g, w) for i, (g, w) in enumerate(
                    zip_longest(got, value, fillvalue="missing")) if g != w)
            where = f"{key} at level {h.k_coarse + _LEVEL_FIELDS[key] + i}"
        raise NetError(f"net file invariant violated: {where} is {got}, "
                       f"the space gives {value}")
    return h, order
