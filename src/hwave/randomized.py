"""Randomized dyadic systems: sampled orders, cube partitions, boundary layers.

Each level k of the hierarchy draws an independent coordinate (ell_k, m_k)
uniformly from {0..L} x {1..M}.  The coordinate may promote one child per
center to a "new" dyadic point z, which in turn perturbs the parent relation
between levels k+1 and k.  Cubes are ancestor preimages under the perturbed
relation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import (GeometryViolation, Levels, NetHierarchy, ReferenceOrder,
                   ancestors)
from .report import CheckResult, check_flag, write_json
from .space import FiniteSpace, SpaceConstants

__all__ = [
    "OmegaSample",
    "RandomizedSystem",
    "CubeMachine",
    "BoundaryEstimate",
    "sample_omega",
    "verify_system",
    "verify_center_sandwich",
    "boundary_layer_probability",
    "theoretical_eta",
    "boundary_theory_bound",
    "save_system",
]


@dataclass(frozen=True)
class OmegaSample:
    """One draw of the per-level coordinates, levels k_coarse .. k_fine-1."""

    k_coarse: int
    ell: np.ndarray
    m: np.ndarray
    seed: int | None = None

    @property
    def num_levels(self) -> int:
        return len(self.ell)

    def coord(self, k: int) -> tuple[int, int]:
        """(ell_k, m_k), looked up in place: ``Levels`` over each array."""
        return (int(Levels(self.k_coarse, self.ell).at(k)),
                int(Levels(self.k_coarse, self.m).at(k)))


def _coord_rng(seed: int, level_offset: int, which: int) -> np.random.Generator:
    # one independent stream per (level, coordinate); draws are therefore
    # independent of both the evaluation order and the batch size
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(level_offset), int(which)]))


def _level_draws(order: ReferenceOrder, seed: int, i: int, nsamples: int):
    """The coordinates (ell, m - 1) of level k_coarse + i for a batch of
    draws, both 0-based: the one place the streams are read one draw at a
    time.  numpy adds ``low`` after the same bounded draw, so
    ``integers(0, M)`` is ``integers(1, M + 1) - 1`` bit for bit, and a
    range of one value (L = 0 or M = 1) takes nothing from its stream."""
    return (_coord_rng(seed, i, 0).integers(0, order.L + 1, size=nsamples),
            _coord_rng(seed, i, 1).integers(0, order.M, size=nsamples))


def _level_split(order: ReferenceOrder, seed: int, i: int, counts: np.ndarray):
    """How classes of ``counts`` draws split over the (L+1) M outcomes of
    level k_coarse + i, as (classes, outcomes) counts with column
    ell * M + m - 1: the streams of ``_level_draws``, read as counts.

    Each draw's ell and m are independent and uniform, so a class's ell
    counts are Multinomial(c, 1/(L+1)) from stream 0, and each ell bucket's
    m counts Multinomial(c_ell, 1/M) from stream 1: the law of the draws
    taken one by one, up to the rounding of 1/(L+1) and 1/M in numpy's
    binomial sampler.  The cost is one binomial per class and outcome,
    whatever the counts; a range of one value takes nothing from its
    stream.
    """
    L1, M = order.L + 1, order.M
    ell = _coord_rng(seed, i, 0).multinomial(counts, np.full(L1, 1.0 / L1))
    split = _coord_rng(seed, i, 1).multinomial(ell, np.full(M, 1.0 / M))
    return split.reshape(counts.size, L1 * M)


def _check_nsamples(nsamples: int) -> None:
    """Draw counts are held as int64: refuse what they cannot hold."""
    if not 1 <= nsamples < 2**63:
        raise ValueError(f"nsamples must lie in [1, 2**63), as draw counts "
                         f"are int64; got {nsamples}")


def sample_omega(order: ReferenceOrder, seed: int) -> OmegaSample:
    """One draw: the first coordinates ``_level_draws`` draws per level,
    with m shifted to 1..M."""
    draws = [_level_draws(order, seed, i, 1) for i in range(len(order.parents))]
    ell, m = np.array(draws, dtype=np.int64).reshape(-1, 2).T
    return OmegaSample(k_coarse=order.parents.k_coarse, ell=ell, m=m + 1,
                       seed=seed)


@dataclass(frozen=True)
class RandomizedSystem:
    omega: OmegaSample
    z: Levels        # per level: point ids of the new dyadic points
    parents: Levels  # per level k in [k_coarse, k_fine-1]: positions at level k
    cubes: Levels    # per level: ancestor position of every point of X


def _membership(cubes_k: np.ndarray, n_cells: int) -> np.ndarray:
    """(cells x n) booleans: point x lies in cell alpha of the level."""
    return cubes_k[None, :] == np.arange(n_cells)[:, None]


def _spreads(dist_rows: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Per cell, the largest distance from its row's centre to a member;
    -inf for an empty cell, so that no outer-ball test fails on it."""
    return np.where(member, dist_rows, -np.inf).max(axis=1)


def verify_system(space, constants, h, order, system) -> list[CheckResult]:
    """Every per-sample conclusion: separation, covering, tiling and the
    sandwiches around the new points z.  The sandwich around the reference
    centres is ``verify_center_sandwich``'s.

    The iterated bounds (a level-l descendant within 6 A0^4 delta^k of its
    level-k point z; a point within delta^k A0^-4 / 6 of z a descendant) are
    decided for the pair k_fine -> k alone, along the composed parent maps:
    - each z_l[i] is a point of X;
    - ``cube-inner-ball level l`` already puts z_l[i] in its own cube, as
      d(z, z) = 0 is inside the inner radius;
    - so the level-k ancestor of z_l[i] along the l-chain is the point's own,
      and each l -> k statement is a special case of k_fine -> k;
    - for l = k the distance is 0, and ``z-separation`` implies the close
      bound, since delta^k A0^-4 / 6 < delta^k / (2 A0).
    """
    a0 = constants.A0
    checks = []

    def record(name, ok, detail=""):
        checks.append(check_flag(name, detail, ok))

    for k in range(h.k_coarse, h.k_fine + 1):
        dk = h.scale(k)
        lev = h.level(k)
        zk = system.z.at(k)
        if k < h.k_fine:
            # z must be the centre itself or one of its reference children
            nxt = h.level(k + 1)
            at = np.minimum(np.searchsorted(nxt, zk), nxt.size - 1)
            child = (nxt[at] == zk) & (order.parents.at(k)[at] == np.arange(lev.size))
            record(f"z-in-children level {k}", np.all(child | (zk == lev)))
        if zk.size > 1:
            sub = space.dist[np.ix_(zk, zk)]
            worst = sub[~np.eye(zk.size, dtype=bool)].min()
            record(f"z-separation level {k}", worst >= dk / (2 * a0),
                   f"min {worst:.3g} vs {dk / (2 * a0):.3g}")
        cov = space.dist[:, zk].min(axis=1).max()
        record(f"z-covering level {k}", cov < 4 * a0**2 * dk,
               f"worst {cov:.3g} vs {4 * a0**2 * dk:.3g}")

        cubes_k = system.cubes.at(k)
        record(f"cube-partition level {k}",
               cubes_k.min() >= 0 and cubes_k.max() < lev.size)
        member = _membership(cubes_k, lev.size)
        dz = space.dist[zk]
        failed = np.stack([
            ((dz < dk * a0**-5 / 6.0) & ~member).any(axis=1),
            ~(_spreads(dz, member) < 6 * a0**4 * dk),
        ], axis=1)
        # row-major nonzero: ascending alpha, inner before outer
        for alpha, kind in zip(*np.nonzero(failed)):
            record(f"cube-{('inner', 'outer')[kind]}-ball level {k}", False,
                   f"alpha={alpha}")

    for k in range(h.k_coarse, h.k_fine):
        dk = h.scale(k)
        zk = system.z.at(k)
        znext = system.z.at(k + 1)
        par = system.parents.at(k)
        dmat = space.dist[np.ix_(znext, zk)]
        chosen = dmat[np.arange(znext.size), par]
        record(f"omega-parent-distance level {k}", np.all(chosen < 5 * a0**3 * dk),
               f"max {chosen.max():.3g}")
        must = dmat < dk * a0**-3 / 5.0
        rows, cols = np.nonzero(must)
        record(f"close-implies-parent level {k}", np.all(par[rows] == cols))
        if k > h.k_coarse:
            ok_tile = np.array_equal(system.cubes.at(k),
                                     system.parents.at(k)[system.cubes.at(k + 1)])
        else:
            ok_tile = True
        record(f"child-tiling level {k}", ok_tile)

    fine = system.z.at(h.k_fine)
    for k, anc in zip(range(h.k_coarse, h.k_fine + 1), ancestors(h, system.parents)):
        dk = h.scale(k)
        dmat = space.dist[np.ix_(fine, system.z.at(k))]
        desc_d = dmat[np.arange(fine.size), anc]
        record(f"iterated-descendant-distance {h.k_fine}->{k}",
               np.all(desc_d < 6 * a0**4 * dk), f"max {desc_d.max():.3g}")
        rows, cols = np.nonzero(dmat < dk * a0**-4 / 6.0)
        record(f"iterated-close-implies-descendant {h.k_fine}->{k}",
               np.all(anc[rows] == cols))
    return checks


def verify_center_sandwich(space, constants, h, system) -> list[CheckResult]:
    """Reference centers work as cube centers: inner and outer ball margins,
    with the nearest foreign point and the largest spread measured.  The one
    place the centre sandwich is decided."""
    a0 = constants.A0
    checks = []
    for k in range(h.k_coarse, h.k_fine + 1):
        dk = h.scale(k)
        lev = h.level(k)
        member = _membership(system.cubes.at(k), lev.size)
        dx = space.dist[lev]
        spread = _spreads(dx, member)
        worst_outer = max(0.0, float(spread.max()))
        worst_inner = float(np.where(member, math.inf, dx).min())
        failed = np.stack([((dx < dk * a0**-3 / 8.0) & ~member).any(axis=1),
                           spread > 8 * a0**5 * dk], axis=1)
        escapes = [f"inner ball escapes cube alpha {alpha}" if kind == 0
                   else f"cube leaves outer ball alpha {alpha}"
                   for alpha, kind in zip(*np.nonzero(failed))]
        detail = "; ".join([f"nearest-foreign {worst_inner:.3g}, outer "
                            f"{worst_outer:.3g} vs {8 * a0**5 * dk:.3g}"] + escapes)
        checks.append(check_flag(f"centre-sandwich level {k}", detail, not escapes))
    return checks


# ---------------------------------------------------------------------------
# Outcome tables and Monte Carlo
# ---------------------------------------------------------------------------


def _outcome_tables(space: FiniteSpace, constants: SpaceConstants,
                    h: NetHierarchy, order: ReferenceOrder, k: int):
    """The z and parent tables of level k, one row per outcome (ell, m).

    Outcome (ell, m) promotes, in every cell of label1 ell, its child of
    label2 m (the first such child) to the cell's new point z; every other
    cell keeps its centre.  Each promoted (cell, child) pair belongs to one
    outcome, so the z table is the level tiled once per outcome plus one
    scatter, and an outcome differs from the level only in its promoted
    columns:
    - z separation: the level's own pairs, in the outcomes promoting neither
      cell, and one row per promoted point against its outcome's z;
    - the new parent: a child's near new parents are the level's near
      centres with the promoted columns swapped, so the count and the
      position of a unique one are the level's plus integer corrections
      summed over the outcome's promoted columns, exact in floats.
    The first failing outcome raises, its separation before its counts.
    """
    lev = h.level(k)
    nxt = h.level(k + 1)
    dk = h.scale(k)
    L, M = order.L, order.M
    n_out = (L + 1) * M
    parent = order.parents.at(k)
    child = np.argsort(parent, kind="stable")  # grouped by cell, ascending
    cell = parent[child]
    ell = order.label1.at(k)[cell]
    m = order.label2.at(k + 1)[child]
    out = ell * M + m - 1
    keep = np.flatnonzero((ell >= 0) & (ell <= L) & (m >= 1) & (m <= M))
    keep = keep[np.unique(out[keep] * lev.size + cell[keep], return_index=True)[1]]
    cell, child, out = cell[keep], child[keep], out[keep]
    promoted = np.arange(child.size)
    z = np.tile(lev, (n_out, 1))
    z[out, cell] = nxt[child]

    need = dk / (2.0 * constants.A0)
    too_close = space.dist[np.ix_(lev, lev)] < need
    np.fill_diagonal(too_close, False)
    sep_failed = np.zeros(n_out, dtype=bool)
    if too_close.any():
        unmoved = np.ones((n_out, lev.size))
        unmoved[out, cell] = 0.0
        sep_failed = ((unmoved @ too_close) * unmoved).sum(axis=1) > 0.0
    rows = space.dist[nxt[child][:, None], z[out]]
    rows[promoted, cell] = np.inf
    sep_failed[out[(rows < need).any(axis=1)]] = True

    thr = 0.25 * constants.A0**-2 * dk
    near = space.dist[np.ix_(nxt, lev)] < thr
    swap = (space.dist[np.ix_(nxt, nxt[child])] < thr) - near[:, cell].astype(float)
    onehot = np.zeros((n_out, child.size))
    onehot[out, promoted] = 1.0
    counts = (near.sum(axis=1) + onehot @ swap.T).astype(np.int64)
    at = (near @ np.arange(lev.size) + onehot @ (swap * cell).T).astype(np.int64)

    failed = sep_failed | (counts > 1).any(axis=1)
    if failed.any():
        o = int(np.argmax(failed))
        if sep_failed[o]:
            raise GeometryViolation(
                f"new points at level {k} closer than (2A0)^-1 delta^k")
        bad = int(np.argmax(counts[o]))
        raise GeometryViolation(
            f"point {nxt[bad]} has {counts[o, bad]} near new parents at level {k}")
    parents = np.where(counts == 1, at, parent).astype(np.int32)
    return z, parents


class CubeMachine:
    """Per-level enumeration of all (L+1)*M coordinate outcomes.

    The parent relation between levels k+1 and k depends only on the level-k
    coordinate, so every randomized quantity is a composition of per-level
    tables.  Enumerating the outcomes once makes exact transition
    probabilities cheap, and a Monte Carlo run of any size costs its draw
    classes (``draw_classes``): each level splits a class's draws over the
    outcomes by multinomial counts, one per coordinate stream, and never
    draws them one by one.
    """

    def __init__(self, space: FiniteSpace, constants: SpaceConstants,
                 h: NetHierarchy, order: ReferenceOrder):
        self.space = space
        self.constants = constants
        self.h = h
        self.order = order
        self.n_outcomes = (order.L + 1) * order.M
        self.z_tables = {}
        self.parent_tables = {}
        for k in range(h.k_coarse, h.k_fine):
            self.z_tables[k], self.parent_tables[k] = _outcome_tables(
                space, constants, h, order, k)

    def outcome_index(self, ell, m):
        """Table row of the coordinate (ell, m); elementwise on arrays."""
        return ell * self.order.M + (m - 1)

    def sample_outcomes(self, seed: int, nsamples: int, k: int) -> np.ndarray:
        """Table rows of level k for a batch of draws taken one by one, built
        in place from the two 0-based coordinate draws (``_level_draws``):
        ell * M, plus m - 1.  Equal to ``outcome_index`` of the 1-based
        coordinates.  The Monte Carlo readers split classes of draws
        instead (``draw_classes``)."""
        if nsamples < 1:
            raise ValueError("nsamples must be >= 1")
        self.order.parents.at(k)  # KeyError naming the range
        rows, m0 = _level_draws(self.order, seed, k - self.h.k_coarse, nsamples)
        rows *= self.order.M
        rows += m0
        return rows

    def system(self, omega: OmegaSample) -> RandomizedSystem:
        """The sampled system of one omega draw, read off the outcome tables."""
        z = []
        parents = []
        for k in range(self.h.k_coarse, self.h.k_fine):
            idx = self.outcome_index(*omega.coord(k))
            z.append(self.z_tables[k][idx])
            parents.append(self.parent_tables[k][idx])
        z.append(self.h.level(self.h.k_fine).copy())
        k0 = self.h.k_coarse
        return RandomizedSystem(omega=omega, z=Levels(k0, tuple(z)),
                                parents=Levels(k0, tuple(parents)),
                                cubes=ancestors(self.h, parents))

    def draw_classes(self, seed: int, nsamples: int, k: int):
        """Walk a batch of ``nsamples`` draws once, from level k_fine down to
        level k, splitting each class's draws over the level's outcomes as
        it is reached (``_level_split``).

        Yields ``(level, anc, counts)``, finest level first.  Draws whose
        outcomes at levels ``level`` .. k_fine - 1 compose to the same
        ancestor map form one class: the rows ``anc[c]`` are distinct maps,
        each holding the level-``level`` ancestor of every point under class
        c, and ``counts[c]`` is its number of draws.  Two draws with one map
        at a level share it at every coarser level, so there are at most as
        many classes as outcome histories.  The yielded arrays are never
        written again, so a caller may keep them.

        Per level, the split gives each class's draws per outcome: two
        multinomial draws, one per coordinate stream, with the law of the
        draws taken one by one.  Over the (class, outcome) pairs that occur,
        in row-major order: one table gather, equal rows merged in
        first-seen order, and the class counts summed from the split.  The
        cost is levels x classes x outcomes, whatever ``nsamples``.
        """
        _check_nsamples(nsamples)
        h = self.h
        h.level(k)  # KeyError naming the range unless k is a level
        n = h.level(h.k_fine).size
        anc = np.arange(n, dtype=np.int32)[None, :]
        counts = np.array([nsamples], dtype=np.int64)
        yield h.k_fine, anc, counts
        for kk in range(h.k_fine - 1, k - 1, -1):
            split = _level_split(self.order, seed, kk - h.k_coarse, counts)
            prev, out = np.nonzero(split)
            rows = self.parent_tables[kk][out[:, None], anc[prev]]
            first = {}
            merged = np.array([first.setdefault(row.tobytes(), len(first))
                               for row in rows], dtype=np.intp)
            counts = np.zeros(len(first), dtype=np.int64)
            np.add.at(counts, merged, split[prev, out])
            anc = rows[np.unique(merged, return_index=True)[1]]
            yield kk, anc, counts

    def _classes_down_to(self, seed: int, nsamples: int, k: int):
        for _, anc, counts in self.draw_classes(seed, nsamples, k):
            pass
        return anc, counts

    def ancestors_batch(self, seed: int, nsamples: int, k: int) -> np.ndarray:
        """Level-k ancestor positions of every point, one row per draw in
        class order: ``draw_classes``'s distinct level-k maps, each repeated
        by its count."""
        anc, counts = self._classes_down_to(seed, nsamples, k)
        return np.repeat(anc, counts, axis=0)


@dataclass(frozen=True)
class BoundaryEstimate:
    eps: float
    estimate: float
    stderr: float
    theory_bound: float
    nsamples: int


def theoretical_eta(order: ReferenceOrder, delta: float) -> float:
    """Boundary-layer exponent log(1 - tau) / log(delta), tau = 1/((L+1) M).

    Returns infinity when tau = 1 (boundary event impossible after one level).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    tau = 1.0 / ((order.L + 1) * order.M)
    if tau >= 1.0:
        return math.inf
    return math.log1p(-tau) / math.log(delta)


def boundary_theory_bound(constants: SpaceConstants, eta: float, eps: float) -> float:
    """(7 A0^6 eps)^eta, capped at 1 and handling the degenerate eta."""
    base = 7.0 * constants.A0**6 * eps
    if math.isinf(eta):
        return 0.0 if base < 1.0 else 1.0
    return min(1.0, base**eta)


def boundary_layer_probability(machine: CubeMachine, x: int, k: int, eps: float,
                               nsamples: int, seed: int) -> BoundaryEstimate:
    """Monte Carlo frequency of x landing in an eps-boundary layer at level k.

    The hit is decided once per draw class (``CubeMachine.draw_classes``),
    and the frequency counts the draws of the classes that hit.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 <= x < machine.space.n:
        raise ValueError(f"x={x} outside 0..{machine.space.n - 1}")
    anc, counts = machine._classes_down_to(seed, nsamples, k)
    member = anc == anc[:, x][:, None]
    dx = machine.space.dist[x]
    masked = np.where(member, math.inf, dx[None, :])
    dist_to_complement = masked.min(axis=1)
    hits = dist_to_complement < eps * machine.h.scale(k)
    p = float(counts[hits].sum() / nsamples)
    stderr = math.sqrt(p * (1.0 - p) / nsamples)
    eta = theoretical_eta(machine.order, machine.h.delta)
    bound = boundary_theory_bound(machine.constants, eta, eps)
    return BoundaryEstimate(eps=float(eps), estimate=p, stderr=stderr,
                            theory_bound=bound, nsamples=nsamples)


def save_system(system: RandomizedSystem, path) -> None:
    write_json(path, {
        "k_coarse": system.z.k_coarse,
        "k_fine": system.z.k_fine,
        "seed": system.omega.seed,
        "ell": system.omega.ell.tolist(),
        "m": system.omega.m.tolist(),
        "z": [z.tolist() for z in system.z],
        "parents": [p.tolist() for p in system.parents],
        "cubes": [c.tolist() for c in system.cubes],
    })
