"""Finite quasi-metric measure spaces and their structural constants.

A space is a finite point set with an explicit symmetric quasi-distance
matrix and strictly positive point masses.  Balls are always open:
B(x, r) = {y : d(x, y) < r}.
"""
from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from pathlib import Path

import numpy as np

from .report import write_json

__all__ = [
    "BallTable",
    "FiniteSpace",
    "SpaceConstants",
    "ValidationError",
    "canonical_radii",
    "minplus",
    "compute_constants",
    "generate_space",
    "resolve_space",
    "load_space",
    "save_space",
    "FIXTURES",
]


class ValidationError(ValueError):
    """A space (or space file) violates a structural invariant."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BallTable:
    """Every ball of a space, centre by centre.

    ``order[x]`` lists the points by distance from x (ties by index),
    ``dist[x]`` holds their distances from x in that ascending order and
    ``mass[x, k]`` the weight of the k points nearest x, summed in that order
    from ``mass[x, 0] = 0``.  B(x, r) holds the ``size(x, r)`` points nearest
    x, ``order[x, :size(x, r)]``, so mu(B(x, r)) = ``mass[x, size(x, r)]``,
    which never decreases in r.
    """

    dist: np.ndarray
    mass: np.ndarray
    order: np.ndarray

    def size(self, x: int, r):
        """Number of points of B(x, r), for one radius or an array of them."""
        return np.searchsorted(self.dist[x], r, side="left")

    def sizes(self, xs: np.ndarray, r: np.ndarray) -> np.ndarray:
        """|B(xs[i], r[i])| for every i: ``size`` pair by pair.  Each run of
        equal centres in ``xs`` takes one ``searchsorted`` into its row, so
        pairs grouped by centre, as ``ball_ends`` lists them, cost one
        search per centre."""
        out = np.empty(xs.size, dtype=np.intp)
        cuts = (np.flatnonzero(np.diff(xs)) + 1).tolist()
        starts = [0, *cuts][:xs.size]
        for x, lo, hi in zip(xs[starts].tolist(), starts, [*cuts, xs.size]):
            out[lo:hi] = self.dist[x].searchsorted(r[lo:hi])
        return out

    def ball_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Every distinct ball as (centre x, position of its last point in
        ``order[x]``), centre by centre and ascending within a centre: a ball
        ends where the sorted distances jump, and the last holds every point.
        The ball ending at ``last`` has ``last + 1`` points."""
        ends = np.ones(self.dist.shape, dtype=bool)
        ends[:, :-1] = self.dist[:, 1:] != self.dist[:, :-1]
        return np.nonzero(ends)


@dataclass(frozen=True)
class FiniteSpace:
    """Point set with quasi-distance matrix and positive measure weights."""

    dist: np.ndarray
    weights: np.ndarray
    name: str = ""

    def __post_init__(self):
        dist = np.asarray(self.dist, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValidationError("distance matrix must be square")
        n = dist.shape[0]
        if n < 1:
            raise ValidationError("space needs at least one point")
        if weights.shape != (n,):
            raise ValidationError("weights length must match point count")
        if not np.all(np.isfinite(dist)):
            raise ValidationError("distances must be finite")
        if np.any(dist < 0):
            i, j = np.argwhere(dist < 0)[0]
            raise ValidationError(f"negative distance at ({i},{j})")
        asym = np.argwhere(dist != dist.T)
        if asym.size:
            i, j = asym[0]
            raise ValidationError(f"asymmetric distances at ({i},{j})")
        if np.any(np.diag(dist) != 0.0):
            i = int(np.argwhere(np.diag(dist) != 0.0)[0])
            raise ValidationError(f"nonzero self-distance at index {i}")
        off = dist + np.eye(n)
        zeros = np.argwhere(off == 0.0)
        if zeros.size:
            i, j = zeros[0]
            raise ValidationError(f"distinct points at distance zero: ({i},{j})")
        bad_w = np.flatnonzero(~(weights > 0))
        if bad_w.size:
            raise ValidationError(f"weight must be positive at index {bad_w[0]}")
        bad_w = np.flatnonzero(~np.isfinite(weights))
        if bad_w.size:
            raise ValidationError(f"weight must be finite at index {bad_w[0]}")
        object.__setattr__(self, "dist", _freeze(dist))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diam(self) -> float:
        return float(self.dist.max())

    @property
    def min_sep(self) -> float:
        if self.n == 1:
            return math.inf
        n = self.n
        off = self.dist[~np.eye(n, dtype=bool)]
        return float(off.min())

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def ball(self, x: int, r: float) -> np.ndarray:
        """Open ball: ids y with dist(x, y) < r."""
        if r <= 0:
            raise ValueError("ball radius must be positive")
        return np.nonzero(self.dist[x] < r)[0]

    @cached_property
    def balls(self) -> BallTable:
        """The ball table, from one stable sort of each row of ``dist``."""
        order = np.argsort(self.dist, axis=1, kind="stable")
        mass = np.zeros((self.n, self.n + 1))
        np.cumsum(self.weights[order], axis=1, out=mass[:, 1:])
        return BallTable(dist=_freeze(np.take_along_axis(self.dist, order, axis=1)),
                         mass=_freeze(mass), order=_freeze(order))

    def volume(self, x: int, r: float) -> float:
        if r <= 0:
            raise ValueError("ball radius must be positive")
        return float(self.balls.mass[x, self.balls.size(x, r)])

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """Weighted inner product <f, g> = sum f(x) g(x) mu({x})."""
        return float(np.dot(np.asarray(f) * self.weights, np.asarray(g)))

    def norm(self, f: np.ndarray) -> float:
        return math.sqrt(max(self.inner(f, f), 0.0))

    def gram(self, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """All pairwise weighted inner products of rows of F against rows of G."""
        return np.asarray(F) @ (np.asarray(G) * self.weights).T

    def mean(self, f: np.ndarray) -> float:
        return self.inner(f, np.ones(self.n)) / self.total_mass


def canonical_radii(space: FiniteSpace) -> np.ndarray:
    """Sorted distinct positive distances plus one value beyond the diameter.

    Every ball B(x, r), r > 0, equals B(x, r') for some canonical r', so all
    ball-indexed suprema can be scanned over this finite set.
    """
    pos = np.unique(space.dist)
    pos = pos[pos > 0]
    beyond = (float(pos[-1]) if pos.size else 0.0) + 1.0
    return np.append(pos, beyond)


# ---------------------------------------------------------------------------
# Structural constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceConstants:
    """Quasi-triangle constant and lazily the doubling constants."""

    A0: float
    a0_witness: tuple[int, int, int] | None
    _space: FiniteSpace = field(repr=False, compare=False)
    _cmu_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def cmu(self, t: float) -> float:
        """Exact sup over balls of mu(B(x, t r)) / mu(B(x, r)), t >= 1.

        Read at each centre's distinct distances, up to the first whose
        t-fold ball holds every point, with the t-fold ball sizes from one
        ``BallTable.sizes`` search per centre; cached per t.
        """
        if t < 1:
            raise ValueError("expansion factor must be >= 1")
        key = float(t)
        if key not in self._cmu_cache:
            self._cmu_cache[key] = _cmu_exact(self._space, key)
        return self._cmu_cache[key]

    @cached_property
    def n_geo_lower_bound(self) -> int:
        """Greedy packing count, a lower bound for the geometric doubling N_geo.

        The construction never reads N_geo; only ``hwave space`` reports it.
        """
        return _greedy_doubling(self._space)


def minplus(A: np.ndarray) -> np.ndarray:
    """Min-plus square of a symmetric matrix: out[i, j] = min over k of
    A[i, k] + A[k, j].

    The square is symmetric, so it is taken over the upper triangle only.
    Row i adds A[i] to each row j >= i and reduces along that contiguous row:
    A[i, k] + A[j, k] is the sum A[i, k] + A[k, j], and min is exact, so the
    bits are the full product's.  The lower triangle is the mirror.
    """
    if not np.array_equal(A, A.T):
        raise ValueError("minplus squares a symmetric matrix only")
    n = A.shape[0]
    upper = np.full_like(A, np.inf)
    buf = np.empty_like(A)
    for i in range(n):
        rows = buf[:n - i]
        np.add(A[i], A[i:], out=rows)
        np.minimum.reduce(rows, axis=1, out=upper[i, i:])
    return np.minimum(upper, upper.T, out=buf)


def _quasi_triangle_constant(space: FiniteSpace):
    if space.n < 3:
        return 1.0, None
    d = space.dist
    # +inf on the diagonal keeps z off x and y: detour[x, y] is the shortest
    # two-step route x -> z -> y through a third point
    off = d.copy()
    np.fill_diagonal(off, np.inf)
    detour = minplus(off)
    ratios = d / detour
    x, y = np.unravel_index(np.argmax(ratios), ratios.shape)
    best = float(ratios[x, y])
    if best <= 1.0:
        return 1.0, None
    z = int(np.argmin(off[x] + off[:, y]))
    return best, (int(x), int(y), z)


def _cmu_exact(space: FiniteSpace, t: float) -> float:
    # Between consecutive distances from x, mu(B(x, r)) is constant and
    # mu(B(x, tr)) grows with r, so the sup over r > 0 is attained at a
    # distance from x (beyond the farthest point the ratio is 1).  Equal
    # distances give equal ratios, so only each distinct one is read: where
    # the sorted row steps up at position j, B(x, r) holds the j points
    # before it.  Once t r passes the farthest point, mu(B(x, t r)) is all
    # of mu(X) and the ratio only falls, so a radius is read only if the one
    # before it fell short of the farthest point.
    tab = space.balls
    radii = tab.dist[:, 1:]
    read = radii != tab.dist[:, :-1]
    read[:, 1:] &= t * radii[:, :-1] <= tab.dist[:, -1:]
    xs = np.repeat(np.arange(space.n), read.sum(axis=1))
    vol = tab.mass[:, 1:-1][read]
    inner = tab.sizes(xs, t * radii[read])
    vol_t = tab.mass.ravel()[xs * (space.n + 1) + inner]
    return float((vol_t / vol).max(initial=1.0))


def _greedy_packing(conflict: np.ndarray) -> int:
    available = np.ones(conflict.shape[0], dtype=bool)
    count = 0
    while True:
        idx = np.argmax(available)
        if not available[idx]:
            break
        count += 1
        available &= ~conflict[idx]
        available[idx] = False
    return count


def _greedy_doubling(space: FiniteSpace) -> int:
    """Greedy packings of every ball by points pairwise farther than half its
    smallest radius, largest count.

    B(x, r) is also the ball of every radius just above its largest member
    distance d, so its packings are the sets pairwise farther than d / 2.
    """
    tab = space.balls
    best = 1
    for x, last in zip(*tab.ball_ends()):
        # a ball of at most ``best`` points cannot beat it
        if last < best:
            continue
        members = np.sort(tab.order[x, :last + 1])
        conflict = space.dist[np.ix_(members, members)] <= tab.dist[x, last] / 2.0
        np.fill_diagonal(conflict, False)
        best = max(best, _greedy_packing(conflict))
    return best


def compute_constants(space: FiniteSpace) -> SpaceConstants:
    """Exact A0 (max over ordered triples) and its witness.

    A0 is the largest d(x, y) / (d(x, z) + d(z, y)) over distinct x, y, z,
    read off one symmetric min-plus square taken over its upper triangle.
    ``a0_witness`` is (x, y, z) for the first largest ratio in row-major
    order, which has x < y because the ratios are symmetric, and the first
    z of least detour.
    """
    a0, witness = _quasi_triangle_constant(space)
    return SpaceConstants(A0=a0, a0_witness=witness, _space=space)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

FIXTURES = {
    "FIX-A": "line(4, weights=counting)",
    "FIX-B": "cycle(16, weights=uniform)",
}


def _from_coords_1d(coords: np.ndarray, power: float = 1.0) -> np.ndarray:
    diff = np.abs(coords[:, None] - coords[None, :])
    return diff**power


def _euclidean(pts: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``pts``, symmetric with a zero
    diagonal."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def _gen_line(n: int, scale: float = 1.0) -> np.ndarray:
    if n < 1:
        raise ValidationError("line needs n >= 1")
    return _from_coords_1d(np.arange(n, dtype=float)) * scale


def _gen_cycle(n: int, scale: float = None) -> np.ndarray:
    if n < 1:
        raise ValidationError("cycle needs n >= 1")
    if scale is None:
        scale = 1.0 / n
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(diff, n - diff).astype(float) * scale


def _gen_grid(m: int, dim: int, metric: str = "linf") -> np.ndarray:
    if m < 1 or dim < 1:
        raise ValidationError("grid needs m >= 1 and dim >= 1")
    axes = [np.arange(m, dtype=float)] * dim
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    if metric == "linf":
        # one coordinate at a time: no (n, n, dim) array of differences,
        # and max is exact, so the same distances as a reduction over it
        return reduce(np.maximum, (np.abs(pts[:, None, j] - pts[None, :, j])
                                   for j in range(dim)))
    if metric == "l2":
        return _euclidean(pts)
    raise ValidationError(f"unknown grid metric {metric!r}")


def _gen_power_line(n: int, r: float) -> np.ndarray:
    if n < 1:
        raise ValidationError("power_line needs n >= 1")
    if r < 1:
        raise ValidationError("power_line exponent must satisfy r >= 1")
    return _from_coords_1d(np.arange(n, dtype=float), power=r)


def _gen_two_cluster(n: int, gap: float) -> np.ndarray:
    if n < 2:
        raise ValidationError("two_cluster needs n >= 2")
    if gap <= 0:
        raise ValidationError("two_cluster gap must be positive")
    h = (n + 1) // 2
    if gap <= h - 1:
        raise ValidationError(
            f"two_cluster gap {gap:g} must exceed the first cluster's width {h - 1}")
    return _from_coords_1d(np.concatenate([np.arange(h, dtype=float),
                                           gap + np.arange(n - h, dtype=float)]))


def _gen_tree(depth: int) -> np.ndarray:
    """Complete binary tree of the given depth with shortest-path edge metric."""
    if depth < 0:
        raise ValidationError("tree depth must be >= 0")
    # node i has the 1-based heap label i + 1: its parent's label is the label
    # halved and its depth the label's bit length less one.  Halving the
    # deeper label of a pair to the other's depth leaves two labels whose
    # common leading bits are the label of their lowest common ancestor
    label = np.arange(1, 2 ** (depth + 1))
    level = np.frexp(label)[1] - 1
    up = np.minimum(level[:, None], level[None, :])
    a = label[:, None] >> (level[:, None] - up)
    b = label[None, :] >> (level[None, :] - up)
    return level[:, None] + level[None, :] - 2 * (up - np.frexp(a ^ b)[1])


def _gen_random_cloud(n: int, dim: int, seed: int) -> np.ndarray:
    if n < 1 or dim < 1:
        raise ValidationError("random_cloud needs n >= 1 and dim >= 1")
    if seed < 0:
        raise ValidationError(f"random_cloud seed must be non-negative, got {seed}")
    return _euclidean(np.random.default_rng(seed).uniform(size=(n, dim)))


_GENERATORS = {
    "line": _gen_line,
    "cycle": _gen_cycle,
    "grid": _gen_grid,
    "power_line": _gen_power_line,
    "two_cluster": _gen_two_cluster,
    "tree": _gen_tree,
    "random_cloud": _gen_random_cloud,
}


def _parse_value(text: str):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _weights_for(generator: str, rule, n: int) -> np.ndarray:
    if rule == "counting":
        return np.ones(n)
    if rule == "uniform":
        return np.full(n, 1.0 / n)
    raise ValidationError(
        f"{generator} weights must be counting or uniform, got {rule!r}")


def generate_space(descriptor: str) -> FiniteSpace:
    """Build a space from a descriptor such as ``cycle(16, weights=uniform)``:
    the generator's distances, the weight rule's masses, and as name the
    generator with its arguments that have no default (ints by ``str``, the
    others by ``format(v, "g")``)."""
    descriptor = descriptor.strip()
    if "(" not in descriptor or not descriptor.endswith(")"):
        raise ValidationError(f"malformed generator descriptor {descriptor!r}")
    name, _, rest = descriptor.partition("(")
    name = name.strip()
    if name not in _GENERATORS:
        raise ValidationError(f"unknown generator {name!r}")
    args, kwargs = [], {}
    body = rest[:-1].strip()
    if body:
        for part in body.split(","):
            if "=" in part:
                key, _, val = part.partition("=")
                kwargs[key.strip()] = _parse_value(val)
            else:
                args.append(_parse_value(part))
    rule = kwargs.pop("weights", "counting")
    generator = _GENERATORS[name]
    params = inspect.signature(generator).parameters
    bound = inspect.signature(generator).bind(*args, **kwargs).arguments
    # counts and seeds (the ``int`` parameters) take integers only, so that
    # grid(2.5,2) or random_cloud(20,2,1.5) names no other space; the
    # ``float`` ones take numbers, so that no text reaches numpy
    for arg, value in bound.items():
        kind = params[arg].annotation
        if kind == "int" and type(value) is not int:
            raise ValidationError(f"{name} {arg} must be an integer, got {value!r}")
        if kind == "float" and type(value) not in (int, float):
            raise ValidationError(f"{name} {arg} must be a number, got {value!r}")
    dist = generator(*args, **kwargs)
    label = ",".join(str(bound[arg]) if param.annotation == "int"
                     else format(bound[arg], "g")
                     for arg, param in params.items()
                     if param.default is inspect.Parameter.empty)
    return FiniteSpace(dist=dist, weights=_weights_for(name, rule, dist.shape[0]),
                       name=f"{name}({label})")


def resolve_space(text: str) -> FiniteSpace:
    """Fixture name, generator descriptor, or path to a space file."""
    if text in FIXTURES:
        return generate_space(FIXTURES[text])
    if "(" in text:
        return generate_space(text)
    path = Path(text)
    if path.exists():
        return load_space(path)
    raise ValidationError(f"cannot resolve space {text!r}")


# ---------------------------------------------------------------------------
# Space files
# ---------------------------------------------------------------------------


def load_space(path) -> FiniteSpace:
    """Read and validate a space file (see save_space for the layout)."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"space file parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("space file must hold a single object")
    metric = data.get("metric", "explicit")
    scale = float(data.get("scale", 1.0))
    n = data.get("n")
    if metric == "explicit":
        if "distances" not in data:
            raise ValidationError("explicit metric requires a distances matrix")
        dist = np.asarray(data["distances"], dtype=float) * scale
    elif metric == "euclidean":
        if "coords" not in data:
            raise ValidationError("euclidean metric requires coords")
        coords = np.asarray(data["coords"], dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        dist = _euclidean(coords) * scale
    elif metric == "power":
        if "coords" not in data or "r" not in data:
            raise ValidationError("power metric requires coords and r")
        coords = np.asarray(data["coords"], dtype=float).reshape(-1)
        dist = _from_coords_1d(coords, power=float(data["r"])) * scale
    else:
        raise ValidationError(f"unknown metric kind {metric!r}")
    if n is not None and dist.shape != (n, n):
        raise ValidationError(f"space file has n = {n}, its {metric} "
                              f"distances have shape {dist.shape}")
    weights = data.get("weights")
    if weights is None:
        weights = np.ones(dist.shape[0])
    return FiniteSpace(dist=dist, weights=np.asarray(weights, dtype=float),
                       name=str(data.get("name", "")))


def save_space(space: FiniteSpace, path) -> None:
    write_json(path, {
        "n": space.n,
        "metric": "explicit",
        "distances": space.dist,
        "weights": space.weights,
        "scale": 1.0,
        "name": space.name,
    })
