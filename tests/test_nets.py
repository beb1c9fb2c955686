import json
import re
from functools import partial

import numpy as np
import pytest

from hwave.nets import (GeometryViolation, Levels, NetError, NetHierarchy,
                        ancestors, build_nets, build_reference_order,
                        load_nets, save_nets, verify_nets)
from hwave.pipeline import build_bundle
from hwave.randomized import sample_omega
from hwave.space import FIXTURES, FiniteSpace, compute_constants, generate_space
from hwave.splines import compute_splines_mc, transition_probabilities

from helpers import children


def test_fix_a_hierarchy(bundle_a):
    h = bundle_a.hierarchy
    assert (h.k_coarse, h.k_fine) == (-1, 0)
    assert h.level(-1).tolist() == [0]
    assert h.level(0).tolist() == [0, 1, 2, 3]


def test_fix_b_hierarchy(bundle_b):
    h = bundle_b.hierarchy
    assert (h.k_coarse, h.k_fine) == (0, 2)
    assert h.level(0).tolist() == [0]
    assert h.level(1).tolist() == [0, 4, 8, 12]
    assert h.level(2).tolist() == list(range(16))
    assert h.wavelet_centers(0).tolist() == [4, 8, 12]
    assert h.wavelet_centers(1).size == 12


def test_single_point_hierarchy():
    sp = FiniteSpace(dist=np.zeros((1, 1)), weights=np.ones(1))
    c = compute_constants(sp)
    h = build_nets(sp, c, 0.25)
    assert (h.k_coarse, h.k_fine) == (0, 0)
    assert h.level(0).tolist() == [0]


def test_delta_validation(fix_a, constants_a):
    with pytest.raises(NetError):
        build_nets(fix_a, constants_a, 1.5)
    with pytest.raises(NetError):
        build_nets(fix_a, constants_a, 0.25, mode="weird")


def test_strict_mode_threshold(fix_a, constants_a):
    with pytest.raises(NetError, match="strict mode requires"):
        build_nets(fix_a, constants_a, 0.25, mode="strict")
    h = build_nets(fix_a, constants_a, 1e-4, mode="strict")
    assert h.level(h.k_fine).size == 4


def test_verify_nets_fix_b_margins(fix_b, constants_b, bundle_b):
    checks = verify_nets(fix_b, constants_b, bundle_b.hierarchy)
    assert all(c.passed for c in checks)
    # worst covering radius at level 1, via the raw distance matrix
    worst = fix_b.dist[:, [0, 4, 8, 12]].min(axis=1).max()
    assert worst == 2 / 16
    cov = next(c for c in checks if c.name == "net-covering level 1")
    assert cov.detail == f"worst distance to net {worst:.4g}"
    assert cov.tolerance == 2 * constants_b.A0 * 0.25
    assert cov.margin == cov.tolerance - worst > 0


def test_verify_nets_catches_missing_point(fix_b, constants_b, bundle_b):
    h = bundle_b.hierarchy
    broken = NetHierarchy(delta=h.delta, levels=Levels(
        h.k_coarse, (h.level(0), h.level(1), h.level(2)[:-1])))
    failed = [c for c in verify_nets(fix_b, constants_b, broken) if not c.passed]
    assert failed
    assert any("covering" in c.name or "finest" in c.detail for c in failed)


def test_covering_at_the_bound_fails():
    # z, y2, y1, x: x hangs off y1, y1 off y2, y2 off the root z.  The
    # triangle (x, y1, z) attains A0 = 64 / (1 + 15) = 4, so the root covers
    # x at exactly 2 A0 delta^-3 = 64.
    dist = np.array([[0, 7, 15, 64], [7, 0, 3, 12], [15, 3, 0, 1],
                     [64, 12, 1, 0]], dtype=float)
    sp = FiniteSpace(dist=dist, weights=np.ones(4))
    c = compute_constants(sp)
    assert c.A0 == 4.0
    h = NetHierarchy(delta=0.5, levels=Levels(
        -3, tuple(np.arange(m) for m in (1, 2, 3, 4))))
    failed = [r for r in verify_nets(sp, c, h) if not r.passed]
    assert [r.name for r in failed] == ["net-covering level -3"]
    assert failed[0].tolerance == 64.0 and failed[0].margin == 0.0
    with pytest.raises(GeometryViolation,
                       match=r"\[FAIL\] net-covering level -3: worst distance "
                             r"to net 64 \(tolerance 64, margin 0\)"):
        build_nets(sp, c, 0.5)


def test_verify_nets_single_point_vacuous():
    sp = FiniteSpace(dist=np.zeros((1, 1)), weights=np.ones(1))
    c = compute_constants(sp)
    assert all(r.passed for r in verify_nets(sp, c, build_nets(sp, c, 0.25)))


def test_fix_a_reference_order(bundle_a):
    order = bundle_a.order
    assert order.parents.at(-1).tolist() == [0, 0, 0, 0]
    assert order.M == 4
    assert order.L == 0
    kids = children(order, -1)[0]
    assert bundle_a.hierarchy.level(0)[kids].tolist() == [0, 1, 2, 3]
    assert order.label2.at(0).tolist() == [1, 2, 3, 4]


def test_fix_b_reference_order(bundle_b):
    h, order = bundle_b.hierarchy, bundle_b.order
    # all four level-1 points descend from the single root
    assert order.parents.at(0).tolist() == [0, 0, 0, 0]
    # nearest-parent with lowest-id tie-break: point 2 is equidistant from
    # centers 0 and 4 and goes to 0
    lev2 = h.level(2)
    parent_of_2 = order.parents.at(1)[np.where(lev2 == 2)[0][0]]
    assert h.level(1)[parent_of_2] == 0
    blocks = [h.level(2)[c].tolist() for c in children(order, 1)]
    assert blocks == [[0, 1, 2, 14, 15], [3, 4, 5, 6], [7, 8, 9, 10], [11, 12, 13]]
    assert (order.L, order.M) == (2, 5)


def test_self_parenting(bundle_b):
    h, order = bundle_b.hierarchy, bundle_b.order
    for k in range(h.k_coarse, h.k_fine):
        lev, nxt = h.level(k), h.level(k + 1)
        for alpha, point in enumerate(lev):
            pos = np.where(nxt == point)[0][0]
            assert order.parents.at(k)[pos] == alpha


def test_labels_distinguish(bundle_b):
    h, order = bundle_b.hierarchy, bundle_b.order
    for k in range(h.k_coarse, h.k_fine):
        lab1 = order.label1.at(k)
        assert lab1.max() <= order.L
        for alpha, nbrs in enumerate(order.neighbours.at(k)):
            assert all(lab1[b] != lab1[alpha] for b in nbrs)
        lab2 = order.label2.at(k + 1)
        for kids in children(order, k):
            vals = lab2[kids]
            assert len(set(vals.tolist())) == kids.size
            assert vals.min() >= 1 and vals.max() <= order.M


def test_neighbour_distance_bound(bundle_b):
    h, order = bundle_b.hierarchy, bundle_b.order
    a0 = bundle_b.constants.A0
    for k in range(h.k_coarse, h.k_fine):
        lev = h.level(k)
        for alpha, nbrs in enumerate(order.neighbours.at(k)):
            for b in nbrs:
                assert bundle_b.space.dist[lev[alpha], lev[b]] < 5 * a0**3 * h.scale(k)


def test_descendant_chains_total(bundle_b):
    h, order = bundle_b.hierarchy, bundle_b.order
    anc = ancestors(h, order.parents)
    assert len(anc) == h.num_levels
    for k in range(h.k_coarse, h.k_fine + 1):
        cells = anc.at(k)
        assert cells.shape == (16,)
        assert cells.min() >= 0
        assert cells.max() < h.level(k).size
    assert np.all(anc.at(h.k_coarse) == 0)


# Every per-level lookup of a bundle and of one sampled system, with its
# first and last level as offsets from k_coarse and from k_fine: a parent
# map, a transition and a coordinate belong to the coarser level of their
# pair, the sibling labels to the finer one.
PER_LEVEL = {
    "levels": (lambda b, s: b.hierarchy.level, 0, 0),
    "parents": (lambda b, s: b.order.parents.at, 0, -1),
    "neighbours": (lambda b, s: b.order.neighbours.at, 0, -1),
    "label1": (lambda b, s: b.order.label1.at, 0, -1),
    "label2": (lambda b, s: b.order.label2.at, 1, 0),
    "ancestors": (lambda b, s: ancestors(b.hierarchy, b.order.parents).at, 0, 0),
    "coord": (lambda b, s: s.omega.coord, 0, -1),
    "z": (lambda b, s: s.z.at, 0, 0),
    "system-parents": (lambda b, s: s.parents.at, 0, -1),
    "cubes": (lambda b, s: s.cubes.at, 0, 0),
    "transitions": (lambda b, s: b.transitions.at, 0, -1),
    "transition_probabilities": (
        lambda b, s: partial(transition_probabilities, b.machine), 0, -1),
    "splines": (lambda b, s: b.splines.at, 0, 0),
    "splines-mc": (lambda b, s: compute_splines_mc(b.machine, 10, 1)[0].at, 0, 0),
    "gramsys": (lambda b, s: b.gramsys.at, 0, 0),
}


@pytest.fixture(scope="module", params=[(FIXTURES["FIX-B"], 0.25),
                                        ("cycle(16, scale=1)", 0.2)],
                ids=["FIX-B", "cycle(16, scale=1)"])
def bundle_and_system(request):
    descriptor, delta = request.param
    b = build_bundle(generate_space(descriptor), delta)
    return b, b.machine.system(sample_omega(b.order, 1))


@pytest.mark.parametrize("field", PER_LEVEL)
def test_per_level_fields_refuse_levels_outside_their_range(bundle_and_system,
                                                            field):
    b, system = bundle_and_system
    get, first, last = PER_LEVEL[field]
    lookup = get(b, system)
    first += b.hierarchy.k_coarse
    last += b.hierarchy.k_fine
    assert first < last
    lookup(first), lookup(last)
    for k in (first - 1, last + 1):
        with pytest.raises(KeyError, match=re.escape(
                f"level {k} outside [{first}, {last}]")):
            lookup(k)
    assert not hasattr(Levels, "__getitem__")  # a position is never a level


def test_rebuild_determinism(fix_b, constants_b):
    h1 = build_nets(fix_b, constants_b, 0.25)
    h2 = build_nets(fix_b, constants_b, 0.25)
    assert all(np.array_equal(a, b) for a, b in zip(h1.levels, h2.levels))
    o1 = build_reference_order(fix_b, constants_b, h1)
    o2 = build_reference_order(fix_b, constants_b, h2)
    assert all(np.array_equal(a, b) for a, b in zip(o1.parents, o2.parents))
    assert all(np.array_equal(a, b) for a, b in zip(o1.label1, o2.label1))


def test_net_file_roundtrip(tmp_path, bundle_b):
    path = tmp_path / "nets.json"
    save_nets(bundle_b.hierarchy, bundle_b.order, path)
    first = path.read_bytes()
    h, order = load_nets(path, bundle_b.space, bundle_b.constants,
                         0.25, "relaxed")
    save_nets(h, order, path)
    assert path.read_bytes() == first
    assert h.k_coarse == bundle_b.hierarchy.k_coarse
    assert order.L == bundle_b.order.L
    assert all(np.array_equal(a, b)
               for a, b in zip(order.parents, bundle_b.order.parents))


def _corrupt_label1_range(data):
    data["label1"][1][2] = data["L"] + 1
    return "label1 at level 1"


def _corrupt_label1_negative(data):
    data["label1"][0][0] = -1
    return "label1 at level 0"


def _corrupt_label2_zero(data):
    data["label2"][0][1] = 0
    return "label2 at level 1"


def _corrupt_label2_range(data):
    data["label2"][1][-1] = data["M"] + 1
    return "label2 at level 2"


def _corrupt_label2_siblings(data):
    # positions 0 and 1 of level 2 share their parent
    data["label2"][1][1] = data["label2"][1][0]
    return "label2 at level 2 is [1, 1, 3,"


def _corrupt_label1_length(data):
    data["label1"][1].pop()
    return "label1 at level 1"


def _corrupt_label2_length(data):
    data["label2"][0].append(1)
    return "label2 at level 1"


def _corrupt_label_count(data):
    data["label2"].pop()
    return "label2 at level 2 is missing"


@pytest.mark.parametrize("corrupt", [
    _corrupt_label1_range, _corrupt_label1_negative, _corrupt_label2_zero,
    _corrupt_label2_range, _corrupt_label2_siblings, _corrupt_label1_length,
    _corrupt_label2_length, _corrupt_label_count])
def test_net_file_labels_are_checked(tmp_path, bundle_b, corrupt):
    path = tmp_path / "nets.json"
    save_nets(bundle_b.hierarchy, bundle_b.order, path)
    data = json.loads(path.read_text())
    assert data["parents"][1][:2] == [0, 0]
    expected = corrupt(data)
    path.write_text(json.dumps(data))
    with pytest.raises(NetError, match=re.escape("net file invariant violated: "
                                                 + expected)):
        load_nets(path, bundle_b.space, bundle_b.constants,
                         0.25, "relaxed")


def test_k_fine_is_smallest_full_level():
    # widely separated points: several scales already hold every point, and
    # the finest retained level is the smallest one that does
    sp = generate_space("line(4, scale=10)")
    c = compute_constants(sp)
    h = build_nets(sp, c, 0.25)
    assert h.level(h.k_fine).size == 4
    assert h.k_fine == -1  # the 4-separated net is already everything
    assert h.level(h.k_fine - 1).size < 4


def test_power_line_hierarchy_runs():
    sp = generate_space("power_line(33, 2)")
    c = compute_constants(sp)
    h = build_nets(sp, c, 1 / 16)
    order = build_reference_order(sp, c, h)
    assert h.level(h.k_fine).size == 33
    assert all(r.passed for r in verify_nets(sp, c, h))
    assert order.M >= 2
