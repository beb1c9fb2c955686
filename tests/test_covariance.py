"""Scale covariance of the whole build.

Distances multiplied by 1/delta give the same space one level coarser: every
level index shifts by -1 at both ends, and the nets, the reference order, the
sampled cubes, the splines and the basis are the same arrays.  Weights
multiplied by 4 change no net, cube or spline and halve every basis value.
At delta = 2^-j both scalings are exact in binary, so the relations are
tested with ``array_equal``.  ``cycle(16, scale=0.01)`` and
``cycle(16, scale=1e-30)`` have diameter below 1, so their level 0 is already
a single point; the coarse end of ``build_nets`` keeps only the last single
point level, as the fine end keeps only the first level exhausting the space.
"""
import numpy as np
import pytest

from hwave.pipeline import build_bundle
from hwave.randomized import sample_omega
from hwave.space import FiniteSpace, resolve_space

from helpers import rescale

SPACES = ["FIX-B", "grid(8,2)", "random_cloud(64,2,1)", "two_cluster(12,7)",
          "cycle(16, scale=0.01)", "cycle(16, scale=1e-30)"]
DELTAS = [1 / 4, 1 / 8, 1 / 16]


def _assert_same_build(a, b):
    ha, hb = a.hierarchy, b.hierarchy
    assert len(ha.levels) == len(hb.levels)
    assert all(np.array_equal(x, y) for x, y in zip(ha.levels, hb.levels))
    assert all(np.array_equal(x, y)
               for x, y in zip(a.order.parents, b.order.parents))
    for seed in (1, 2):
        sa = a.machine.system(sample_omega(a.order, seed))
        sb = b.machine.system(sample_omega(b.order, seed))
        assert all(np.array_equal(x, y) for x, y in zip(sa.cubes, sb.cubes))
    assert all(np.array_equal(x, y)
               for x, y in zip(a.splines, b.splines))


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("descriptor", SPACES)
def test_distances_over_delta_shift_every_level_by_one(descriptor, delta):
    space = resolve_space(descriptor)
    a = build_bundle(space, delta)
    b = build_bundle(rescale(space, 1 / delta), delta)
    assert (b.hierarchy.k_coarse, b.hierarchy.k_fine) == (
        a.hierarchy.k_coarse - 1, a.hierarchy.k_fine - 1)
    _assert_same_build(a, b)
    assert np.array_equal(a.basis.values, b.basis.values)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("descriptor", SPACES)
def test_weights_times_four_halve_the_basis(descriptor, delta):
    space = resolve_space(descriptor)
    a = build_bundle(space, delta)
    b = build_bundle(FiniteSpace(dist=space.dist, weights=4 * space.weights),
                     delta)
    assert (b.hierarchy.k_coarse, b.hierarchy.k_fine) == (
        a.hierarchy.k_coarse, a.hierarchy.k_fine)
    _assert_same_build(a, b)
    assert np.array_equal(b.basis.values, a.basis.values / 2)


def test_single_point_levels_trimmed_at_the_coarse_end():
    # diameter 0.5e-29: levels 0 .. 41 were the same single point
    h = build_bundle(resolve_space("cycle(16, scale=1e-30)"), 0.2).hierarchy
    assert (h.k_coarse, h.k_fine) == (41, 43)
    assert [lv.size for lv in h.levels] == [1, 3, 16]
