import numpy as np
import pytest

from hwave.pipeline import build_bundle
from hwave.space import FIXTURES, FiniteSpace, generate_space


@pytest.fixture(scope="session")
def fix_a():
    return generate_space(FIXTURES["FIX-A"])


@pytest.fixture(scope="session")
def fix_b():
    return generate_space(FIXTURES["FIX-B"])


@pytest.fixture(scope="session")
def wide_line():
    """line(12) with weights spread over twenty orders of magnitude.  A
    pairwise sum over the ball, in index order, made some of its volumes drop
    as the ball grows; the weights come from a search for such a case."""
    w = np.array([9.928888400102505e-10, 9.125483298327842e-13,
                  0.011066002094732685, 2.4539012104923163e-15,
                  2.0229022809237174e-17, 0.0006965674826391054,
                  8.166878554203827e-17, 2.157605806178503e-20,
                  7.120917267407061e-06, 9.84770378426333e-07,
                  8.417102557352974e-07, 7.882341002263482e-11])
    return FiniteSpace(dist=generate_space("line(12)").dist, weights=w)


@pytest.fixture(scope="session")
def bundle_a():
    return build_bundle(generate_space(FIXTURES["FIX-A"]), 0.25)


@pytest.fixture(scope="session")
def bundle_b():
    return build_bundle(generate_space(FIXTURES["FIX-B"]), 0.25)


@pytest.fixture(scope="session")
def bundle_c32():
    return build_bundle(generate_space("cycle(32, weights=uniform)"), 0.25)


@pytest.fixture(scope="session")
def bundle_c64():
    return build_bundle(generate_space("cycle(64, weights=uniform)"), 0.25)


@pytest.fixture(scope="session")
def bundle_random():
    """Unscaled 16-cycle at delta = 0.2: the capture window [delta^{k+1},
    delta^k/4) contains the unit distance, so the cubes genuinely vary with
    the sampled coordinates."""
    return build_bundle(generate_space("cycle(16, scale=1, weights=uniform)"), 0.2)


@pytest.fixture(scope="session")
def constants_a(bundle_a):
    return bundle_a.constants


@pytest.fixture(scope="session")
def constants_b(bundle_b):
    return bundle_b.constants
