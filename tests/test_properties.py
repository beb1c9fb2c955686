"""End-to-end invariants on randomly generated spaces.

Each draw builds the entire chain and asserts the structural identities that
must hold for any finite doubling space, at any admissible scale ratio.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hwave.pipeline import build_bundle
from hwave.randomized import (sample_omega, verify_center_sandwich,
                              verify_system)
from hwave.space import generate_space

SETTINGS = dict(deadline=None, max_examples=12)

spaces = st.sampled_from([
    "random_cloud({n}, 2, {seed})",
    "random_cloud({n}, 3, {seed})",
    "line({n})",
    "two_cluster({n}, 9.5)",
])


def _bundle(template, n, seed, delta):
    return build_bundle(generate_space(template.format(n=n, seed=seed)), delta)


@given(template=spaces, n=st.integers(4, 14), seed=st.integers(0, 30),
       delta=st.sampled_from([0.25, 0.2, 0.125]))
@settings(**SETTINGS)
def test_chain_identities_hold(template, n, seed, delta):
    b = _bundle(template, n, seed, delta)
    h = b.hierarchy
    # spline identities
    for k in range(h.k_coarse, h.k_fine + 1):
        values = b.splines.at(k)
        assert np.abs(values.sum(axis=0) - 1.0).max() <= 1e-12
        lev = h.level(k)
        assert np.array_equal(values[:, lev], np.eye(lev.size))
    # basis quality
    gram = b.space.gram(b.basis.values, b.basis.values)
    assert np.abs(gram - np.eye(b.space.n)).max() <= 1e-8
    assert b.basis.n_members == b.space.n


@given(template=spaces, n=st.integers(4, 12), seed=st.integers(0, 30),
       omega_seed=st.integers(0, 10))
@settings(**SETTINGS)
def test_sampled_systems_verify(template, n, seed, omega_seed):
    b = _bundle(template, n, seed, 0.2)
    system = b.machine.system(sample_omega(b.order, omega_seed))
    checks = (verify_system(b.space, b.constants, b.hierarchy, b.order, system)
              + verify_center_sandwich(b.space, b.constants, b.hierarchy, system))
    failed = [c.line() for c in checks if not c.passed]
    assert not failed, failed


@given(n=st.integers(4, 12), seed=st.integers(0, 30),
       fseed=st.integers(0, 100))
@settings(**SETTINGS)
def test_parseval_on_random_spaces(n, seed, fseed):
    b = _bundle("random_cloud({n}, 2, {seed})", n, seed, 0.25)
    f = np.random.default_rng(fseed).normal(size=n)
    coeffs = b.basis.analyze(f)
    lhs = float((coeffs**2).sum())
    rhs = b.space.inner(f, f)
    assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1.0)
    assert np.abs(b.basis.synthesize(coeffs) - f).max() <= 1e-8
