"""Each suite of ``run_pipeline`` draws from its own random stream.

So ``hwave run --suite S`` prints the records that S has in a full run, in
any order of the suites, and no suite stream replays a coordinate stream of
the random cubes (``randomized._coord_rng``).
"""
import pytest

from hwave import pipeline
from hwave.pipeline import SUITES, PipelineConfig, run_pipeline
from hwave.randomized import _coord_rng

SPACES = [("FIX-B", 0.25), ("cycle(64, scale=1)", 0.2),
          ("random_cloud(20,2,1)", 0.25)]


def _records(space, delta, suites):
    result = run_pipeline(PipelineConfig(space=space, delta=delta, seed=3,
                                         nsamples=10_000, suites=suites))
    return [(c.name, c.detail, c.tolerance, c.margin, c.passed)
            for c in result.checks]


@pytest.mark.parametrize("space, delta", SPACES)
def test_a_suite_alone_gives_its_records_in_the_full_run(space, delta):
    alone = {suite: _records(space, delta, (suite,)) for suite in SUITES}
    assert all(alone.values())
    full = _records(space, delta, SUITES)
    assert full == [r for suite in SUITES for r in alone[suite]]
    backwards = _records(space, delta, SUITES[::-1])
    assert backwards == [r for suite in SUITES[::-1] for r in alone[suite]]


@pytest.mark.parametrize("space, delta", SPACES)
@pytest.mark.parametrize("seed", [1, 7])
def test_no_suite_stream_replays_a_coordinate_stream(monkeypatch, space,
                                                     delta, seed):
    states = {}
    for suite in ("mra", "wavelets", "analysis"):
        run = getattr(pipeline, f"_suite_{suite}")

        def recorded(b, rng, suite=suite, run=run):
            states[suite] = rng.bit_generator.state["state"]
            return run(b, rng)
        monkeypatch.setattr(pipeline, f"_suite_{suite}", recorded)
    result = run_pipeline(PipelineConfig(space=space, delta=delta, seed=seed,
                                         nsamples=100))
    h = result.bundle.hierarchy
    coords = [_coord_rng(seed, i, which).bit_generator.state["state"]
              for i in range(h.k_fine - h.k_coarse + 1) for which in (0, 1)]
    assert len(states) == 3
    streams = list(states.values())
    assert all(s not in coords for s in streams)
    assert all(s not in streams[:i] for i, s in enumerate(streams))
