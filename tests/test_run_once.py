"""One ``run_pipeline`` computes each checked identity once, and the
benchmark's hooks still see it.

The build asserts the nets (``verify_nets``) and the basis (its n x n Gram
and member count) and keeps those records; the suites report them without
recomputing.  The seed's system is sampled once for the cubes suite and
``system.json``, and the centre sandwich is decided by
``verify_center_sandwich`` alone.  ``perfbench/spans.py`` wraps functions of
every module by name, so a refactor that renames or drops one of them fails
here first.
"""
import importlib.util
from collections import defaultdict
from pathlib import Path

from hwave import nets, pipeline
from hwave.mra import neumann_inverse_and_sqrt
from hwave.pipeline import PipelineConfig, run_pipeline
from hwave.randomized import CubeMachine
from hwave.space import FiniteSpace, canonical_radii
from hwave.splines import compute_splines_mc

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _counting(monkeypatch, owner, attr, calls):
    orig = getattr(owner, attr)

    def counted(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.append((args, out))
        return out
    monkeypatch.setattr(owner, attr, counted)


def test_each_identity_is_computed_once(monkeypatch, tmp_path):
    calls = {name: [] for name in ("verify_nets", "gram", "system",
                                   "verify_system", "verify_center_sandwich")}
    _counting(monkeypatch, nets, "verify_nets", calls["verify_nets"])
    _counting(monkeypatch, FiniteSpace, "gram", calls["gram"])
    _counting(monkeypatch, CubeMachine, "system", calls["system"])
    _counting(monkeypatch, pipeline, "verify_system", calls["verify_system"])
    _counting(monkeypatch, pipeline, "verify_center_sandwich",
              calls["verify_center_sandwich"])
    result = run_pipeline(PipelineConfig(space="FIX-B", nsamples=1000,
                                         out=str(tmp_path)))
    assert result.ok
    values = result.bundle.basis.values
    assert len(calls["verify_nets"]) == 1
    assert len([a for a, _ in calls["gram"]
                if a[1] is values and a[2] is values]) == 1
    assert len(calls["system"]) == 1
    assert len(calls["verify_system"]) == len(calls["verify_center_sandwich"]) == 1
    (_, geometry), = calls["verify_system"]
    assert not [r for r in geometry if r.name.startswith("centre-")]
    names = [c.name for c in result.checks]
    h = result.bundle.hierarchy
    for k in range(h.k_coarse, h.k_fine + 1):
        assert names.count(f"centre-sandwich level {k}") == 1
    # the build's records, reported as they were asserted
    assert names.count("basis-orthonormality") == names.count("basis-count") == 1
    assert list(h.checks) == [c for c in result.checks
                              if c.name.startswith("net-")]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_hooks_record_their_counts(tmp_path):
    spans = _load_spans()
    before = pipeline.run_pipeline
    tracer = spans.Tracer()
    with tracer:
        result = pipeline.run_pipeline(PipelineConfig(
            space="FIX-B", nsamples=200, out=str(tmp_path)))
    assert pipeline.run_pipeline is before
    assert result.ok
    summary = tracer.summary()
    counts = summary["counts"]
    assert counts["nets.levels"] == result.bundle.hierarchy.num_levels
    assert counts["randomized.outcomes"] > 0
    assert counts["splines.mc_draws"] == 200
    assert "mra.neumann_terms" in counts
    assert counts["mra.gram_dim_max"] == result.bundle.space.n
    assert counts["analysis.radii"] > 0
    calls = summary["calls"]
    assert calls["nets.verify_nets"] == 1
    assert calls["randomized.CubeMachine.system"] == 1
    assert calls["analysis.empty_annulus_dichotomy"] >= 1
    # P_k once per level, Q_k once per level with a successor
    h = result.bundle.hierarchy
    steps = h.k_fine - h.k_coarse
    assert calls["wavelets.kernel_of_projection"] == 2 * steps + 1


def test_every_count_hook_reads_a_fix_b_build(bundle_b):
    """Each hook called as the tracer calls it, with the arguments and the
    return value of the call it wraps, writes its counts."""
    spans = _load_spans()
    b = bundle_b
    h, order = b.hierarchy, b.order
    radii = canonical_radii(b.space)
    mc = compute_splines_mc(b.machine, 200, 1)
    neumann = neumann_inverse_and_sqrt(b.gramsys.at(1).M)
    outcomes = (order.L + 1) * order.M * (h.num_levels - 1)
    # name: (args, kwargs, return value, the counts the hook writes)
    calls = {
        "analysis.canonical_radii": (
            (b.space,), {}, radii, {"analysis.radii": radii.size}),
        "randomized.CubeMachine": (
            (b.machine, b.space, b.constants, h, order), {}, None,
            {"randomized.outcomes": outcomes, "nets.L": order.L,
             "nets.M": order.M}),
        "nets.build_nets": (
            (b.space, b.constants, h.delta), {}, h, {"nets.levels": 3}),
        "splines.compute_splines_mc": (
            (b.machine,), {"nsamples": 200, "seed": 1}, mc,
            {"splines.mc_draws": 200}),
        "mra.neumann_inverse_and_sqrt": (
            (b.gramsys.at(1).M,), {}, neumann,
            {"mra.neumann_terms": neumann[3]}),
        "mra.build_gram_system": (
            (b.space, b.constants, h, b.splines), {}, b.gramsys,
            {"mra.gram_dim_max": 16, "mra.gram_dim_sum": 1 + 4 + 16}),
    }
    assert set(calls) == set(spans._ON_RETURN)
    for name, (args, kwargs, out, want) in calls.items():
        counts = defaultdict(int)
        spans._ON_RETURN[name](counts, args, kwargs, out)
        assert dict(counts) == want, name
    counts = defaultdict(int)
    spans._ON_RETURN["splines.compute_splines_mc"](
        counts, (b.machine, 200, 1), {}, mc)
    assert counts == {"splines.mc_draws": 200}
