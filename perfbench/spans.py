"""Spans around the calls into each hwave module, recorded from outside it.

The tracer replaces module attributes and a few methods with timing
wrappers while it is installed, and restores them afterwards; nothing in
hwave itself changes.  Every call of a wrapped function records a span
(name, start, end, parent).  Functions that run hundreds of thousands of
times per run are "hot": their calls are aggregated per (parent, name) into
a count and a total instead of one span each.  Spans and aggregates stay in
memory until ``summary`` reads them.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

from hwave import (analysis, mra, nets, pipeline, randomized, report, space,
                   splines, wavelets)

LAYERS = ("space", "nets", "randomized", "splines", "mra", "wavelets",
          "analysis", "pipeline", "report")

# (module, attribute) wrapped in that module and, where pipeline.py imported
# the same object, in pipeline's namespace too: pipeline resolves both its own
# imports and ``an.<name>`` at call time.
FUNCTIONS = (
    (space, "resolve_space"), (space, "compute_constants"), (space, "save_space"),
    (nets, "build_nets"), (nets, "build_reference_order"), (nets, "verify_nets"),
    (nets, "save_nets"),
    (randomized, "sample_omega"), (randomized, "verify_system"),
    (randomized, "verify_center_sandwich"), (randomized, "save_system"),
    (splines, "build_transitions"), (splines, "compute_splines_exact"),
    (splines, "compute_splines_mc"), (splines, "verify_spline_table"),
    (mra, "build_gram_system"), (mra, "neumann_inverse_and_sqrt"),
    (wavelets, "assemble_basis"), (wavelets, "kernel_of_projection"),
    (wavelets, "save_basis"),
    (analysis, "canonical_radii"), (analysis, "empty_annulus_dichotomy"),
    (analysis, "bmo_carleson_roundtrip"), (analysis, "paraproduct_matrix"),
    (analysis, "operator_norm"),
    (report, "write_report"),
    (pipeline, "build_bundle"), (pipeline, "_suite_nets"),
    (pipeline, "_suite_cubes"), (pipeline, "_suite_splines"),
    (pipeline, "_suite_mra"), (pipeline, "_suite_wavelets"),
    (pipeline, "_suite_analysis"), (pipeline, "_write_artifacts"),
    (pipeline, "run_pipeline"),
)

# (class, method, span name) wrapped on the class.  The CubeMachine
# constructor is the write side of the outcome tables, its sampling methods
# the read side.
METHODS = (
    (space.SpaceConstants, "cmu", "space.cmu"),
    (randomized.CubeMachine, "__init__", "randomized.CubeMachine"),
    (randomized.CubeMachine, "system", "randomized.CubeMachine.system"),
    (randomized.CubeMachine, "sample_outcomes",
     "randomized.CubeMachine.sample_outcomes"),
    (randomized.CubeMachine, "ancestors_batch",
     "randomized.CubeMachine.ancestors_batch"),
)

HOT = frozenset({"analysis.empty_annulus_dichotomy", "space.cmu"})


def span_name(module, attr: str) -> str:
    """``<layer>.<function>``; suites read ``pipeline.suite.<name>``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    if attr.startswith("_suite_"):
        return f"{layer}.suite.{attr[len('_suite_'):]}"
    return f"{layer}.{attr.lstrip('_')}"


SPAN_NAMES = tuple([span_name(m, a) for m, a in FUNCTIONS]
                   + [name for _, _, name in METHODS])


class Span:
    __slots__ = ("name", "start", "end", "parent", "child")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child = 0.0  # seconds covered by direct children


class Hot:
    __slots__ = ("name", "parent", "count", "total", "child")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.count = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    """Records spans while installed; ``counts`` holds exact per-run counts."""

    def __init__(self):
        self.spans = []
        self.hot = {}
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        stack = self._stack
        clock = time.perf_counter

        if name in HOT:
            hot = self.hot

            @functools.wraps(fn)
            def traced_hot(*args, **kwargs):
                parent = stack[-1] if stack else None
                node = hot.get((parent, name))
                if node is None:
                    node = hot[(parent, name)] = Hot(name, parent)
                stack.append(node)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    node.count += 1
                    node.total += dt
                    if parent is not None:
                        parent.child += dt
            return traced_hot

        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, clock(), parent)
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(self.counts, args, kwargs, out)
                return out
            finally:
                stack.pop()
                span.end = clock()
                if parent is not None:
                    parent.child += span.end - span.start
        return traced

    def install(self):
        """Wrap every traced function and method; undo with ``uninstall``."""
        for module, attr in FUNCTIONS:
            orig = getattr(module, attr)
            name = span_name(module, attr)
            wrapped = self._wrap(name, orig, _ON_RETURN.get(name))
            for owner in {module, pipeline}:
                if getattr(owner, attr, None) is orig:
                    self._patched.append((owner, attr, orig))
                    setattr(owner, attr, wrapped)
        for cls, attr, name in METHODS:
            orig = cls.__dict__[attr]
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, _ON_RETURN.get(name)))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading ----------------------------------------------------------

    def summary(self) -> dict:
        """Inclusive seconds, self seconds and call counts per span name,
        self seconds per layer, plus the recorded counts."""
        incl = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for s in self.spans:
            dur = s.end - s.start
            incl[s.name] += dur
            self_s[s.name] += dur - s.child
            calls[s.name] += 1
        for node in self.hot.values():
            incl[node.name] += node.total
            self_s[node.name] += node.total - node.child
            calls[node.name] += node.count
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, value in self_s.items():
            layer_self[name.split(".", 1)[0]] += value
        return {"s": dict(incl), "self_s": dict(self_s), "calls": dict(calls),
                "layer_self_s": layer_self, "counts": dict(self.counts),
                "spans": len(self.spans), "hot_nodes": len(self.hot)}


# -- counts recorded at the boundary where the work happens ------------------


def _count_radii(counts, args, kwargs, out):
    counts["analysis.radii"] = len(out)


def _count_outcomes(counts, args, kwargs, out):
    machine = args[0]
    counts["randomized.outcomes"] += sum(len(t) for t in machine.z_tables.values())
    counts["nets.L"] = machine.order.L
    counts["nets.M"] = machine.order.M


def _count_nets(counts, args, kwargs, out):
    counts["nets.levels"] = out.num_levels


def _count_mc(counts, args, kwargs, out):
    nsamples = args[1] if len(args) > 1 else kwargs["nsamples"]
    counts["splines.mc_draws"] += nsamples


def _count_neumann(counts, args, kwargs, out):
    counts["mra.neumann_terms"] += out[3]


def _count_gram(counts, args, kwargs, out):
    dims = [lv.M.shape[0] for lv in out.levels]
    counts["mra.gram_dim_max"] = max(dims)
    counts["mra.gram_dim_sum"] = sum(dims)


_ON_RETURN = {
    "analysis.canonical_radii": _count_radii,
    "randomized.CubeMachine": _count_outcomes,
    "nets.build_nets": _count_nets,
    "splines.compute_splines_mc": _count_mc,
    "mra.neumann_inverse_and_sqrt": _count_neumann,
    "mra.build_gram_system": _count_gram,
}
