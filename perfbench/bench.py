"""Measurement and correctness gate of the hwave benchmark.

One client runs one ``hwave.pipeline.run_pipeline`` call at a time (a closed
loop), with every suite and the artifacts written to a fresh directory, as
``hwave run -o`` does.  Every run's outputs pass the gate in ``gate``; the
gated times are paced (see ``Pace``).  ``run.py`` is the command-line entry
point; it fixes the BLAS thread count and puts the checkout's ``src`` first
on the path before importing this module.
"""
from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hwave
from hwave import pipeline

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

MIN_REPEATS = 3      # timed repeats even when --seconds has run out
PROBE_INTERVAL_S = 0.01
PACE_WINDOW = 11     # probes in the running median that paces a stretch
SETUPS_PER_REPEAT = 2
# After each untraced run, standalone builds of its space until the repeat's
# builds add up to this: one build per run is too few samples where the
# build is short (0.04 s on cloud-generic).
BUILD_SAMPLE_S = 0.5
SETUP_TIMEOUT_S = 60

# A fresh interpreter's import of hwave plus its first dense LAPACK call.  It
# prints its clock at the end: perf_counter is system-wide on Linux, and the
# parent's wait for the exit would add polling delay.
SETUP_CODE = ("import time\n"
              "import numpy as np, hwave\n"
              "a = np.random.default_rng(0).random((256, 256))\n"
              "np.linalg.eigh(a + a.T)\n"
              "print(time.perf_counter())\n")


@dataclass(frozen=True)
class Workload:
    space: str            # descriptor; "{seed}" is replaced by the seed
    delta: float
    nsamples: int
    # Failing checks that are known defects of the parent commit: they are
    # counted and reported, but do not fail the run.
    known_failures: tuple = ()

    def config(self, seed: int, out: Path | None = None) -> pipeline.PipelineConfig:
        return pipeline.PipelineConfig(space=self.space.format(seed=seed),
                                       delta=self.delta, seed=seed,
                                       nsamples=self.nsamples,
                                       out=None if out is None else str(out))

    def params(self, seed: int) -> dict:
        return {"space": self.space.format(seed=seed), "delta": self.delta,
                "nsamples": self.nsamples, "seed": seed,
                "suites": list(pipeline.SUITES)}


WORKLOADS = {
    # Structured space in the deterministic Haar regime (delta = 1/4) at the
    # largest n that finishes in seconds: exact constants dominate and it
    # writes the largest artifacts.
    "grid-haar": Workload("grid(16,2)", 0.25, 1000),
    # Genuinely random regime (delta < A0^-2/4): the Monte Carlo cross-check
    # reads the outcome tables 100 000 times.  The coarsest spline sums to
    # 0.9999999999999999 and is compared with == 1.0, a known false failure.
    "cycle-random": Workload("cycle(64, scale=1)", 0.2, 100_000,
                             known_failures=("support-inner level -3",)),
    # Generic cloud: D = 191 distinct radii, so the O(n D^2) dichotomy scan
    # is most of the run while constants and sampling are cheap.
    "cloud-generic": Workload("random_cloud(20, 2, {seed})", 0.25, 1000),
}


# Imports every module and initialises LAPACK before anything is timed.
WARM_UP = Workload("FIX-B", 0.25, 200)

# Exact per-run counts reported by the traced run.
COUNT_METRICS = (
    "analysis.empty_annulus_dichotomy.calls", "analysis.radii",
    "space.cmu.calls", "wavelets.kernel_of_projection.calls",
    "nets.levels", "nets.L", "nets.M", "randomized.outcomes",
    "splines.mc_draws", "mra.neumann_terms", "mra.gram_dim_max",
    "mra.gram_dim_sum", "report.checks", "report.checks_failed",
    "pipeline.artifact_bytes",
)


@dataclass
class Run:
    run_s: float
    run_rel: float = float("nan")     # run_s in probe times (see Pace)
    builds: list = field(default_factory=list)  # seconds, the run's own first
    builds_rel: list = field(default_factory=list)
    pace: float = float("nan")        # median probe seconds during the run
    digest: str = ""
    counts: dict = field(default_factory=dict)
    failing: tuple = ()
    error: str = ""
    trace: dict | None = None


def _digest(out: Path) -> tuple[str, int]:
    """sha256 over (relative path, bytes) of every artifact, and total bytes."""
    h = hashlib.sha256()
    nbytes = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        nbytes += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), nbytes


class _BuildTimer:
    """Times every ``build_bundle`` call of an untraced repeat, at that one
    boundary."""

    def __init__(self):
        self.windows = []
        self._orig = None

    def __enter__(self):
        orig = self._orig = pipeline.build_bundle

        def timed_build_bundle(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.windows.append((t0, time.perf_counter()))
        pipeline.build_bundle = timed_build_bundle
        return self

    def __exit__(self, *exc):
        pipeline.build_bundle = self._orig


_PROBE_TABLE = {i: i for i in range(512)}
_PROBE_ROW = np.arange(20.0)


def _probe_work() -> list:
    """Dictionary reads, small numpy comparisons and reductions, and a list
    sorted: the mix of interpreter work and short numpy calls that hwave's
    runs are made of, so that it slows with the machine as they do."""
    s = 0
    for i in range(250):
        s += _PROBE_TABLE[i]
    for _ in range(8):
        s += np.nonzero((_PROBE_ROW >= 3.0) & (_PROBE_ROW < 9.0))[0].size
        s += float(_PROBE_ROW[_PROBE_ROW < 7.0].sum())
    return sorted(_PROBE_TABLE.values(), reverse=True)


class Pace:
    """The processor's speed while timed regions run.

    On a shared 2-vCPU virtual machine the speed of each vCPU changes
    within a fraction of a second, by up to two times, for wall and CPU
    time alike and with little steal time: the wall times of single runs
    there vary by 15-20% (standard deviation over mean), and the medians of
    whole measurements by 11-40% from seed to seed (quartile spread over ten
    seeds), more than the largest bound a metric may have.  Every
    PROBE_INTERVAL_S a SIGALRM handler, which the interpreter runs between
    bytecodes of the main thread, times ``_probe_work`` on the same vCPU.
    ``relative`` divides each stretch of work between two probes by the
    median of the PACE_WINDOW probes around it.  The probes' own seconds are
    left out of every time.  On the same runs of ten seeds, the medians'
    spread was 2.3-5.0% paced by this probe, 3.7-10.1% paced by dictionary
    work alone, and 10-24% in wall seconds."""

    def __init__(self):
        self.probes = []  # (start, seconds), in time order
        self._old = None
        self._local = []

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        _probe_work()
        self.probes.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def within(self, t0: float, t1: float) -> list:
        return [d for start, d in self.probes if t0 <= start < t1]

    def seconds(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1) less the probes in it."""
        return t1 - t0 - sum(self.within(t0, t1))

    def relative(self, t0: float, t1: float) -> float:
        """[t0, t1) less the probes in it, each stretch between probes in
        units of the local probe time.  Call after the probes stopped."""
        if not self.probes:
            raise RuntimeError("no pace probes: the timed region is too short")
        if len(self._local) != len(self.probes):
            d = [p for _, p in self.probes]
            h = PACE_WINDOW // 2
            self._local = [statistics.median(d[max(0, k - h):k + h + 1])
                           for k in range(len(d))]
        starts = [start for start, _ in self.probes]
        last = len(starts) - 1
        i0, i1 = bisect_left(starts, t0), bisect_left(starts, t1)
        total, begin = 0.0, t0
        for k in range(i0, i1):
            total += (starts[k] - begin) / self._local[k]
            begin = starts[k] + self.probes[k][1]
        return total + (t1 - begin) / self._local[min(i1, last)]


def run_once(workload: Workload, seed: int, traced: bool = False) -> Run:
    """One pipeline run into a fresh directory, its outputs hashed after.
    Untraced runs are paced and followed by standalone builds (see
    BUILD_SAMPLE_S); traced runs carry the tracer instead."""
    SCRATCH.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=SCRATCH))
    config = workload.config(seed, out)
    tracer, timer, pace = spans.Tracer(), _BuildTimer(), Pace()
    outer, inner = (tracer, nullcontext()) if traced else (timer, pace)
    try:
        with outer, inner:
            t0 = time.perf_counter()
            result = pipeline.run_pipeline(config)
            t1 = time.perf_counter()
            if not traced:
                _sample_builds(result.bundle, config, timer)
        digest, nbytes = _digest(out)
    except Exception:  # a failed run is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return Run(run_s=float("nan"), error=traceback.format_exc(limit=1))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    failing = tuple(c.name for c in result.checks if not c.passed)
    counts = {"report.checks": len(result.checks),
              "report.checks_failed": len(failing),
              "pipeline.artifact_bytes": nbytes}
    run = Run(run_s=t1 - t0, digest=digest, counts=counts, failing=failing)
    if traced:
        run.trace = tracer.summary()
        counts.update(run.trace["counts"])
        counts.update({f"{name}.calls": n for name, n in run.trace["calls"].items()})
    else:
        run.run_s = pace.seconds(t0, t1)
        run.run_rel = pace.relative(t0, t1)
        run.pace = statistics.median(pace.within(t0, t1))
        run.builds = [pace.seconds(*w) for w in timer.windows]
        run.builds_rel = [pace.relative(*w) for w in timer.windows]
    return run


def _sample_builds(bundle, config, timer: _BuildTimer) -> None:
    """Standalone ``build_bundle`` calls on the run's space until the
    repeat's builds add up to BUILD_SAMPLE_S; each must rebuild the run's
    wavelet basis exactly."""
    while sum(b1 - b0 for b0, b1 in timer.windows) < BUILD_SAMPLE_S:
        again = pipeline.build_bundle(bundle.space, config.delta, config.mode)
        if not np.array_equal(again.basis.values, bundle.basis.values):
            raise RuntimeError("a standalone build differs from the run's bundle")


def gate(runs: list, workload: Workload) -> list:
    """Indices of failed runs: raised, a failing check that is not a known
    defect, or outputs that differ from the first repeat's.  A count must
    repeat exactly: each is compared with the first run that recorded it."""
    ref = runs[0]
    first = {}
    failed = []
    for i, run in enumerate(runs):
        reasons = []
        if run.error:
            reasons.append("raised " + run.error.strip().splitlines()[-1])
        unexpected = set(run.failing) - set(workload.known_failures)
        if unexpected:
            reasons.append(f"failing checks {sorted(unexpected)}")
        if run.digest != ref.digest:
            reasons.append("artifacts differ from the first repeat")
        for key, value in sorted(run.counts.items()):
            if first.setdefault(key, value) != value:
                reasons.append(f"count {key} varies: {first[key]} then {value}")
        if reasons:
            print(f"run {i} FAILED: " + "; ".join(reasons), file=sys.stderr)
            failed.append(i)
    return failed


def setup_once() -> float:
    """Wall seconds of a fresh interpreter importing hwave and calling LAPACK."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    return float(proc.stdout.split()[-1]) - t0


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hwave").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0"
                 + path.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(workload: Workload, seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "hwave": hwave.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": workload.params(seed),
    }


def _timing(values: list, unit: str) -> dict:
    """Median, maximum and, once there are more than ten samples, the
    highest percentile with ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    upper = ({"percentile": 100 * (n - 10) / n, "value": ordered[n - 11]}
             if n > 10 else None)
    return {"median": statistics.median(values), "upper": upper,
            "max": ordered[-1], "n": n, "unit": unit, "samples": values}


def _repeats(seconds: float):
    """Yield while another repeat, as long as the mean one so far, still
    ends within ``seconds``; at least MIN_REPEATS times."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done >= MIN_REPEATS and elapsed * (done + 1) / done > seconds:
            return
        yield done
        done += 1


def measure(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Paced runs for ``seconds`` after a warm-up.  Returns (summary,
    end-to-end metric values).  The gated run and build times are
    relative: in units of the local probe time (see ``Pace``)."""
    workload = WORKLOADS[name]
    run_once(WARM_UP, seed)
    runs, setup = [], []
    for _ in _repeats(seconds):
        setup += [setup_once() for _ in range(SETUPS_PER_REPEAT)]
        runs.append(run_once(workload, seed))
    failed = gate(runs, workload)
    timed = [r for r in runs if not r.error]
    if not timed:
        raise RuntimeError("every timed run raised")
    run_rel = [r.run_rel for r in timed]
    build_rel = [b for r in timed for b in r.builds_rel]
    values = {
        "run_rel": statistics.median(run_rel),
        "build_rel": statistics.median(build_rel),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    first = runs[0]
    summary = {
        "workload": name,
        "run_s": _timing([r.run_s for r in timed], "s"),
        "build_s": _timing([b for r in timed for b in r.builds], "s"),
        "setup_s": _timing(setup, "s"),
        "probe_s": _timing([r.pace for r in timed], "s"),
        "run_rel": _timing(run_rel, "x"),
        "build_rel": _timing(build_rel, "x"),
        "peak_rss_mb": {"value": values["peak_rss_mb"], "unit": "MB"},
        "checks_failed": {"value": first.counts.get("report.checks_failed"),
                          "unit": "count"},
        "runs_failed": {"value": len(failed) / len(runs), "unit": "share"},
        "failing_checks": list(first.failing),
        "known_failures": list(workload.known_failures),
        "digest": first.digest,
        "attempted": len(runs),
        "failed": len(failed),
        "env": environment(workload, seed),
    }
    return summary, values


def measure_traced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Alternating untraced and traced runs for ``seconds`` after a
    warm-up.  Returns (summary, per-layer metric values: medians over the
    traced runs)."""
    workload = WORKLOADS[name]
    run_once(WARM_UP, seed)
    plain, traced = [], []
    for _ in _repeats(seconds):
        plain.append(run_once(workload, seed))
        traced.append(run_once(workload, seed, traced=True))
    runs = plain + traced
    failed = gate(runs, workload)
    good = [r for r in traced if not r.error]
    if not good or all(r.error for r in plain):
        raise RuntimeError("every traced or untraced run raised")

    def med(get):
        return statistics.median(get(r) for r in good)

    values = {}
    for span in spans.SPAN_NAMES:
        values[f"{span}.s"] = med(lambda r: r.trace["s"].get(span, 0.0))
        values[f"{span}.self_s"] = med(lambda r: r.trace["self_s"].get(span, 0.0))
    for layer in spans.LAYERS:
        values[f"layer.{layer}.self_s"] = med(lambda r: r.trace["layer_self_s"][layer])
    for key in COUNT_METRICS:
        values[key] = good[0].counts.get(key, 0)
    values["runs_failed"] = len(failed) / len(runs)
    # each traced run follows its untraced twin, so the pair shares the pace
    values["trace.overhead_s"] = statistics.median(
        t.run_s - p.run_s for p, t in zip(plain, traced) if not (p.error or t.error))
    summary = {
        "workload": name,
        "traced_runs": len(traced),
        "untraced_runs": len(plain),
        "spans_per_run": good[0].trace["spans"],
        "hot_nodes_per_run": good[0].trace["hot_nodes"],
        "failing_checks": list(runs[0].failing),
        "digest": runs[0].digest,
        "attempted": len(runs),
        "failed": len(failed),
        "env": environment(workload, seed),
    }
    return summary, values


def result_line(summary: dict, values: dict, declared: list) -> dict:
    """The contract's last line: every declared metric with its unit."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"missing {sorted(set(names) - set(values))}, "
                           f"extra {sorted(set(values) - set(names))}")
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
