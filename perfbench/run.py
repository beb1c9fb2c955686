"""hwave benchmark: time to a verified report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-haar --seed 1 --seconds 35 --trace 0

Workloads and metrics are listed in BENCHMARK.json.  With ``--trace 0`` the
last line of standard output is one JSON object with the end-to-end
metrics: ``run_rel``, the median of the runs' wall times, each in units of
a speed probe timed while it ran (see ``bench.Pace``); ``build_rel``, the
same for every ``build_bundle`` call; ``setup_s``, a fresh interpreter's
import and first LAPACK call; and ``peak_rss_mb``.  With ``--trace 1`` it
holds the per-layer metrics of traced runs (see ``spans``).  The line
before it is a summary: ``run_s``, ``build_s`` and ``setup_s`` in seconds
with median, upper percentile, maximum, sample count and every sample,
``checks_failed`` and the names of the failing checks, ``runs_failed``,
the artifact digest and the environment.  Nothing is built: ``hwave`` is
imported from the checkout's ``src``.

    python -m pytest perfbench          # smoke test on FIX-B
    python3 perfbench/spread.py         # run-to-run spread over ten seeds
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Fixed before numpy is first imported; the set-up subprocesses inherit it.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hwave" / "__init__.py").is_file() or not declared_path.is_file():
        print(f"no hwave sources under {SRC} or no {declared_path.name}: "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import bench  # after the environment and path are fixed

    if args.trace:
        summary, values = bench.measure_traced(args.workload, args.seed, args.seconds)
        metrics = declared["per_layer"]
    else:
        summary, values = bench.measure(args.workload, args.seed, args.seconds)
        metrics = declared["end_to_end"]
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(bench.result_line(summary, values, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
