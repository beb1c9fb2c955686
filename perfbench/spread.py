"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--out set1.json]
    python3 perfbench/spread.py --seeds 11-20 --against set1.json

Runs ``run.py`` once per (seed, workload) for ``run_seconds``, every workload
of BENCHMARK.json, cycling through the workloads for each seed in turn so
that slow phases of the machine fall on every workload alike.  For each
workload and metric it prints the median and the quartile spread,
(Q3 - Q1) / median, next to the metric's bound; with ``--against`` it also
prints how far each median moved from an earlier set.  The raw wall seconds
of the summary line (the medians of ``run_s`` and ``build_s``) get the same
figures, marked unbounded: they are not declared, and show what pacing
removes.  Exits 1 if a run was incorrect or failed, a spread exceeds its
bound, or a median is worse than the earlier set's by more than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Wall-second medians of the summary line, reported beside the declared metrics.
RAW = ("run_s", "build_s")


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, help="write the collected values here")
    parser.add_argument("--against", type=Path, help="values written by an earlier --out")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"] + [
        {"name": name, "unit": "s", "better": "lower", "bound": None} for name in RAW]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    bad = 0
    start = time.perf_counter()
    for seed in _seeds(args.seeds):
        for w in workloads:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            line = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if line is None or not line["correct"] or line["failed"]:
                bad += 1
                print(f"seed {seed} {w}: BAD RUN\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for name, metric in line["metrics"].items():
                values[w][name].append(metric["value"])
            summary = json.loads(lines[-2])
            for name in RAW:
                values[w][name].append(summary[name]["median"])
            print(f"seed {seed} {w} ({time.perf_counter() - t0:.0f} s): " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
    print(f"{time.perf_counter() - start:.0f} s in all")

    earlier = json.loads(args.against.read_text()) if args.against else {}
    for w in workloads:
        for m in metrics:
            vals = values[w][m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = m["bound"]
            line = (f"{w:14s} {m['name']:12s} median {med:.4g} {m['unit']:3s} "
                    f"spread {spread:6.1%} ")
            if bound is None:
                line += "unbounded"
            else:
                verdict = "ok" if spread <= bound / 3 else "WIDE"
                if spread > bound:
                    verdict, bad = "OVER BOUND", bad + 1
                line += f"bound {bound:.0%} {verdict}"
            old = earlier.get(w, {}).get(m["name"])
            if old:
                drift = (med - statistics.median(old)) / statistics.median(old)
                if m["better"] == "higher":
                    drift = -drift
                worse = bound is not None and drift > bound
                bad += worse
                line += f"  vs earlier {drift:+.1%}{' WORSE' if worse else ''}"
            print(line)
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
