#!/usr/bin/env python3
"""Print every benchmark metric per workload, pooled over several seeds.

    python3 perfbench/report.py [--workloads headline,large,ranksweep]
                                [--seeds 1,2,3] [--seconds 42]

Runs run.py once per (workload, seed) untraced and once per workload traced,
then prints, per end-to-end metric, its unit, the median and the highest
percentile with at least ten command samples beyond it (the maximum when
there are fewer than eleven), and the sample count; then failed_share, the
traced per-layer metrics and trace.overhead_ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import envinfo
from run import END_TO_END, WORK, WORKLOADS

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    path = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def upper_percentile(values: list) -> tuple[str, float]:
    """(label, value) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return "max", ordered[-1]
    k = len(ordered) - 10
    return f"p{100 * k / len(ordered):.0f}", ordered[k - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", type=int, default=42)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    print(json.dumps(envinfo.environment()))
    for workload in args.workloads.split(","):
        records = [_run(workload, s, args.seconds, 0) for s in seeds]
        commands = [c for r in records for c in r["commands"]]
        samples = {
            "wall_s": [c["wall_s"] for c in commands if c["kind"] == "full"],
            "setup_s": [c["wall_s"] for c in commands if c["kind"] == "setup"],
            "peak_rss_mb": [c["peak_rss_mb"] for c in commands if c["kind"] == "full"],
        }
        print(f"\n== {workload} ({WORKLOADS[workload].why})")
        for name, unit in END_TO_END.items():
            label, upper = upper_percentile(samples[name])
            print(f"  {name:<36} {unit:>8}  median {statistics.median(samples[name]):12.6g}"
                  f"  {label} {upper:12.6g}  n={len(samples[name])}")
        failed = sum(bool(c["problems"]) for c in commands)
        print(f"  {'failed_share':<36} {'ratio':>8}  {failed / len(commands):.3g}"
              f"  ({failed} of {len(commands)} commands)")

        traced = _run(workload, seeds[0], args.seconds, 1)
        print(f"  per layer (seed {seeds[0]}, traced):")
        for name, m in traced["metrics"].items():
            v = m["value"]
            print(f"  {name:<36} {m['unit']:>8}  {v if isinstance(v, int) else f'{v:.6g}':>12}")
        if traced["absent_metrics"]:
            print(f"  absent: {', '.join(traced['absent_metrics'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
