#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `embedaudit` batch audit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the input graph (t disjoint
triangles plus G(n, 1/n) noise, see gen.py) and is the CLI's own --seed.
Graph generation stays outside every timed region.  Each command is the real
CLI, ``python -m embedaudit ...`` with src/ on PYTHONPATH, in a child
process; one runs at a time, with default --threads.  Commands repeat in a
closed loop until S seconds are spent (each runs twice at least), and every
figure is a median.

--trace 0 alternates two commands and prints the end-to-end metrics:
  wall_s       launch to exit of the workload's command
  setup_s      the same command with --samples 1: imports, load, embed,
               fits, degrees and writing, which every audit pays once
  peak_rss_mb  the child's peak RSS, from its own wait4 rusage
--trace 1 alternates the command under tracing.py with the plain command
and prints the per-layer metrics of tracing.py plus trace.overhead_ratio.

Every command's outputs are checked (check.py).  A command fails if it
exits non-zero, fails a check, or writes CSVs whose sha256 differs from an
earlier run of the same source, command and seed (.perfbench/ledger.json);
traced runs must also repeat every exact count.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the full record,
with the environment, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import envinfo
import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0     # a run must end within 180 s, even when a command hangs


@dataclass(frozen=True)
class Workload:
    n: int
    argv: tuple          # CLI arguments besides --graph/--samples/--seed/--out
    samples: int
    why: str


WORKLOADS = {
    "headline": Workload(
        3000, ("audit", "--dim", "100", "--models", "tdp,lrdp,lrhp,softmax"), 4,
        "ROADMAP's end-to-end audit: every model, cached calibration, "
        "triangle counting visible next to sampling"),
    "large": Workload(
        6600, ("audit", "--dim", "100", "--models", "tdp,lrdp"), 2,
        "21.8M pairs, above the 20M calibration cache: every calibration "
        "step and sample walks all pair tiles"),
    "ranksweep": Workload(
        3000, ("ranksweep", "--ranks", "10,50,100,200,300"), 3,
        "five eigensolves and high-d scoring with no model fit, through the "
        "second CLI pipeline"),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Outcome:
    kind: str
    wall_s: float
    peak_rss_mb: float
    problems: list
    hashes: dict
    layers: dict | None = None


def _launch(argv, log: Path, timeout: float):
    """Run argv to its exit; (exit code, wall seconds, peak RSS in MiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name, self.wl = name, WORKLOADS[name]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.started = time.perf_counter()
        self.dir = WORK / f"run-{name}-{seed}-{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.graph = gen.triangles_plus_noise(self.wl.n, seed)
        self.graph_path = self.dir / "graph.txt"
        gen.write_edge_list(self.graph, self.graph_path)
        self.oracle = check.TriangleOracle(self.graph.n, self.graph.edges)
        self.digest = check.source_digest(SRC)
        self.ledger_path = WORK / "ledger.json"
        try:
            self.ledger = json.loads(self.ledger_path.read_text())
        except (OSError, ValueError):
            self.ledger = {}
        self.first_counts = None
        self.absent = []

    def _argv(self, kind: str, out: Path):
        samples = 1 if kind == "setup" else self.wl.samples
        cli = [*self.wl.argv, "--graph", str(self.graph_path), "--samples", str(samples),
               "--seed", str(self.seed), "--out", str(out)]
        if kind == "traced":
            return [sys.executable, str(Path(__file__).with_name("tracing.py")),
                    str(out / "spans.json"), "--", *cli], samples
        return [sys.executable, "-m", "embedaudit", *cli], samples

    def run_one(self, kind: str) -> Outcome:
        out = self.dir / kind
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        argv, samples = self._argv(kind, out)
        timeout = HARD_LIMIT_S - (time.perf_counter() - self.started)
        code, wall, rss = _launch(argv, self.dir / f"{kind}.log", timeout)
        if code != 0:
            tail = (self.dir / f"{kind}.log").read_text(errors="replace")[-2000:]
            return Outcome(kind, wall, rss, [f"exit code {code}: {tail}"], {})
        problems = check.check_outputs(out, self.oracle, self.graph.m)
        hashes = check.csv_hashes(out)
        key = json.dumps([self.digest, self.wl.n, self.wl.argv, self.seed, samples])
        seen = self.ledger.setdefault(key, hashes)
        if seen != hashes:
            problems.append("determinism: CSV sha256 differs from an earlier run "
                            "of the same source, command and seed")
        outcome = Outcome(kind, wall, rss, problems, hashes)
        if kind == "traced":
            doc = json.loads((out / "spans.json").read_text())
            outcome.layers, self.absent = tracing.layer_metrics(doc)
            counts = {k: outcome.layers.get(k) for k in tracing.exact_names()}
            if self.first_counts is None:
                self.first_counts = counts
            elif counts != self.first_counts:
                problems.append("determinism: exact counts differ between traced runs")
        return outcome

    def measure(self) -> list:
        """Cycle the commands until the time is spent, twice each at least:
        each figure is a median, and traced runs compare their counts."""
        plan = ("traced", "full") if self.trace else ("full", "setup")
        deadline = time.perf_counter() + self.seconds
        outcomes, last = [], {}
        for i, kind in enumerate(itertools.cycle(plan)):
            if i >= 2 * len(plan) and time.perf_counter() + last[kind] > deadline:
                break
            outcome = self.run_one(kind)
            outcomes.append(outcome)
            last[kind] = outcome.wall_s
            if time.perf_counter() - self.started > HARD_LIMIT_S:
                break
        self.ledger_path.write_text(json.dumps(self.ledger, indent=1, sort_keys=True))
        return outcomes


def _median(outcomes, kind, field):
    vals = [getattr(o, field) for o in outcomes if o.kind == kind and not o.problems]
    return statistics.median(vals) if vals else None


def metrics(bench: Bench, outcomes: list):
    """The metric dict the last line reports, or None if nothing succeeded."""
    if not bench.trace:
        values = {"wall_s": _median(outcomes, "full", "wall_s"),
                  "setup_s": _median(outcomes, "setup", "wall_s"),
                  "peak_rss_mb": _median(outcomes, "full", "peak_rss_mb")}
        units = END_TO_END
    else:
        traced = [o.layers for o in outcomes if o.kind == "traced" and not o.problems]
        if not traced:
            return None
        exact = tracing.exact_names()      # equal in every traced run
        values = {k: traced[0][k] if k in exact else statistics.median(r[k] for r in traced)
                  for k in traced[0]}
        full = _median(outcomes, "full", "wall_s")
        values["trace.overhead_ratio"] = (
            _median(outcomes, "traced", "wall_s") / full if full else None)
        units = {k: ("ratio" if k == "trace.overhead_ratio" else tracing.unit_of(k))
                 for k in values}
    if any(v is None for v in values.values()):
        return None
    return {k: {"value": values[k], "unit": units[k]} for k in values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "embedaudit" / "cli.py").is_file():
        print(f"no embedaudit sources under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    outcomes = bench.measure()
    result = metrics(bench, outcomes)
    failed = [o for o in outcomes if o.problems]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": vars(bench.wl), "source_sha256": bench.digest,
        "graph": {"n": bench.graph.n, "m": bench.graph.m,
                  "triangles": bench.oracle.triangles()},
        "environment": envinfo.environment(),
        "commands": [{"kind": o.kind, "wall_s": o.wall_s, "peak_rss_mb": o.peak_rss_mb,
                      "problems": o.problems, "csv_sha256": o.hashes, "layers": o.layers}
                     for o in outcomes],
        "absent_metrics": bench.absent,
        "failed_share": len(failed) / len(outcomes),
        "metrics": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(bench.dir, ignore_errors=True)

    for o in failed:
        print(f"FAILED {o.kind}: {'; '.join(o.problems)}", file=sys.stderr)
    if result is None:
        print("no command succeeded; no result", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed}: n={bench.graph.n} m={bench.graph.m} "
          f"triangles={record['graph']['triangles']}; {len(outcomes)} commands, "
          f"failed_share={record['failed_share']:.3g}"
          + (f"; absent: {', '.join(bench.absent)}" if bench.absent else ""))
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
