"""The shared driver of the experiment scripts; they import it, it is never run.

An experiment draws the benchmark's triangle-rich input graph with
perfbench/gen.py, writes it to <out>/synthetic.txt, runs one embedaudit
subcommand on it in-process and reads back the curves that run wrote.
A script adds its own flags to ``parser(...)``, calls ``draw(ap)`` and then
``run(args, graph, command)``, and prints its own table.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))   # the checkout root, for perfbench/
from embedaudit import cli
from embedaudit.graph import load_curve
from perfbench import gen


def parser(doc: str, *, triangles: int, samples: int, out: str) -> argparse.ArgumentParser:
    """A parser with the flags every experiment shares, at the script's defaults."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--triangles", type=int, default=triangles)
    ap.add_argument("--samples", type=int, default=samples)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--out", default=out)
    return ap


def draw(ap: argparse.ArgumentParser, argv=None):
    """Parse argv; returns (args, the 3 * --triangles vertex graph seeded by
    --seed).  A graph that cannot be drawn is a usage error."""
    args = ap.parse_args(argv)
    try:
        return args, gen.triangles_plus_noise(3 * args.triangles, args.seed)
    except ValueError as exc:
        ap.error(str(exc))


def run(args, graph, command: list) -> dict:
    """Write graph to <out>/synthetic.txt and run ``embedaudit <command>`` on
    it with the shared flags; returns {label: curve}, the original first,
    then the labels in the order report.json lists them under ``models``.

    On a failed run the CLI has removed what it wrote; this takes back the
    input file and the output directory if it made it, and re-raises.
    """
    out = Path(args.out)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    gen.write_edge_list(graph, out / "synthetic.txt")
    try:
        cli.main([*command, "--graph", str(out / "synthetic.txt"), "--samples", str(args.samples),
                  "--seed", str(args.seed), "--out", str(out)])
    except (SystemExit, Exception):
        (out / "synthetic.txt").unlink()
        if made:
            out.rmdir()
        raise
    labels = json.loads((out / "report.json").read_text())["models"]
    return {label: load_curve(out / f"curve_{label}.csv", graph.n)
            for label in ["original", *labels]}
