"""Checks on the files one `embedaudit` command wrote.

* ``curve_original.csv`` must equal, byte for byte, a curve computed here
  with networkx: for each threshold c of the file's grid, the triangles of
  the subgraph induced by the vertices of degree <= c, divided by n.
* Every model curve must be non-decreasing, n * delta must be a whole
  number, and delta(c) must lie in [0, c(c-1)/6].  A vertex of degree <= c
  lies in at most c(c-1)/2 triangles, so that bound holds for any graph.
  (The original's T/n is no bound: lrhp samples can hold more triangles
  than the original graph.)
* Every fit report must be converged with |achieved - m| <= 1e-3 m.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import networkx as nx

CALIBRATION_TOL = 1e-3


class TriangleOracle:
    """Triangle-foundation values of one graph, from networkx."""

    def __init__(self, n: int, edges):
        self.n = n
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(n))
        self.graph.add_edges_from(map(tuple, edges.tolist()))
        self.degree = dict(self.graph.degree())
        self._by_size = {}

    def delta(self, c: int) -> float:
        keep = [v for v, d in self.degree.items() if d <= c]
        if len(keep) not in self._by_size:
            t = sum(nx.triangles(self.graph.subgraph(keep)).values()) // 3
            self._by_size[len(keep)] = t / self.n
        return self._by_size[len(keep)]

    def triangles(self) -> int:
        return sum(nx.triangles(self.graph).values()) // 3


def _read_curve(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "c,delta":
        raise ValueError(f"{path.name}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    return [(int(c), float(d)) for c, d in rows]


def check_outputs(out_dir: Path, oracle: TriangleOracle, m: int) -> list:
    """Problems found in one command's outputs; empty when all hold."""
    problems = []
    original = out_dir / "curve_original.csv"
    try:
        grid = [c for c, _ in _read_curve(original)]
        want = "c,delta\n" + "".join(f"{c},{oracle.delta(c):.15g}\n" for c in grid)
        if original.read_text(encoding="utf-8") != want:
            problems.append("curve_original.csv differs from the networkx oracle")
    except (OSError, ValueError) as exc:
        problems.append(f"curve_original.csv: {exc}")

    curves = sorted(p for p in out_dir.glob("curve_*.csv") if p != original)
    if not curves:
        problems.append("no model curves written")
    for path in curves:
        try:
            rows = _read_curve(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        deltas = [d for _, d in rows]
        if any(b < a for a, b in zip(deltas, deltas[1:])):
            problems.append(f"{path.name}: decreasing")
        if any(not 0.0 <= d <= c * (c - 1) / 6 for c, d in rows):
            problems.append(f"{path.name}: value outside [0, c(c-1)/6]")
        if any(abs(d * oracle.n - round(d * oracle.n)) > 1e-6 for d in deltas):
            problems.append(f"{path.name}: n*delta not a whole number")

    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"report.json: {exc}"]
    fits = report.get("fit_reports", {})
    for name in {"lrdp", "lrhp"} & set(report.get("config", {}).get("models", ())):
        if name not in fits:
            problems.append(f"fit {name}: no fit report")
    for name, fit in fits.items():
        if not fit.get("converged"):
            problems.append(f"fit {name}: not converged")
        if abs(fit["achieved_expected_edges"] - m) > CALIBRATION_TOL * m:
            problems.append(f"fit {name}: achieved {fit['achieved_expected_edges']} "
                            f"edges, target {m}")
    return problems


def csv_hashes(out_dir: Path) -> dict:
    """sha256 of every CSV the command wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def source_digest(src: Path) -> str:
    """sha256 over the program's source files: names one commit's code."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()
