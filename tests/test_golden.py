"""Golden sha256 digests of the CSVs and edge lists of a fixed set of runs.

A change that moves an output byte fails here.  A change that moves outputs
on purpose rewrites the digests with

    PYTHONPATH=src:. python tests/test_golden.py

and names every moved file.  report.json is not pinned: its wall time and
the floats of the solves may differ between BLAS builds and thread counts.
Nor is the header of the sampled edge list, whose model digest hashes the
fitted floats; its edges are pinned.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from embedaudit import cli, embedding
from perfbench import gen

DIGESTS = Path(__file__).with_name("golden_digests.json")


def _run(argv) -> None:
    assert cli.main(argv) == 0


def golden_digests(work: Path) -> dict:
    """Run every pinned command under ``work``; returns {relative path: sha256}."""
    graph = work / "graph.txt"
    gen.write_edge_list(gen.triangles_plus_noise(300, 5), graph)
    audit = ["audit", "--graph", str(graph), "--dim", "10", "--models", "tdp,lrdp,lrhp,softmax",
             "--samples", "4", "--seed", "5"]
    _run([*audit, "--out", str(work / "audit")])
    # the folded eigensolve: _Adjacency and the block Lanczos
    with mock.patch.object(embedding, "_DENSE_CUTOFF", 1):
        _run([*audit, "--out", str(work / "audit_folded")])
    _run(["ranksweep", "--graph", str(graph), "--ranks", "2,5,10", "--samples", "4",
          "--seed", "5", "--out", str(work / "ranksweep")])
    _run(["embed", "--graph", str(graph), "--dim", "10", "--out", str(work / "embedding.txt")])
    _run(["sample", "--embedding", str(work / "embedding.txt"), "--model", "lrhp",
          "--graph", str(graph), "--seed", "5", "--out", str(work / "sample_lrhp.txt")])
    _run(["curve", "--graph", str(graph), "--out", str(work / "curve.csv")])
    pinned = {p.relative_to(work).as_posix(): p.read_bytes()
              for p in [graph, work / "curve.csv",
                        *(p for d in ("audit", "audit_folded", "ranksweep")
                          for p in sorted((work / d).glob("*.csv")))]}
    pinned["sample_lrhp.txt"] = b"".join(
        line for line in (work / "sample_lrhp.txt").read_bytes().splitlines(keepends=True)
        if not line.startswith(b"#"))
    return {name: hashlib.sha256(data).hexdigest() for name, data in pinned.items()}


def test_outputs_match_golden_digests(tmp_path):
    got = golden_digests(tmp_path)
    want = json.loads(DIGESTS.read_text())
    assert sorted(got) == sorted(want)
    moved = sorted(name for name in want if got[name] != want[name])
    assert not moved, f"outputs moved: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = golden_digests(Path(work))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
