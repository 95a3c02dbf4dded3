"""Tests of the benchmark harness itself.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import gen
import run
import tracing

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, parent, start, end, **attrs):
    return [name, parent, start, end, attrs]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("a", -1, 0.0, 10.0),
        _span("b", 0, 1.0, 4.0),
        _span("c", 0, 3.0, 6.0),       # overlaps b: the union is [1, 6]
        _span("d", 1, 2.0, 3.0),
        _span("e", 0, 9.5, 12.0),      # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 2.5])


def test_layer_metrics_on_synthetic_spans():
    doc = {
        "spans": [
            _span("sampling.sample_graph", -1, 0.0, 2.0, variant="tdp", pairs=6, edges=3),
            _span("models.prob_block", 0, 0.5, 1.5, variant="tdp", entries=16),
            _span("embedding.score_block", 1, 0.5, 1.0, entries=16, flops=64, pairs=6),
        ],
        "counters": {"blocks.pair_walks": 1, "blocks.tiles": 1},
        "absent": ["embedaudit.models.softmax_clamp_count"],
    }
    values, absent = tracing.layer_metrics(doc)
    assert values["sampling.sample_graph_s.tdp"] == pytest.approx(1.0)
    assert values["models.prob_block_s.tdp"] == pytest.approx(0.5)
    assert values["models.prob_block_entries.tdp"] == 16
    assert values["embedding.score_entries_per_pair"] == pytest.approx(16 / 6)
    assert values["embedding.score_gflop_per_s"] == pytest.approx(64 / 0.5 / 1e9)
    assert values["sampling.pairs_per_s"] == pytest.approx(6 / 2.0)
    assert values["sampling.edges_drawn"] == 3
    assert absent == ["models.softmax_clamp_count_s"]
    assert "models.softmax_clamp_count_s" not in values


def test_benchmark_file_names_every_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert layer == {**{k: tracing.unit_of(k) for k in tracing.metric_names()},
                     "trace.overhead_ratio": "ratio"}


def test_generator_is_seeded_and_sparse():
    a, b = gen.triangles_plus_noise(300, 5), gen.triangles_plus_noise(300, 5)
    edges = {tuple(e) for e in a.edges.tolist()}
    assert edges == {tuple(e) for e in b.edges.tolist()}
    assert edges != {tuple(e) for e in gen.triangles_plus_noise(300, 6).edges.tolist()}
    assert len(edges) == a.m and (a.edges[:, 0] < a.edges[:, 1]).all()
    assert check.TriangleOracle(a.n, a.edges).triangles() >= 100


def _traced_counts(tmp_path: Path, tag: str, graph: Path) -> dict:
    out = tmp_path / tag
    spans = tmp_path / f"{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans), "--",
                    "audit", "--graph", str(graph), "--dim", "20", "--samples", "2",
                    "--seed", "3", "--out", str(out)], check=True, env=env,
                   capture_output=True)
    values, absent = tracing.layer_metrics(json.loads(spans.read_text()))
    assert absent == []
    return {k: values[k] for k in tracing.exact_names()}


def test_exact_counts_repeat_between_traced_runs(tmp_path):
    graph = tmp_path / "graph.txt"
    gen.write_edge_list(gen.triangles_plus_noise(300, 1), graph)
    first = _traced_counts(tmp_path, "one", graph)
    assert first == _traced_counts(tmp_path, "two", graph)
    assert first["sampling.sample_graph_calls"] == 8
    assert first["graph.triangle_curve_calls"] == 9
    assert first["models.fit_evals"] > 0 and first["blocks.tiles"] > 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_every_workload_at_tiny_n(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, workload,
                        dataclasses.replace(run.WORKLOADS[workload], n=600))
    for trace, names in ((0, [m["name"] for m in BENCHMARK["end_to_end"]]),
                         (1, [m["name"] for m in BENCHMARK["per_layer"]])):
        assert run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
        assert sorted(result["metrics"]) == sorted(names)
        assert all(m["value"] >= 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "headline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
