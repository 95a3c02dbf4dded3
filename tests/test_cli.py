import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import embedaudit
from embedaudit import blocks, cli, embedding, models, theory, verify
from embedaudit.cli import (AuditConfig, AuditConfigError, AuditStageError, cmd_audit,
                            cmd_ranksweep, cmd_verify)
from embedaudit.embedding import Embedding, load_embedding, save_embedding, spectral_embed
from embedaudit.graph import Graph, load_edge_list, save_edge_list, triangle_foundation_curve
from embedaudit.models import FitReport, fit_lrdp


def write_k4(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text("".join(f"{i} {j}\n" for i in range(4) for j in range(i + 1, 4)))
    return p


def write_random_graph(tmp_path, n=40, p=0.15, seed=5):
    rng = np.random.default_rng(seed)
    g = Graph.from_edges(n, np.argwhere(np.triu(oracles.random_gnp(rng, n, p), 1)))
    path = tmp_path / "g.txt"
    save_edge_list(g, path)
    # isolated vertices cannot survive the edge-list format; use the graph
    # exactly as a consumer of the file would see it
    return path, load_edge_list(path).graph


def write_triangle_pack(tmp_path, count=10):
    edges = [(3 * t + a, 3 * t + b) for t in range(count)
             for a, b in ((0, 1), (1, 2), (0, 2))]
    path = tmp_path / "tri.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return path


# ------------------------------------------------------------------ audit

def test_audit_k4_full_rank_tdp(tmp_path):
    out = tmp_path / "out"
    config = AuditConfig(graph_path=str(write_k4(tmp_path)), output_dir=str(out),
                         dim=4, models=("tdp",), num_samples=10, seed=1)
    report = cmd_audit(config)
    original = dict(_read_curve(out / "curve_original.csv"))
    model = dict(_read_curve(out / "curve_tdp.csv"))
    assert original[3] == 1.0          # 4 triangles / 4 vertices at degree 3
    assert model[3] == 1.0             # exact reconstruction at d = n
    assert report["triangles"] == 4
    assert (out / "report.json").exists()
    for name in report["files"].values():
        assert (out / name).exists()


def _read_curve(path):
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "c,delta"
    return [(int(r.split(",")[0]), float(r.split(",")[1])) for r in rows[1:]]


def test_audit_deterministic_across_runs(tmp_path):
    gpath, _ = write_random_graph(tmp_path)
    outs = []
    for name in ["a", "b"]:
        out = tmp_path / name
        cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                              dim=8, num_samples=6, seed=9))
        outs.append(out)
    a, b = outs
    csvs = sorted(p.name for p in a.glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_audit_report_contents(tmp_path):
    gpath, g = write_random_graph(tmp_path)
    out = tmp_path / "out"
    report = cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                                   dim=6, num_samples=4, seed=3))
    doc = json.loads((out / "report.json").read_text())
    assert doc["n"] == g.n and doc["m"] == g.m
    assert set(doc["fit_reports"]) == {"lrdp", "lrhp"}
    for rep in doc["fit_reports"].values():
        assert rep["converged"]
        assert 1 <= rep["calibration_evals"] < rep["iterations"]
    assert "softmax_clamped_pairs" in doc
    assert doc["seed"] == 3
    assert doc["config"]["dim"] == 6 and doc["config"]["models"] == list(cli.MODEL_NAMES)
    # the pair-tile side and the non-edge ratio are fixed, so the config echo
    # has no key for either
    assert set(doc["config"]) == {"graph_path", "output_dir", "dim", "models", "num_samples",
                                  "seed", "external_embedding_path", "rank_sweep_list"}
    assert doc["config"]["rank_sweep_list"] is None
    assert set(doc["sampled_edges"]) == set(cli.MODEL_NAMES)
    solve = doc["eigensolver"]
    assert solve["path"] == "dense"
    assert solve["power"] is None and solve["operator_applications"] is None
    assert solve["block_size"] is None
    assert solve["krylov_dimension"] is None and solve["convergence_tests"] is None
    assert 0 <= solve["max_relative_residual"] <= 1e-10
    mags = np.sort(np.abs(np.linalg.eigvalsh(g.adjacency_matrix())))[::-1]
    assert solve["eigengap"] == pytest.approx(mags[5] - mags[6], abs=1e-12)
    for stats in doc["sampled_edges"].values():
        assert set(stats) == {"min", "median", "max", "draw_candidates"}
        assert 0 <= stats["min"] <= stats["median"] <= stats["max"]
        # every kept edge was a candidate; one tile (n <= blocks.TILE) of
        # n^2 positions per sample bounds the work
        assert 4 * stats["min"] <= stats["draw_candidates"] <= 4 * g.n ** 2


def test_audit_original_curve_matches_standalone(tmp_path):
    gpath, g = write_random_graph(tmp_path, n=30, p=0.25, seed=11)
    out = tmp_path / "out"
    cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                          dim=5, models=("tdp",), num_samples=3, seed=2))
    standalone = triangle_foundation_curve(g)
    written = _read_curve(out / "curve_original.csv")
    for c, delta in written:
        assert delta == pytest.approx(standalone.value_at(c), abs=1e-12)
    # every native threshold appears in the union grid
    assert np.isin(standalone.thresholds, [c for c, _ in written]).all()


def test_audit_stage_error_on_missing_graph(tmp_path):
    out = tmp_path / "out"
    config = AuditConfig(graph_path=str(tmp_path / "nope.txt"),
                         output_dir=str(out), dim=2, num_samples=1)
    with pytest.raises(AuditStageError) as err:
        cmd_audit(config)
    assert err.value.stage == "load"
    assert not out.exists()            # the directory is made at the write stage


def test_audit_stage_error_on_bad_dim_cleans_up(tmp_path):
    gpath, _ = write_random_graph(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(AuditStageError) as err:
        cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                              dim=1000, num_samples=1))
    assert err.value.stage == "embed"
    assert not out.exists()


def test_audit_write_failure_removes_written_files(tmp_path, monkeypatch):
    gpath, _ = write_random_graph(tmp_path)
    out = tmp_path / "out"

    def full_disk(degrees, path):
        raise OSError("no space left")

    monkeypatch.setattr(cli, "save_degree_distribution", full_disk)
    with pytest.raises(AuditStageError) as err:
        cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                              dim=3, models=("tdp",), num_samples=1))
    assert err.value.stage == "write"
    # the curves were written before the failure and are removed again
    assert out.is_dir() and not any(out.iterdir())


def test_audit_with_external_embedding(tmp_path):
    gpath, g = write_random_graph(tmp_path, n=20, p=0.3, seed=21)
    epath = tmp_path / "ext.txt"
    rng = np.random.default_rng(0)
    from embedaudit.embedding import Embedding, save_embedding
    save_embedding(Embedding(rng.normal(size=(g.n, 4)) * 0.3), epath)
    out = tmp_path / "out"
    report = cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                                   dim=99, models=("lrdp", "softmax"),
                                   num_samples=3, seed=5,
                                   external_embedding_path=str(epath)))
    assert report["embedding_kind"] == "plain"
    # the report echoes the d of the file, not the --dim it never used
    assert report["config"]["dim"] == report["embedding_dim"] == 4
    assert report["eigensolver"] is None     # nothing was solved
    assert (out / "curve_lrdp.csv").exists()
    assert not (out / "curve_tdp.csv").exists()


def test_audit_softmax_report_on_a_large_log_scale(tmp_path):
    # vertex 0 scores -1000 against every other vertex, so its log s_0 is
    # about 996.6 and s_0 itself overflows; the report digests log s_i
    gpath = tmp_path / "path.txt"
    gpath.write_text("".join(f"{i} {i + 1}\n" for i in range(29)))
    epath = tmp_path / "ext.txt"
    save_embedding(Embedding(np.where(np.arange(30) == 0, -100.0, 10.0)[:, None]), epath)
    out = tmp_path / "out"
    assert cli.main(["audit", "--graph", str(gpath), "--embedding", str(epath),
                     "--models", "softmax", "--samples", "2", "--out", str(out)]) == 0

    def strict(constant):
        raise ValueError(f"not strict JSON: {constant}")

    report = json.loads((out / "report.json").read_text(), parse_constant=strict)
    assert report["models"]["softmax"]["variant"] == "softmax"
    assert len(report["models"]["softmax"]["digest"]) == 64
    assert report["config"]["dim"] == 1 and (out / "curve_softmax.csv").exists()


def test_audit_rejects_mismatched_external_embedding(tmp_path):
    gpath, _ = write_random_graph(tmp_path, n=20)
    from embedaudit.embedding import Embedding, save_embedding
    epath = tmp_path / "ext.txt"
    save_embedding(Embedding(np.zeros((7, 2))), epath)
    with pytest.raises(AuditStageError) as err:
        cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(tmp_path / "o"),
                              external_embedding_path=str(epath), num_samples=1))
    assert err.value.stage == "embed"


def test_audit_config_validation():
    with pytest.raises(ValueError):
        AuditConfig(graph_path="g", output_dir="o", models=())
    with pytest.raises(ValueError):
        AuditConfig(graph_path="g", output_dir="o", models=("euclid",))
    with pytest.raises(ValueError, match="models must be distinct"):
        AuditConfig(graph_path="g", output_dir="o", models=("lrhp", "lrhp"))
    with pytest.raises(ValueError):
        AuditConfig(graph_path="g", output_dir="o", num_samples=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            AuditConfig(graph_path="g", output_dir="o", seed=seed)
    AuditConfig(graph_path="g", output_dir="o", seed=2**64 - 1)
    with pytest.raises(AuditConfigError, match="ranksweep needs a non-empty rank list"):
        cmd_ranksweep(AuditConfig(graph_path="g", output_dir="o"))


def unconverged_fit(e, graph, seed):
    model, _ = fit_lrdp(e, graph, seed)
    return model, FitReport(float(graph.m), 12.5, 130, False, 100)


def test_audit_warns_on_unconverged_calibration(tmp_path, monkeypatch, caplog):
    gpath, g = write_random_graph(tmp_path, n=20)
    monkeypatch.setattr(models, "fit_lrdp", unconverged_fit)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="embedaudit.cli"):
        cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                              dim=3, models=("lrdp",), num_samples=1))
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    message = record.getMessage()
    assert "lrdp" in message and f"target {g.m} " in message and "12.5" in message
    doc = json.loads((out / "report.json").read_text())
    assert doc["fit_reports"]["lrdp"]["converged"] is False


# -------------------------------------------------------------- ranksweep

def test_ranksweep_full_rank_equals_original(tmp_path):
    gpath = write_k4(tmp_path)
    out = tmp_path / "out"
    cmd_ranksweep(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                              models=("tdp",), num_samples=5, seed=2,
                              rank_sweep_list=(4,)))
    assert (out / "curve_rank4.csv").read_bytes() == \
        (out / "curve_original.csv").read_bytes()


def test_ranksweep_rank1_starves_low_degree_triangles(tmp_path):
    gpath = write_triangle_pack(tmp_path, count=10)
    out = tmp_path / "out"
    cmd_ranksweep(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                              models=("tdp",), num_samples=10, seed=4,
                              rank_sweep_list=(1, 30)))
    original = dict(_read_curve(out / "curve_original.csv"))
    rank1 = dict(_read_curve(out / "curve_rank1.csv"))
    rank_n = dict(_read_curve(out / "curve_rank30.csv"))
    assert original[2] == pytest.approx(1 / 3)
    assert rank1[2] < original[2] / 2
    assert rank_n[2] == original[2]


def test_ranksweep_rank_equals_audit_tdp(tmp_path):
    gpath, _ = write_random_graph(tmp_path)
    audit = tmp_path / "audit"
    cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(audit), dim=5,
                          models=("tdp",), num_samples=4, seed=6))
    for ranks in [(5,), (9, 5)]:
        sweep = tmp_path / f"sweep{len(ranks)}"
        cmd_ranksweep(AuditConfig(graph_path=str(gpath), output_dir=str(sweep),
                                  num_samples=4, seed=6, rank_sweep_list=ranks))
        assert (sweep / "degdist_expected_rank5.csv").read_bytes() == \
            (audit / "degdist_expected_tdp.csv").read_bytes()
        # several ranks share one grid, a superset of the audit's
        assert set(_read_curve(audit / "curve_tdp.csv")) <= \
            set(_read_curve(sweep / "curve_rank5.csv"))
    for swept, audited in [("curve_rank5.csv", "curve_tdp.csv"),
                           ("curve_original.csv", "curve_original.csv"),
                           ("degdist_observed.csv", "degdist_observed.csv")]:
        assert (tmp_path / "sweep1" / swept).read_bytes() == (audit / audited).read_bytes()


def test_ranksweep_echoes_only_the_model_it_runs(tmp_path):
    gpath, _ = write_random_graph(tmp_path)
    out = tmp_path / "out"
    # the config keeps AuditConfig's default models; only tdp runs
    report = cmd_ranksweep(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                                       num_samples=2, seed=3, rank_sweep_list=(3,)))
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["models"] == ["tdp"]
    assert doc["fit_reports"] == {} and report["fit_reports"] == {}


def test_ranksweep_reports_the_folded_solve(tmp_path, monkeypatch):
    gpath, _ = write_random_graph(tmp_path)
    monkeypatch.setattr(embedding, "_DENSE_CUTOFF", 1)
    out = tmp_path / "out"
    cmd_ranksweep(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                              num_samples=1, seed=2, rank_sweep_list=(3, 5)))
    solve = json.loads((out / "report.json").read_text())["eigensolver"]
    assert set(solve) == {"path", "power", "block_size", "operator_applications",
                          "krylov_dimension", "convergence_tests",
                          "max_relative_residual", "eigengap"}
    assert solve["path"] == "folded" and solve["block_size"] == 4
    # the first test comes at Krylov dimension 1.5 * 5 + 4, rounded up to 12:
    # three blocks; every block but one that fills the space has 4 vectors
    assert 1 <= solve["power"] <= 8 and solve["operator_applications"] >= 3
    assert 12 <= solve["krylov_dimension"] <= 4 * solve["operator_applications"]
    assert solve["krylov_dimension"] > 4 * (solve["operator_applications"] - 1)
    assert 1 <= solve["convergence_tests"] <= solve["operator_applications"] - 2
    assert 0 <= solve["max_relative_residual"] <= 1e-10
    assert solve["eigengap"] > 0


def test_ranksweep_one_eigensolve_and_audit_outputs(tmp_path, monkeypatch):
    gpath, _ = write_random_graph(tmp_path)
    real, dims = cli.spectral_embed, []
    monkeypatch.setattr(cli, "spectral_embed",
                        lambda graph, d, **kw: dims.append(d) or real(graph, d, **kw))
    out = tmp_path / "out"
    ranks = (3, 12, 6)
    cmd_ranksweep(AuditConfig(graph_path=str(gpath), output_dir=str(out),
                              num_samples=3, seed=2, rank_sweep_list=ranks))
    assert dims == [12]
    doc = json.loads((out / "report.json").read_text())
    # the file lists the labels in run order, not sorted (rank12 before rank3)
    labels = [f"rank{d}" for d in ranks]
    assert list(doc["models"]) == labels
    assert list(doc["sampled_edges"]) == labels
    assert list(doc["max_delta_std_per_model"]) == labels
    assert doc["embedding_dim"] == 12 and "ranks" not in doc
    assert doc["config"]["rank_sweep_list"] == list(ranks)
    # the rank list sets its dimension: the echo holds the rank that was solved
    assert doc["config"]["dim"] == doc["embedding_dim"] == 12
    assert "models" in doc["config"]
    assert (out / "degdist_observed.csv").exists()
    for label in labels:
        assert (out / f"curve_{label}.csv").exists()
        assert (out / f"degdist_expected_{label}.csv").exists()


def test_ranksweep_rejects_out_of_range_rank(tmp_path):
    gpath = write_k4(tmp_path)
    with pytest.raises(AuditStageError):
        cmd_ranksweep(AuditConfig(graph_path=str(gpath),
                                  output_dir=str(tmp_path / "o"),
                                  num_samples=1, rank_sweep_list=(9,)))


# ----------------------------------------------------------------- verify

def test_verify_all_properties_pass(tmp_path):
    out = tmp_path / "verify.json"
    report = cmd_verify(seed=1, out_path=out)
    assert report["all_passed"]
    assert len(report["properties"]) >= 5
    assert json.loads(out.read_text())["all_passed"]
    for prop in report["properties"]:
        assert prop["trials"] > 0
        assert prop["counterexample"] is None


def _swapped_rank_lemma(m):
    a = np.asarray(m, dtype=float)
    denom = float(np.trace(a)) ** 2
    return float(np.sum(a * a)) / denom if denom else 0.0


def _inflated_certificate(e, c, _real=theory.core_rank_certificate):
    return dataclasses.replace(_real(e, c), bound=1e9)


# (sweep, module holding the faulty name, name, fault, counterexample keys)
INJECTED_FAULTS = [
    ("sweep_rank_lemma", theory, "rank_lemma_bound", _swapped_rank_lemma,
     {"matrix", "bound", "numeric_rank"}),
    ("sweep_packing", theory, "packing_max_dot", lambda u: -1.0,
     {"d", "vectors", "max_dot"}),
    ("sweep_independent_set", theory, "greedy_independent_set",
     lambda g: np.arange(g.n), {"edges", "set", "floor", "independent"}),
    ("sweep_negative_dot_mass", theory, "negative_dot_mass", lambda w: (1.0, 0.0),
     {"vectors", "neg", "pos"}),
    ("sweep_degree_second_moment", verify, "expected_degree_second_moment",
     lambda e, model: (np.zeros(e.n), np.ones(e.n)), {"trial", "model", "vertex", "ed", "ed2"}),
    ("sweep_triangle_expectation_bound", verify, "expected_triangles_exact",
     lambda e, model: 1e9, {"trial", "vectors", "triangles", "rhs"}),
    ("sweep_core_certificate", theory, "core_rank_certificate", _inflated_certificate,
     {"trial", "bound", "rank", "d"}),
]


@pytest.mark.parametrize("sweep, module, name, fault, keys", INJECTED_FAULTS,
                         ids=[fault[0].removeprefix("sweep_") for fault in INJECTED_FAULTS])
def test_verify_detects_injected_fault(monkeypatch, sweep, module, name, fault, keys):
    # every sweep's counterexample path: the witness of the first failing check
    monkeypatch.setattr(module, name, fault)
    result = getattr(verify, sweep)(seed=1)
    assert result.passed is False
    assert set(result.counterexample) == keys
    assert result.worst_margin < 0
    json.dumps(dataclasses.asdict(result))

    monkeypatch.setattr(verify, "ALL_SWEEPS", (getattr(verify, sweep),))
    report = verify.sweep_report(seed=1)
    assert report["all_passed"] is False
    assert json.loads(json.dumps(report))["properties"][0]["counterexample"].keys() == keys


def test_verify_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert cli.main(["verify-theory", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "all 7 properties passed" in out

    from embedaudit import theory
    monkeypatch.setattr(theory, "rank_lemma_bound", lambda m: 1e9)
    assert cli.main(["verify-theory", "--seed", "2"]) == 1


# ------------------------------------------------------- small subcommands

def test_embed_sample_curve_round_trip(tmp_path, capsys):
    gpath, g = write_random_graph(tmp_path, n=25, p=0.25, seed=31)
    epath = tmp_path / "emb.txt"
    assert cli.main(["embed", "--graph", str(gpath), "--dim", "25",
                     "--out", str(epath)]) == 0
    e = load_embedding(epath)
    assert e.n == 25 and e.d == 25

    spath = tmp_path / "sample.txt"
    assert cli.main(["sample", "--embedding", str(epath), "--model", "tdp",
                     "--seed", "3", "--out", str(spath)]) == 0
    text = spath.read_text()
    assert text.startswith("#")
    assert "digest=" in text
    sampled = load_edge_list(spath).graph
    # full-rank TDP reproduces the input graph exactly
    assert np.array_equal(sampled.edge_array(), g.edge_array())

    cpath = tmp_path / "curve.csv"
    assert cli.main(["curve", "--graph", str(gpath), "--out", str(cpath)]) == 0
    rows = _read_curve(cpath)
    native = triangle_foundation_curve(g)
    oracles.assert_curve_is(native, rows)
    capsys.readouterr()
    assert cli.main(["curve", "--graph", str(gpath)]) == 0
    assert capsys.readouterr().out == cpath.read_text()


def test_embedding_file_audit_writes_the_spectral_audit_csvs(tmp_path, capsys):
    # the file keeps every bit of the spectral embedding, and its lambda line
    # makes it spectral again, so the two audits sample the same models
    gpath, _ = write_random_graph(tmp_path, n=30, p=0.2, seed=7)
    epath = tmp_path / "emb.txt"
    assert cli.main(["embed", "--graph", str(gpath), "--dim", "5", "--out", str(epath)]) == 0
    assert "wrote spectral embedding" in capsys.readouterr().out
    args = ["audit", "--graph", str(gpath), "--models", "tdp,lrdp,lrhp,softmax",
            "--samples", "2", "--seed", "5"]
    assert cli.main([*args, "--dim", "5", "--out", str(tmp_path / "solved")]) == 0
    assert cli.main([*args, "--embedding", str(epath), "--out", str(tmp_path / "file")]) == 0
    solved = sorted((tmp_path / "solved").glob("*.csv"))
    assert len(solved) == 10        # 5 curves, 5 degree distributions
    for csv in solved:
        assert (tmp_path / "file" / csv.name).read_bytes() == csv.read_bytes()
    report = json.loads((tmp_path / "file" / "report.json").read_text())
    assert report["embedding_kind"] == "spectral" and report["embedding_dim"] == 5


def test_sample_fitted_model_requires_graph(tmp_path):
    gpath, _ = write_random_graph(tmp_path, n=15, p=0.3, seed=41)
    epath = tmp_path / "emb.txt"
    cli.main(["embed", "--graph", str(gpath), "--dim", "5", "--out", str(epath)])
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--embedding", str(epath), "--model", "softmax",
                  "--seed", "1", "--out", str(tmp_path / "s.txt")])
    assert exc.value.code == 2
    assert cli.main(["sample", "--embedding", str(epath), "--model", "softmax",
                     "--graph", str(gpath), "--seed", "1",
                     "--out", str(tmp_path / "s.txt")]) == 0


def test_sample_warns_on_unconverged_calibration(tmp_path, monkeypatch, caplog):
    gpath, g = write_random_graph(tmp_path, n=20)
    epath = tmp_path / "emb.txt"
    assert cli.main(["embed", "--graph", str(gpath), "--dim", "3", "--out", str(epath)]) == 0
    monkeypatch.setattr(models, "fit_lrdp", unconverged_fit)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="embedaudit.cli"):
        assert cli.main(["sample", "--embedding", str(epath), "--model", "lrdp",
                         "--graph", str(gpath), "--out", str(tmp_path / "s.txt")]) == 0
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    message = record.getMessage()
    assert "lrdp" in message and f"target {g.m} " in message and "12.5" in message


def test_cli_audit_argument_parsing(tmp_path):
    gpath = write_k4(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["audit", "--graph", str(gpath), "--dim", "4",
                     "--models", "tdp,softmax", "--samples", "3",
                     "--seed", "11", "--out", str(out)]) == 0
    assert (out / "curve_tdp.csv").exists()
    assert (out / "curve_softmax.csv").exists()
    assert not (out / "curve_lrdp.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["audit", "--dim", "2", "--seed", "-1"], "seed must be in"),
    (["audit", "--dim", "2", "--block-size", "16"], "unrecognized arguments: --block-size"),
    (["audit", "--dim", "2", "--threads", "2"], "unrecognized arguments: --threads"),
    (["ranksweep", "--ranks", "1,x"], "argument --ranks"),
    (["ranksweep", "--ranks", "0"], "ranks must be >= 1"),
    (["ranksweep", "--ranks", "2,2"], "ranks must be distinct"),
    (["audit", "--dim", "2", "--negative-ratio", "10"],
     "unrecognized arguments: --negative-ratio"),
    (["audit", "--dim", "2", "--models", "tdp,lrhp,tdp"], "models must be distinct"),
    (["audit", "--dim", "0"], "dim must be >= 1"),
])
def test_cli_config_errors_are_usage_errors(tmp_path, capsys, argv, message):
    gpath = write_k4(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--graph", str(gpath), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("embedaudit")
    assert ": error: " in err.strip().splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sample", "--seed", "-1"], "seed must be in"),
    (["sample", "--sample-index", "-3"], "argument --sample-index: must be >= 0"),
    (["sample", "--model", "lrdp", "--negative-ratio", "10"],
     "unrecognized arguments: --negative-ratio"),
    (["embed", "--dim", "0"], "argument --dim: must be >= 1"),
    (["verify-theory", "--seed", "-1"], "seed must be in"),
])
def test_building_block_arguments_are_usage_errors(tmp_path, capsys, argv, message):
    gpath = write_k4(tmp_path)
    epath = tmp_path / "k4.emb"
    save_embedding(spectral_embed(load_edge_list(gpath).graph, 2), epath)
    out = tmp_path / "out.txt"
    files = {"sample": ["--embedding", str(epath), "--graph", str(gpath)],
             "embed": ["--graph", str(gpath)], "verify-theory": []}[argv[0]]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *files, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("embedaudit") and ": error: " in last
    assert not out.exists()


def _faulty_solver(graph, d, **kwargs):
    raise RuntimeError("faulty solver")


@pytest.mark.parametrize("argv, message", [
    (["embed", "--graph", "{missing}", "--dim", "2"], "No such file or directory"),
    (["curve", "--graph", "{missing}"], "No such file or directory"),
    (["sample", "--embedding", "{missing}"], "No such file or directory"),
    (["audit", "--graph", "{missing}", "--dim", "2"], "stage 'load' failed"),
    (["embed", "--graph", "{k3}", "--dim", "5"], "need 1 <= d <= n"),
    (["audit", "--graph", "{k3}", "--dim", "5"], "need 1 <= d <= n"),
    (["curve", "--graph", "{empty}"], "the graph is empty"),
    # None: spectral_embed fails as a program would, and keeps its traceback
    (["audit", "--graph", "{k3}", "--dim", "2"], None),
    (["audit", "--graph", "{empty}", "--dim", "2"], "the graph is empty"),
    # embedding files that parse but that Embedding rejects
    (["audit", "--graph", "{k3}", "--embedding", "{unsorted}"], "eigenvalues must be sorted"),
    (["audit", "--graph", "{k3}", "--embedding", "{skewed}"], "columns must be orthonormal"),
    (["sample", "--embedding", "{unsorted}"], "eigenvalues must be sorted"),
    (["sample", "--embedding", "{skewed}"], "columns must be orthonormal"),
    # a vertex id that int64 cannot hold
    (["curve", "--graph", "{huge_id}"], "line 2: vertex id above 2^63 - 1"),
    # headers of sizes no machine can allocate, which one row does not back
    (["sample", "--embedding", "{tall}"], "missing vertex id 1"),
    (["sample", "--embedding", "{wide}"], "line 2: expected 1000000000000 values, got 3"),
])
def test_input_errors_end_in_one_line(tmp_path, capsys, monkeypatch, argv, message):
    paths = {"{missing}": tmp_path / "missing.txt", "{k3}": tmp_path / "k3.txt",
             "{empty}": tmp_path / "empty.txt", "{unsorted}": tmp_path / "unsorted.emb",
             "{skewed}": tmp_path / "skewed.emb", "{huge_id}": tmp_path / "huge_id.txt",
             "{tall}": tmp_path / "tall.emb", "{wide}": tmp_path / "wide.emb"}
    paths["{k3}"].write_text("0 1\n1 2\n0 2\n")
    paths["{empty}"].write_text("# no edges\n")
    paths["{unsorted}"].write_text("3 2 spectral\nlambda: 1.0 2.0\n0 1 0\n1 0 1\n2 0 0\n")
    paths["{skewed}"].write_text("3 2 spectral\nlambda: 2.0 1.0\n0 1 1\n1 0 0\n2 0 0\n")
    paths["{huge_id}"].write_text("0 1\n1 99999999999999999999\n")
    paths["{tall}"].write_text("100000000000 100 plain\n0" + " 0.5" * 100 + "\n")
    paths["{wide}"].write_text("3 1000000000000 plain\n0 0.5 0.5 0.5\n")
    out = tmp_path / "out"
    args = [str(paths.get(a, a)) for a in argv] + ["--out", str(out)]
    if message is None:
        monkeypatch.setattr(cli, "spectral_embed", _faulty_solver)
        with pytest.raises(AuditStageError) as exc:
            cli.main(args)
        assert isinstance(exc.value.cause, RuntimeError)
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"embedaudit {argv[0]}: error: ") and message in err
        assert err.count("\n") == 1
    assert not out.exists()


def test_every_walk_takes_the_one_tile_side(tmp_path, monkeypatch):
    # calibration, sampling, the clamp count and the softmax normalizers all
    # follow blocks.TILE; 60 vertices in 16-side tiles are 4 x 5 / 2 tiles,
    # and the normalizers score 60 / 4 blocks of a quarter tile's rows
    gpath, g = write_random_graph(tmp_path, n=60, p=0.1)
    assert g.n == 60
    monkeypatch.setattr(blocks, "TILE", 16)
    tile_walk, walks = blocks.iter_pair_tiles, []

    def counted(n, side):
        walks.append([side, 0])
        for tile in tile_walk(n, side):
            walks[-1][1] += 1
            yield tile

    score_block, softmax_rows = Embedding.score_block, []

    def recorded(self, rows, cols):
        if len(cols) == self.n:                 # a softmax normalizer block
            softmax_rows.append(len(rows))
        return score_block(self, rows, cols)

    monkeypatch.setattr(blocks, "iter_pair_tiles", counted)
    monkeypatch.setattr(Embedding, "score_block", recorded)
    report = cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(tmp_path / "o"),
                                   dim=4, models=("lrdp", "softmax"), num_samples=2))
    # the lrdp calibration passes, the clamp count, and one sampling walk per model
    assert len(walks) == report["fit_reports"]["lrdp"]["calibration_evals"] + 1 + 2
    assert walks == [[16, 10]] * len(walks)
    assert softmax_rows == [blocks.TILE // 4] * 15      # quarter-tile row blocks


def _with_src_on_path():
    src = str(Path(embedaudit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_cli_import_loads_no_scipy_module():
    # the runtime needs numpy alone; importing scipy.sparse would cost every
    # run about 0.25 s and 17 MiB before any work starts
    probe = ("import sys, embedaudit.cli; "
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", probe], env=_with_src_on_path(), check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == []


def test_audit_without_scipy_writes_the_same_csvs(tmp_path, monkeypatch):
    # every model and the folded eigensolve, in a process where any import
    # of scipy fails, against the same audit in this process
    gpath, _ = write_random_graph(tmp_path)
    args = ["audit", "--graph", str(gpath), "--dim", "4", "--samples", "2", "--seed", "3"]
    monkeypatch.setattr(embedding, "_DENSE_CUTOFF", 1)
    assert cli.main([*args, "--out", str(tmp_path / "with")]) == 0
    script = ("import sys; sys.modules['scipy'] = None; "
              "from embedaudit import cli, embedding; embedding._DENSE_CUTOFF = 1; "
              "sys.exit(cli.main(sys.argv[1:]))")
    subprocess.run([sys.executable, "-c", script, *args, "--out", str(tmp_path / "without")],
                   env=_with_src_on_path(), check=True, capture_output=True, timeout=120)
    names = sorted(p.name for p in (tmp_path / "with").glob("*.csv"))
    assert len(names) > 4
    assert names == sorted(p.name for p in (tmp_path / "without").glob("*.csv"))
    for name in names:
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()
    report = json.loads((tmp_path / "without" / "report.json").read_text())
    assert report["eigensolver"]["path"] == "folded"
    assert report["versions"].keys() == {"embedaudit", "numpy"}
