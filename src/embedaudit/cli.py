"""Command-line driver: end-to-end audits, rank sweeps, theory checks.

Subcommands
-----------
audit         load a graph, embed it (or ingest external vectors), fit the
              requested edge models, sample graphs, and write plot-ready
              CSVs plus a JSON report
ranksweep     the same audit with the truncated-dot-product model over the
              rank-d prefixes of one spectral embedding at the largest rank
verify-theory run all randomized theory sweeps and emit a pass/fail report
embed         compute and save a spectral embedding
sample        draw one graph from an embedding + model and save its edges
curve         triangle-foundation curve of a graph as CSV

All CSV output is byte-deterministic for a fixed configuration, across
runs and processes.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .embedding import Embedding, load_embedding, save_embedding, spectral_embed
from .graph import (
    InputError,
    TriangleFoundationCurve,
    load_edge_list,
    save_curve,
    save_degree_distribution,
    save_edge_list,
    triangle_foundation_curve,
    union_grid,
)
from .models import (
    MODEL_NAMES,
    TruncatedDot,
    fit_model,
    model_digest,
    model_to_json,
    softmax_clamp_count,
)
from .sampling import curve_over_samples, sample_graph
from .verify import sweep_report

logger = logging.getLogger(__name__)


class AuditConfigError(ValueError):
    """An audit configuration is invalid; raised before any work starts."""


class AuditStageError(RuntimeError):
    """A pipeline stage failed; partial outputs have been removed."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class AuditConfig:
    graph_path: str
    output_dir: str
    dim: int = 100
    models: tuple = MODEL_NAMES
    num_samples: int = 100
    seed: int = 0
    external_embedding_path: str | None = None
    rank_sweep_list: tuple | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise AuditConfigError("dim must be >= 1")
        if self.num_samples < 1:
            raise AuditConfigError("num_samples must be >= 1")
        if not self.models:
            raise AuditConfigError("select at least one model")
        bad = [m for m in self.models if m not in MODEL_NAMES]
        if bad:
            raise AuditConfigError(f"unknown models: {bad}")
        if not 0 <= self.seed < 2**64:
            raise AuditConfigError("seed must be in [0, 2**64)")
        ranks = self.rank_sweep_list or ()
        if any(d < 1 for d in ranks):
            raise AuditConfigError("ranks must be >= 1")
        for name, values in (("models", self.models), ("ranks", ranks)):
            if len(set(values)) != len(values):
                raise AuditConfigError(f"{name} must be distinct")


def _model_sample_seed(seed: int, model_name: str) -> int:
    """Independent 64-bit sampling seed per (run seed, model)."""
    tag = MODEL_NAMES.index(model_name)
    return int(np.random.SeedSequence((seed, 1000 + tag)).generate_state(1, np.uint64)[0])


def _fit_model(name, e, g, seed):
    """``models.fit_model``, logging a warning when an intercept calibration
    did not converge."""
    model, rep = fit_model(name, e, g, seed)
    if rep is not None and not rep.converged:
        logger.warning(
            "%s intercept calibration did not converge: target %d "
            "edges, achieved %.6g expected edges",
            name, rep.target_edges, rep.achieved_expected_edges)
    return model, rep


def _run_pipeline(config: AuditConfig, variants) -> dict:
    """Load, embed, sample, curves, write and report over labelled variants.

    The embedding is the config's external file if it names one (the
    report then echoes its d as ``dim``), else the rank-``config.dim``
    spectral embedding.  ``variants(g, e)`` returns
    ``(variants, fit_reports, extras)``, where ``variants`` yields
    ``(label, embedding, model)``.  Each variant's samples are seeded by its
    model variant; its outputs are ``curve_<label>.csv`` and
    ``degdist_expected_<label>.csv``.  The output directory is made only
    when the write stage starts; returns the dict written as
    ``report.json``.
    """
    t_start = time.perf_counter()
    written = []                         # removed again if any stage fails
    stage = "load"
    try:
        loaded = load_edge_list(config.graph_path)
        g = loaded.graph

        stage = "embed"
        solve = {}
        if config.external_embedding_path:
            e = load_embedding(config.external_embedding_path)
            if e.n != g.n:
                raise InputError(f"embedding has n={e.n}, graph has n={g.n}")
            config = replace(config, dim=e.d)    # the report echoes the d it used
        else:
            e = spectral_embed(g, config.dim, report=solve)

        stage = "fit"
        labelled, fit_reports, extras = variants(g, e)

        stage = "sample"                 # one pair walk per variant: samples and degrees
        models, curve_sets = {}, {}
        for label, emb, model in labelled:
            models[label] = model
            curve_sets[label] = curve_over_samples(
                emb, model, _model_sample_seed(config.seed, model.variant),
                config.num_samples)
            del emb                      # free it before the next variant is built

        stage = "curves"
        original = triangle_foundation_curve(g)
        curves = {"original": original,
                  **{label: cs.max_curve for label, cs in curve_sets.items()}}
        grid = union_grid(curves.values())
        delta_std = {label: float(np.sqrt(cs.variance.max()))
                     for label, cs in curve_sets.items()}

        stage = "write"
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

        def target(name):
            written.append(out_dir / name)
            return written[-1]

        for label, curve in curves.items():
            save_curve(TriangleFoundationCurve(grid, curve.value_at(grid), g.n),
                       target(f"curve_{label}.csv"))
        save_degree_distribution(g.degrees, target("degdist_observed.csv"))
        for label, cs in curve_sets.items():
            save_degree_distribution(cs.expected_degrees,
                                     target(f"degdist_expected_{label}.csv"))

        report = {
            "files": {p.stem: p.name for p in written},
            "fit_reports": {k: vars(r) for k, r in fit_reports.items()},
            "config": asdict(config),
            "n": g.n,
            "m": g.m,
            "triangles": original.total_triangles(),
            "dropped_self_loops": loaded.dropped_self_loops,
            "dropped_duplicates": loaded.dropped_duplicates,
            "embedding_kind": e.kind,
            "embedding_dim": e.d,
            "eigensolver": solve or None,
            "models": {label: model_to_json(m) if m.variant != "softmax" else
                       {"variant": "softmax", "digest": model_digest(m)}
                       for label, m in models.items()},
            "max_delta_std_per_model": delta_std,
            "sampled_edges": {label: {"min": int(cs.edge_counts.min()),
                                      "median": float(np.median(cs.edge_counts)),
                                      "max": int(cs.edge_counts.max()),
                                      "draw_candidates": cs.draw_candidates}
                              for label, cs in curve_sets.items()},
            **extras,
            "versions": {"embedaudit": __version__, "numpy": np.__version__},
            "seed": config.seed,
            "wall_time_s": round(time.perf_counter() - t_start, 3),
        }
        with open(target("report.json"), "w", encoding="utf-8", newline="\n") as fh:
            # keys in the order built above, so labels keep their run order;
            # paths in the config echo may be os.PathLike
            json.dump(report, fh, indent=2, default=os.fspath)
            fh.write("\n")
        return report
    except Exception as exc:
        for p in written:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        raise AuditStageError(stage, exc) from exc


def cmd_audit(config: AuditConfig) -> dict:
    """Full audit: one embedding, sampled under each requested model.
    Returns the dict written as ``report.json``."""

    def fitted(g, e):
        labelled, fit_reports, extras = [], {}, {}
        for name in config.models:
            model, rep = _fit_model(name, e, g, config.seed)
            labelled.append((name, e, model))
            if rep is not None:
                fit_reports[name] = rep
            if name == "softmax":
                extras["softmax_clamped_pairs"] = softmax_clamp_count(model, e)
        return labelled, fit_reports, extras

    return _run_pipeline(config, fitted)


def cmd_ranksweep(config: AuditConfig) -> dict:
    """Truncated-dot-product audit across embedding ranks.

    One eigensolve at the largest rank; rank d samples the first d columns
    of it, which is the rank-d spectral embedding.  Only tdp runs, so the
    report echoes ``models`` as ``["tdp"]`` and ``dim`` as the largest rank,
    whatever the config holds.  Returns the dict written as ``report.json``.
    """
    ranks = config.rank_sweep_list
    if not ranks:
        raise AuditConfigError("ranksweep needs a non-empty rank list")
    config = replace(config, models=("tdp",), dim=max(ranks), external_embedding_path=None)

    def prefixes(g, e):
        # a generator: one prefix copy at a time lives beside the full embedding
        return ((f"rank{d}", Embedding(e.vectors[:, :d], e.eigenvalues[:d]),
                 TruncatedDot()) for d in ranks), {}, {}

    return _run_pipeline(config, prefixes)


def cmd_verify(seed: int = 0, out_path=None) -> dict:
    """Run every theory sweep; report per-property trials and worst margins."""
    report = sweep_report(seed)
    doc = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(doc + "\n", encoding="utf-8")
    return report


# --------------------------------------------------------------- arguments

def _seed(text: str) -> int:
    """argparse type of a 64-bit seed."""
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _at_least(low: int):
    """argparse type of the integers >= low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _add_common_audit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="edge-list file to audit")
    p.add_argument("--samples", type=int, default=100, help="graphs to sample per model")
    p.add_argument("--seed", type=_seed, default=0, help="64-bit master seed")
    p.add_argument("--out", required=True, help="output directory")


def _parse_ranks(text: str) -> tuple:
    try:
        ranks = tuple(int(r) for r in text.split(",") if r.strip())
    except ValueError:
        ranks = ()
    if not ranks:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    return ranks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embedaudit",
        description="Audit how well dot-product embeddings reproduce "
                    "low-degree triangle structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="full audit against one graph")
    _add_common_audit_args(p)
    p.add_argument("--dim", type=int, default=100, help="embedding dimension")
    p.add_argument("--models", default="tdp,lrdp,lrhp,softmax",
                   help="comma-separated subset of tdp,lrdp,lrhp,softmax")
    p.add_argument("--embedding", default=None,
                   help="ingest an externally produced embedding file "
                        "instead of computing the spectral one")

    p = sub.add_parser("ranksweep", help="TDP curves across embedding ranks")
    _add_common_audit_args(p)
    p.add_argument("--ranks", required=True, type=_parse_ranks,
                   help="comma-separated embedding ranks, e.g. 10,50,100")

    p = sub.add_parser("verify-theory", help="run all theory property sweeps")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("embed", help="compute and save a spectral embedding")
    p.add_argument("--graph", required=True)
    p.add_argument("--dim", type=_at_least(1), default=100)
    p.add_argument("--out", required=True, help="embedding file to write")

    p = sub.add_parser("sample", help="draw one graph from embedding + model")
    p.add_argument("--embedding", required=True)
    p.add_argument("--model", default="tdp", choices=MODEL_NAMES)
    p.add_argument("--graph", default=None,
                   help="graph to fit against (required for lrdp/lrhp/softmax)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--sample-index", type=_at_least(0), default=0)
    p.add_argument("--out", required=True, help="edge-list file to write")

    p = sub.add_parser("curve", help="triangle-foundation curve of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    return parser


def _run_audit(args) -> int:
    config = AuditConfig(
        graph_path=args.graph, output_dir=args.out, dim=args.dim,
        models=tuple(m.strip() for m in args.models.split(",") if m.strip()),
        num_samples=args.samples, seed=args.seed,
        external_embedding_path=args.embedding)
    report = cmd_audit(config)
    print(f"audit complete: n={report['n']} m={report['m']} "
          f"triangles={report['triangles']}; wrote "
          f"{len(report['files']) + 1} files to {args.out}")
    return 0


def _run_ranksweep(args) -> int:
    config = AuditConfig(
        graph_path=args.graph, output_dir=args.out,
        num_samples=args.samples, seed=args.seed, rank_sweep_list=args.ranks)
    report = cmd_ranksweep(config)
    print(f"ranksweep complete over ranks {list(args.ranks)}; wrote "
          f"{len(report['files']) + 1} files to {args.out}")
    return 0


def _run_verify(args) -> int:
    report = cmd_verify(args.seed, args.out)
    for prop in report["properties"]:
        status = "pass" if prop["passed"] else "FAIL"
        print(f"{status}  {prop['name']}: trials={prop['trials']} "
              f"worst_margin={prop['worst_margin']:.6g}")
    if not report["all_passed"]:
        print("verify-theory: FAILURE (see counterexamples in the report)")
        return 1
    print(f"verify-theory: all {len(report['properties'])} properties passed")
    return 0


def _run_embed(args) -> int:
    g = load_edge_list(args.graph).graph
    e = spectral_embed(g, args.dim)
    save_embedding(e, args.out)
    print(f"wrote {e.kind} embedding n={e.n} d={e.d} to {args.out}")
    return 0


def _run_sample(args) -> int:
    e = load_embedding(args.embedding)
    if args.model != "tdp" and not args.graph:
        raise InputError(f"--graph is required to fit the {args.model} model")
    g = load_edge_list(args.graph).graph if args.model != "tdp" else None
    model, _ = _fit_model(args.model, e, g, args.seed)
    sampled = sample_graph(e, model, args.seed, args.sample_index)
    save_edge_list(sampled, args.out, header_lines=[
        f"sampled by embedaudit {__version__}",
        f"seed={args.seed} sample_index={args.sample_index}",
        f"model={args.model} digest={model_digest(model)}",
    ])
    print(f"wrote sampled graph n={sampled.n} m={sampled.m} to {args.out}")
    return 0


def _run_curve(args) -> int:
    g = load_edge_list(args.graph).graph
    curve = triangle_foundation_curve(g)
    save_curve(curve, args.out or sys.stdout)
    if args.out:
        print(f"wrote {curve.thresholds.size} curve points to {args.out}")
    return 0


_DISPATCH = {
    "audit": _run_audit,
    "ranksweep": _run_ranksweep,
    "verify-theory": _run_verify,
    "embed": _run_embed,
    "sample": _run_sample,
    "curve": _run_curve,
}


# errors of the input, not of the program: a file that cannot be opened or
# parsed, an empty graph, a dimension above n, or a missing or mismatched
# graph
_INPUT_ERRORS = (OSError, InputError)


def main(argv=None) -> int:
    """Run one subcommand.  A bad configuration is a usage error; an input
    error, raised directly or as the cause of an AuditStageError, ends in one
    ``embedaudit <cmd>: error:`` line.  Both exit with code 2; any other
    error keeps its traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except AuditConfigError as exc:
        parser.error(str(exc))
    except (*_INPUT_ERRORS, AuditStageError) as exc:
        cause = exc.cause if isinstance(exc, AuditStageError) else exc
        if not isinstance(cause, _INPUT_ERRORS):
            raise
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
