"""Span recorder for a traced `embedaudit` run, and the layer metrics of it.

Child side: ``python3 perfbench/tracing.py SPANS.json -- <embedaudit argv>``
wraps the production-path functions below wherever an ``embedaudit`` module
binds them, runs ``embedaudit.cli.main`` and writes every span at exit.
Spans are kept in memory until then.  The run must be single-threaded (the
CLI's default ``--threads 1``): one call stack gives every span its parent.

Parent side: ``self_times`` and ``layer_metrics`` turn the span file into
the per-layer metrics named in ``LAYER_METRICS``.  A wrapped name that no
longer exists is listed as absent, and the metrics built only on absent
names are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

VARIANTS = ("tdp", "lrdp", "lrhp", "softmax")


def _n_pairs(n: int) -> int:
    return n * (n - 1) // 2


# What gets wrapped: (module, name, span, attrs).  attrs(params, result)
# reads the call's arguments, bound to their parameter names.

def _graph_m(p, r):
    return {"m": int(p["g"].m)}


def _fit_iterations(p, r):
    return {"iterations": int(r[1].iterations)}


def _score_work(p, r):
    e, entries = p["self"], len(p["rows"]) * len(p["cols"])
    return {"entries": entries, "flops": 2 * entries * e.d, "pairs": _n_pairs(e.n)}


def _prob_entries(p, r):
    return {"variant": p["self"].variant, "entries": len(p["rows"]) * len(p["cols"])}


def _sample_work(p, r):
    return {"variant": p["model"].variant, "pairs": _n_pairs(p["e"].n), "edges": int(r.m)}


FUNCTIONS = (
    ("embedaudit.cli", "cmd_audit", "cli.cmd", None),
    ("embedaudit.cli", "cmd_ranksweep", "cli.cmd", None),
    ("embedaudit.graph", "load_edge_list", "graph.load_edge_list", None),
    ("embedaudit.graph", "triangle_foundation_curve", "graph.triangle_curve", _graph_m),
    ("embedaudit.embedding", "spectral_embed", "embedding.spectral_embed", None),
    ("embedaudit.models", "fit_lrdp", "models.fit_lrdp", _fit_iterations),
    ("embedaudit.models", "fit_lrhp", "models.fit_lrhp", _fit_iterations),
    ("embedaudit.models", "build_softmax", "models.build_softmax", None),
    ("embedaudit.models", "softmax_clamp_count", "models.softmax_clamp_count", None),
    ("embedaudit.sampling", "sample_graph", "sampling.sample_graph", _sample_work),
    ("embedaudit.sampling", "curve_over_samples", "sampling.curve_over_samples", None),
    ("embedaudit.sampling", "expected_degrees", "sampling.expected_degrees", None),
)

METHODS = (
    ("embedaudit.embedding", "Embedding", "score_block", "embedding.score_block",
     _score_work),
    ("embedaudit.models", "TruncatedDot", "prob_block", "models.prob_block", _prob_entries),
    ("embedaudit.models", "LogisticDot", "prob_block", "models.prob_block", _prob_entries),
    ("embedaudit.models", "LogisticHadamard", "prob_block", "models.prob_block",
     _prob_entries),
    ("embedaudit.models", "DegreeSoftmax", "prob_block", "models.prob_block", _prob_entries),
    ("embedaudit.graph", "Graph", "from_edges", "graph.from_edges", None),
)

# generator yielding one tile per item: counted, not timed
TILE_WALK = ("embedaudit.blocks", "iter_pair_tiles")


class Recorder:
    """In-memory spans [name, parent, start, end, attrs] and two counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {"blocks.pair_walks": 0, "blocks.tiles": 0}
        self.absent = []

    def span(self, name, fn, attrs=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*a, **k):
            rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, {}]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*a, **k)
            finally:
                rec[3] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                rec[4] = attrs(sig.bind(*a, **k).arguments, result)
            return result
        return wrapper

    def tile_walk(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*a, **k):
            counters["blocks.pair_walks"] += 1
            for tile in fn(*a, **k):
                counters["blocks.tiles"] += 1
                yield tile
        return wrapper

    def install(self) -> None:
        """Wrap every target at each ``embedaudit`` module that binds it."""
        importlib.import_module("embedaudit.cli")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "embedaudit"
                                         or name.startswith("embedaudit."))]
        targets = []
        for mod, name, span, attrs in FUNCTIONS:
            fn = getattr(sys.modules[mod], name, None)
            if fn is None:
                self.absent.append(f"{mod}.{name}")
            else:
                targets.append((fn, self.span(span, fn, attrs)))
        mod, name = TILE_WALK
        fn = getattr(sys.modules[mod], name, None)
        if fn is None:
            self.absent.append(f"{mod}.{name}")
        else:
            targets.append((fn, self.tile_walk(fn)))
        for m in modules:
            for attr, value in list(vars(m).items()):
                for fn, wrapped in targets:
                    if value is fn:
                        setattr(m, attr, wrapped)

        for mod, cls_name, meth, span, attrs in METHODS:
            cls = getattr(sys.modules[mod], cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                self.absent.append(f"{mod}.{cls_name}.{meth}")
            elif isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.span(span, raw.__func__, attrs)))
            else:
                setattr(cls, meth, self.span(span, raw, attrs))

    def dump(self, path) -> None:
        doc = {"spans": self.spans, "counters": self.counters, "absent": self.absent}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# --------------------------------------------------------------- parent side

def self_times(spans) -> list:
    """Duration of each span minus the part of it its children cover."""
    children = [[] for _ in spans]
    for idx, (_, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted((spans[c][2], spans[c][3]) for c in children[idx]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


# name -> (unit, wrapped names it rests on); "*" marks a per-variant family
LAYER_METRICS = {
    "cli.cmd_self_s": ("s", ("cli.cmd",)),
    "graph.load_edge_list_s": ("s", ("graph.load_edge_list",)),
    "graph.triangle_curve_s": ("s", ("graph.triangle_curve",)),
    "graph.triangle_curve_calls": ("count", ("graph.triangle_curve",)),
    "graph.triangle_edges_per_s": ("edges/s", ("graph.triangle_curve",)),
    "graph.from_edges_s": ("s", ("graph.from_edges",)),
    "embedding.spectral_embed_s": ("s", ("embedding.spectral_embed",)),
    "embedding.spectral_embed_calls": ("count", ("embedding.spectral_embed",)),
    "embedding.score_block_s": ("s", ("embedding.score_block",)),
    "embedding.score_gflop_per_s": ("GFLOP/s", ("embedding.score_block",)),
    "embedding.score_entries_per_pair": ("ratio", ("embedding.score_block",)),
    "models.fit_lrdp_s": ("s", ("models.fit_lrdp",)),
    "models.fit_lrhp_s": ("s", ("models.fit_lrhp",)),
    "models.build_softmax_s": ("s", ("models.build_softmax",)),
    "models.softmax_clamp_count_s": ("s", ("models.softmax_clamp_count",)),
    "models.fit_evals": ("count", ("models.fit_lrdp", "models.fit_lrhp")),
    "models.prob_block_s.*": ("s", ("models.prob_block",)),
    "models.prob_block_entries.*": ("count", ("models.prob_block",)),
    "sampling.sample_graph_s.*": ("s", ("sampling.sample_graph",)),
    "sampling.sample_graph_calls": ("count", ("sampling.sample_graph",)),
    "sampling.pairs_per_s": ("pairs/s", ("sampling.sample_graph",)),
    "sampling.edges_drawn": ("count", ("sampling.sample_graph",)),
    "sampling.curve_over_samples_s": ("s", ("sampling.curve_over_samples",)),
    "sampling.expected_degrees_s": ("s", ("sampling.expected_degrees",)),
    "blocks.pair_walks": ("count", ("blocks.iter_pair_tiles",)),
    "blocks.tiles": ("count", ("blocks.iter_pair_tiles",)),
}

# metrics that count work; they must repeat exactly between traced runs
EXACT = ("graph.triangle_curve_calls", "embedding.spectral_embed_calls",
         "embedding.score_entries_per_pair", "models.fit_evals",
         "models.prob_block_entries.*", "sampling.sample_graph_calls",
         "sampling.edges_drawn", "blocks.pair_walks", "blocks.tiles")


def _expand(name):
    if name.endswith(".*"):
        return [name[:-1] + v for v in VARIANTS]
    return [name]


def metric_names() -> list:
    return [m for name in LAYER_METRICS for m in _expand(name)]


def exact_names() -> list:
    return [m for name in EXACT for m in _expand(name)]


def unit_of(metric: str) -> str:
    for name, (unit, _) in LAYER_METRICS.items():
        if metric in _expand(name):
            return unit
    raise KeyError(metric)


def _span_absent(doc) -> set:
    """Span names whose every wrapped source is missing in the program."""
    sources = {}
    for mod, name, span, _ in FUNCTIONS:
        sources.setdefault(span, []).append(f"{mod}.{name}")
    for mod, cls, meth, span, _ in METHODS:
        sources.setdefault(span, []).append(f"{mod}.{cls}.{meth}")
    sources["blocks.iter_pair_tiles"] = [".".join(TILE_WALK)]
    gone = set(doc["absent"])
    return {span for span, names in sources.items() if all(n in gone for n in names)}


def layer_metrics(doc) -> tuple[dict, list]:
    """(metric -> value, absent metric names) for one traced run."""
    spans = doc["spans"]
    by_name = {}
    for (name, _, start, end, attrs), self_s in zip(spans, self_times(spans)):
        by_name.setdefault(name, []).append((end - start, self_s, attrs))

    def pick(name, variant=None):
        return [s for s in by_name.get(name, ()) if variant in (None, s[2].get("variant"))]

    def total(name, variant=None):
        return sum(s[0] for s in pick(name, variant))

    def own(name, variant=None):
        return sum(s[1] for s in pick(name, variant))

    def attr(name, key, variant=None):
        return sum(s[2][key] for s in pick(name, variant))

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    score = pick("embedding.score_block")
    values = {
        "cli.cmd_self_s": own("cli.cmd"),
        "graph.load_edge_list_s": total("graph.load_edge_list"),
        "graph.triangle_curve_s": total("graph.triangle_curve"),
        "graph.triangle_curve_calls": len(pick("graph.triangle_curve")),
        "graph.triangle_edges_per_s": rate(attr("graph.triangle_curve", "m"),
                                           total("graph.triangle_curve")),
        "graph.from_edges_s": total("graph.from_edges"),
        "embedding.spectral_embed_s": total("embedding.spectral_embed"),
        "embedding.spectral_embed_calls": len(pick("embedding.spectral_embed")),
        "embedding.score_block_s": total("embedding.score_block"),
        "embedding.score_gflop_per_s": rate(attr("embedding.score_block", "flops"),
                                            total("embedding.score_block")) / 1e9,
        "embedding.score_entries_per_pair": (
            attr("embedding.score_block", "entries") / score[0][2]["pairs"] if score else 0.0),
        "models.fit_lrdp_s": total("models.fit_lrdp"),
        "models.fit_lrhp_s": total("models.fit_lrhp"),
        "models.build_softmax_s": total("models.build_softmax"),
        "models.softmax_clamp_count_s": total("models.softmax_clamp_count"),
        "models.fit_evals": (attr("models.fit_lrdp", "iterations")
                             + attr("models.fit_lrhp", "iterations")),
        "sampling.sample_graph_calls": len(pick("sampling.sample_graph")),
        "sampling.pairs_per_s": rate(attr("sampling.sample_graph", "pairs"),
                                     total("sampling.sample_graph")),
        "sampling.edges_drawn": attr("sampling.sample_graph", "edges"),
        "sampling.curve_over_samples_s": total("sampling.curve_over_samples"),
        "sampling.expected_degrees_s": total("sampling.expected_degrees"),
        "blocks.pair_walks": doc["counters"]["blocks.pair_walks"],
        "blocks.tiles": doc["counters"]["blocks.tiles"],
    }
    for v in VARIANTS:
        values[f"models.prob_block_s.{v}"] = own("models.prob_block", v)
        values[f"models.prob_block_entries.{v}"] = attr("models.prob_block", "entries", v)
        values[f"sampling.sample_graph_s.{v}"] = own("sampling.sample_graph", v)

    gone = _span_absent(doc)
    absent = sorted(m for name, (_, needs) in LAYER_METRICS.items()
                    if all(s in gone for s in needs) for m in _expand(name))
    return {k: v for k, v in values.items() if k not in absent}, absent


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <embedaudit arguments>", file=sys.stderr)
        return 2
    rec = Recorder()
    rec.install()
    from embedaudit import cli
    try:
        return cli.main(argv[2:])
    finally:
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
