"""Spans and counts recorded from outside the program.

`Tracer.install()` wraps the public functions of each metahybrid layer. A
module that imported a function by name holds its own reference, so every
metahybrid module attribute that is the original function object is
replaced, not only the one in the defining module. `uninstall()` puts the
originals back. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

ALGORITHMS = ("BaselineOnly", "CoClustering", "SlopeOne", "SvdMf",
              "KnnBasic", "ContentBased", "WarpHybrid")
STAGES = ("ingest", "split", "fit_candidates", "label", "train_meta",
          "evaluate", "report")

# (module, function, span name): one span per call
_FUNCTIONS = (
    ("metahybrid.data", "load_movielens", "data.load_movielens"),
    ("metahybrid.data", "enrich_items", "data.enrich_items"),
    ("metahybrid.splits", "nested_split", "splits.nested_split"),
    ("metahybrid.context", "extract_raw", "context.extract_raw"),
    ("metahybrid.context", "fit_histogram_pcas", "context.fit_pcas"),
    ("metahybrid.context", "assemble_matrix", "context.assemble"),
    ("metahybrid.hybrid", "train_meta", "hybrid.train_meta"),
    ("metahybrid.hybrid", "predict_recommender", "hybrid.dispatch"),
    ("metahybrid.forest", "predict_label", "forest.predict"),
    ("metahybrid.metrics", "ndcg_at", "metrics.ndcg_at"),
    ("metahybrid.metrics", "precision_recall_at", "metrics.precision_recall_at"),
    ("metahybrid.evaluation", "fit_candidates", "evaluation.fit_candidates"),
    ("metahybrid.evaluation", "build_contexts", "evaluation.build_contexts"),
    ("metahybrid.evaluation", "run_experiment", "evaluation.run_experiment"),
)


def per_layer_names() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"pipeline.{s}_s", "s", "lower") for s in STAGES]
    out += [("data.load_movielens_s", "s", "lower"),
            ("data.enrich_items_s", "s", "lower"),
            ("splits.nested_split_s", "s", "lower")]
    for alg in ALGORITHMS:
        p = f"recommenders.{alg}"
        out += [(f"{p}.fit_s", "s", "lower"), (f"{p}.topn_calls", "count", "lower"),
                (f"{p}.topn_ms_p50", "ms", "lower"),
                (f"{p}.predict_calls", "count", "lower"),
                (f"{p}.fallbacks", "count", "lower")]
    out += [("context.extract_raw_s", "s", "lower"), ("context.fit_pcas_s", "s", "lower"),
            ("context.assemble_s", "s", "lower"), ("context.users", "count", "lower"),
            ("hybrid.generate_labels_s", "s", "lower"), ("hybrid.labels", "count", "higher"),
            ("hybrid.tied_labels", "count", "lower"),
            ("hybrid.skipped_labels", "count", "lower"),
            ("hybrid.train_meta_s", "s", "lower"), ("hybrid.dispatch_ms_p50", "ms", "lower"),
            ("forest.train_s", "s", "lower"), ("forest.trees", "count", "lower"),
            ("forest.nodes", "count", "lower"), ("forest.predict_calls", "count", "lower"),
            ("forest.predict_us_p50", "us", "lower"),
            ("metrics.ndcg_at_s", "s", "lower"),
            ("metrics.precision_recall_at_s", "s", "lower"),
            ("evaluation.fit_candidates_s", "s", "lower"),
            ("evaluation.build_contexts_s", "s", "lower"),
            ("trace.overhead_pct", "%", "lower")]
    return out


def _count_nodes(tree) -> int:
    n, stack = 0, [tree]
    while stack:
        node = stack.pop()
        n += 1
        if node.feature is not None:
            stack += [node.left, node.right]
    return n


class Tracer:
    """Collects spans (name, start, end, parent index, request id) and counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.request_id = None
        self._stack: list = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid, name, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, t0, t1, parent, self.request_id)

    def call(self, name, fn, *args, **kwargs):
        sid, t0 = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, name, t0)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Point every metahybrid module attribute bound to `original` at
        `replacement`; record how to undo it."""
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("metahybrid") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        import metahybrid.evaluation  # noqa: F401  (loads every layer)
        import metahybrid.pipeline as pipeline
        from metahybrid import forest, hybrid
        from metahybrid import recommenders as rec
        from metahybrid.recommenders.base import FittedRecommender

        for modname, fname, span in _FUNCTIONS:
            original = getattr(sys.modules[modname], fname)
            self._replace_everywhere(original, self._wrap(span, original))

        tracer = self

        fit = rec.fit

        def traced_fit(spec, *args, **kwargs):
            return tracer.call(f"recommenders.{spec.algorithm}.fit", fit, spec,
                               *args, **kwargs)
        self._replace_everywhere(fit, traced_fit)

        train_forest = forest.train_forest

        def traced_train_forest(*args, **kwargs):
            model = tracer.call("forest.train", train_forest, *args, **kwargs)
            tracer.counts["forest.trees"] += len(model.trees)
            tracer.counts["forest.nodes"] += sum(_count_nodes(t) for t in model.trees)
            return model
        self._replace_everywhere(train_forest, traced_train_forest)

        generate_labels = hybrid.generate_labels

        def traced_generate_labels(*args, **kwargs):
            labeled = tracer.call("hybrid.generate_labels", generate_labels,
                                  *args, **kwargs)
            tracer.counts["hybrid.labels"] += len(labeled.labels)
            tracer.counts["hybrid.tied_labels"] += len(labeled.tied_users)
            tracer.counts["hybrid.skipped_labels"] += len(labeled.skipped_users)
            return labeled
        self._replace_everywhere(generate_labels, traced_generate_labels)

        topn = FittedRecommender.recommend_top_n
        predict = FittedRecommender.predict_rating
        counts = self.counts

        def traced_topn(model, *args, **kwargs):
            return tracer.call(f"recommenders.{model.spec.algorithm}.topn", topn,
                               model, *args, **kwargs)

        def counted_predict(model, user, item):
            before = model.fallback_count
            value = predict(model, user, item)
            alg = model.spec.algorithm
            counts[f"recommenders.{alg}.predict_calls"] += 1
            counts[f"recommenders.{alg}.fallbacks"] += model.fallback_count - before
            return value
        FittedRecommender.recommend_top_n = traced_topn
        FittedRecommender.predict_rating = counted_predict
        self._undo += [(FittedRecommender, "recommend_top_n", topn),
                       (FittedRecommender, "predict_rating", predict)]

        for stage, fn in list(pipeline.STAGES.items()):
            pipeline.STAGES[stage] = self._wrap(
                "pipeline." + stage.replace("-", "_"), fn)
            self._undo.append((pipeline.STAGES, stage, fn))
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo = []

    # -- summaries -------------------------------------------------------

    def self_times(self) -> dict:
        """name -> {calls, total_s, self_s}; self time excludes direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - c
        return out


def per_layer_metrics(tracer: Tracer, rounds: int, overhead_pct: float) -> dict:
    """Every per-layer metric, per traced round; 0 where a layer did not run."""
    durations: dict = defaultdict(list)
    for name, t0, t1, _, _ in tracer.spans:
        durations[name].append(t1 - t0)

    def total(span):
        return sum(durations.get(span, ())) / rounds

    def p50(span, scale):
        d = durations.get(span)
        return statistics.median(d) * scale if d else 0.0

    def count(key):
        return tracer.counts.get(key, 0) / rounds

    values = {f"pipeline.{s}_s": total(f"pipeline.{s}") for s in STAGES}
    for span in ("data.load_movielens", "data.enrich_items", "splits.nested_split",
                 "context.extract_raw", "context.fit_pcas", "context.assemble",
                 "hybrid.generate_labels", "hybrid.train_meta", "forest.train",
                 "metrics.ndcg_at", "metrics.precision_recall_at",
                 "evaluation.fit_candidates", "evaluation.build_contexts"):
        values[span + "_s"] = total(span)
    for alg in ALGORITHMS:
        p = f"recommenders.{alg}"
        values[f"{p}.fit_s"] = total(f"{p}.fit")
        values[f"{p}.topn_calls"] = len(durations.get(f"{p}.topn", ())) / rounds
        values[f"{p}.topn_ms_p50"] = p50(f"{p}.topn", 1e3)
        values[f"{p}.predict_calls"] = count(f"{p}.predict_calls")
        values[f"{p}.fallbacks"] = count(f"{p}.fallbacks")
    values["context.users"] = len(durations.get("context.extract_raw", ())) / rounds
    for key in ("hybrid.labels", "hybrid.tied_labels", "hybrid.skipped_labels",
                "forest.trees", "forest.nodes"):
        values[key] = count(key)
    values["hybrid.dispatch_ms_p50"] = p50("hybrid.dispatch", 1e3)
    values["forest.predict_calls"] = len(durations.get("forest.predict", ())) / rounds
    values["forest.predict_us_p50"] = p50("forest.predict", 1e6)
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_names()}
