"""The nested-split methodology, one function per step (`split_step`,
`fit_step`, `label_step`, `train_meta_step`, `evaluate_step`), shared by the
CLI stages and `run_experiment`, which chains them in memory; every report
row reads one `hybrid.score_users` table of the test users."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import context as ctx
from . import forest as rf
from . import hybrid as hy
from . import recommenders as rec
from .data import Dataset, RatingSlice, format_float
from .metrics import METRIC_COLUMNS, SCORE_COLUMNS, RelevanceConfig
from .seeding import derive_seed
from .splits import NestedSplit, SplitPlan, nested_split, slice_events

log = logging.getLogger(__name__)


@dataclass
class ExperimentReport:
    rows: dict                      # algorithm/Hybrid/Opt-hybrid -> metric dict
    label_distribution: dict        # training-label histogram (Figure-6 analogue)
    confusion: dict                 # actual best -> {predicted -> count}
    importances: dict               # per_column / per_attribute
    rmse_activity: dict             # candidate -> activity stats where it is RMSE-best
    per_user: list                  # per-user metric dicts, for CSV dumps
    skipped_label_users: int
    tied_label_users: int           # labels given by the tie rule, not by a best score
    skipped_eval_users: int
    seed: int
    inner_ratio: float
    candidate_names: list

    def to_text(self) -> str:
        lines = [
            f"Experiment report (seed={self.seed}, inner ratio "
            f"{self.inner_ratio:.2f}, {len(self.per_user)} evaluated users)",
            "",
            "%-14s" % "Algorithm" + "".join("%9s" % c for c in METRIC_COLUMNS),
        ]
        for name, row in self.rows.items():
            lines.append("%-14s" % name + "".join(
                "%9.4f" % row[c] for c in METRIC_COLUMNS))
        lines.append("")
        lines.append("Training-label distribution:")
        for name, count in self.label_distribution.items():
            lines.append(f"  {name}: {count}")
        lines.append(f"  ({self.tied_label_users} of these are tie-breaks "
                     f"to the first tied candidate)")
        lines.append("")
        lines.append("Classifier confusion (rows = actual best, cols = predicted):")
        names = self.candidate_names
        lines.append("%-14s" % "" + "".join("%14s" % n for n in names))
        for actual in names:
            row = self.confusion.get(actual, {})
            lines.append("%-14s" % actual + "".join(
                "%14d" % row.get(p, 0) for p in names))
        lines.append("")
        lines.append("Top feature importances (summed per attribute):")
        for name, value in list(self.importances.get("per_attribute", {}).items())[:12]:
            lines.append(f"  {name}: {value:.4f}")
        lines.append("")
        lines.append("Activity where each candidate is RMSE-best "
                     "(mean / q25 / q50 / q75 ratings):")
        for name, stats in self.rmse_activity.items():
            lines.append("  %-14s %8.2f %6.1f %6.1f %6.1f (n=%d)" % (
                name, stats["average"], stats["q25"], stats["q50"],
                stats["q75"], stats["n_users"]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """Every field but `per_user`, which `per_user_csv` writes, and
        the count of evaluated users."""
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_user"}
        payload["n_evaluated_users"] = len(self.per_user)
        return json.dumps(payload, indent=2, sort_keys=True)

    def per_user_csv(self) -> str:
        if not self.per_user:
            return "user_id\n"
        keys = [k for k in self.per_user[0] if k != "user_id"]
        lines = ["user_id," + ",".join(keys)]
        for row in self.per_user:
            lines.append(str(row["user_id"]) + "," + ",".join(
                format_float(row[k]) if isinstance(row[k], float) else str(row[k])
                for k in keys))
        return "\n".join(lines) + "\n"


def split_step(dataset: Dataset, plan: SplitPlan, master_seed: int) -> NestedSplit:
    """Steps 1-2: the outer user split and the inner rating split, seeded
    from the master seed (any seed in `plan` is ignored)."""
    plan = SplitPlan(outer_ratio=plan.outer_ratio, inner_ratio=plan.inner_ratio,
                     seed=derive_seed(master_seed, "split"), mode=plan.mode)
    return nested_split(dataset, plan)


def fit_candidates(candidates: hy.CandidateSet, train, items,
                   master_seed: int) -> dict:
    """Fit every candidate on one ratings slice; per-candidate derived seeds.
    Logs one line per fit with its rating count and wall time. (perfbench
    times the fits through this function, by name.)"""
    fitted = {}
    for name, spec in zip(candidates.names, candidates.specs):
        t0 = time.perf_counter()
        fitted[name] = rec.fit(spec, train, items=items,
                               seed=derive_seed(master_seed, "fit", name))
        log.info("fitted %s on %d ratings in %.2f s", name, len(train),
                 time.perf_counter() - t0)
    return fitted


def fit_step(dataset: Dataset, split: NestedSplit, candidates: hy.CandidateSet,
             master_seed: int) -> dict:
    """Steps 3 and 7: each candidate fitted once, on every user's inner-train
    ratings (TRh and TEh, no holdout rating). The same models label the TRh
    users and serve the TEh users, so the labels describe the served models."""
    return fit_candidates(candidates,
                          slice_events(split.train_inner_train, split.test_inner_train),
                          dataset.items, master_seed)


def build_contexts(user_ids, inner_train: RatingSlice, dataset: Dataset,
                   schema: ctx.ContextSchema, pca_genres=None, pca_keywords=None,
                   fit_pcas: bool = False):
    """The users' raw features from the inner-train slice, in one pass,
    assembled with the given (or freshly fitted) PCA models."""
    raw = ctx.extract_raw(user_ids, inner_train, dataset, schema)
    if fit_pcas:
        pca_genres, pca_keywords = ctx.fit_histogram_pcas(raw, schema)
    matrix, names = ctx.assemble_matrix(raw, pca_genres, pca_keywords, schema)
    return matrix, names, pca_genres, pca_keywords


def label_step(dataset: Dataset, split: NestedSplit, candidates: hy.CandidateSet,
               fitted: dict, context_config: ctx.ContextConfig,
               relevance: RelevanceConfig, label_cutoff: int) -> tuple:
    """Step 4: TRh contexts (fitting the PCA models), then each TRh user
    labelled with the candidate of best nDCG on their inner holdout.

    Returns (bundle, train_matrix). The bundle holds the labeled set, the
    context schema and the PCA models; the matrix has one context row per
    TRh user, in the schema's column order. The bundle keeps no matrix:
    `train_meta_step` rebuilds the rows it needs from the same inputs.
    """
    schema = ctx.build_schema(dataset.item_columns, dataset.users, context_config)
    matrix, _, pca_g, pca_k = build_contexts(
        split.train_users, split.train_inner_train, dataset, schema, fit_pcas=True)
    labeled = hy.generate_labels(candidates, fitted, split.train_users,
                                 split.train_inner_train, split.train_inner_test,
                                 n=label_cutoff, relevance=relevance)
    return {"labeled": labeled, "schema": schema, "pca_genres": pca_g,
            "pca_keywords": pca_k}, matrix


def train_meta_step(dataset: Dataset, split: NestedSplit, bundle: dict,
                    forest_params: rf.ForestParams, master_seed: int) -> rf.ForestModel:
    """Step 5: the selection forest on (context -> label), seeded from the
    master seed. The labeled users' TRh contexts are rebuilt with the label
    step's schema and PCA models; a user's row depends on that user alone,
    so they are bit for bit the label step's matrix rows of those users."""
    labeled = bundle["labeled"]
    contexts, _, _, _ = build_contexts(labeled.user_ids, split.train_inner_train, dataset,
                                       bundle["schema"], bundle["pca_genres"],
                                       bundle["pca_keywords"])
    params = replace(forest_params, seed=derive_seed(master_seed, "forest"))
    return hy.train_meta(labeled, contexts, params)


def meta_model(bundle: dict, candidates: hy.CandidateSet, forest: rf.ForestModel,
               fitted: dict) -> hy.MetaHybridModel:
    """The serving meta-hybrid: the selection forest dispatching to the fitted
    candidates that labelled its training users, with the TRh context schema
    and PCA models."""
    return hy.MetaHybridModel(candidates=candidates, fitted=fitted, forest=forest,
                              schema=bundle["schema"], pca_genres=bundle["pca_genres"],
                              pca_keywords=bundle["pca_keywords"])


def evaluate_step(dataset: Dataset, split: NestedSplit, meta: hy.MetaHybridModel,
                  bundle: dict, relevance: RelevanceConfig, label_cutoff: int,
                  master_seed: int, inner_ratio: float) -> tuple:
    """Steps 6 and 8: TEh contexts with the TRh-fitted PCA models, one
    forest walk that dispatches every TEh user, then every candidate, the
    hybrid and the oracle read from one `hy.score_users` table of the TEh
    inner-test slice, with its RMSE column.
    Its nDCG has the labels' cutoff, so the oracle is the argmax the labels
    took.

    Returns (report, dispatched, test_matrix); `dispatched` maps each TEh
    user to the candidate the forest picked.
    """
    test_matrix, _, _, _ = build_contexts(split.test_users, split.test_inner_train,
                                          dataset, meta.schema, meta.pca_genres,
                                          meta.pca_keywords)
    dispatched = dict(zip(split.test_users, rf.predict_labels(meta.forest, test_matrix)))
    names = meta.candidates.names
    scored, table = hy.score_users(meta.fitted, names, split.test_users,
                                   split.test_inner_train, split.test_inner_test,
                                   relevance, label_cutoff)
    users = [uid for uid, ok in zip(split.test_users, scored) if ok]
    report = _build_report(users, table, dispatched, split, names, bundle, meta.forest,
                           master_seed, inner_ratio)
    return report, dispatched, test_matrix


def run_experiment(dataset: Dataset, candidates: hy.CandidateSet,
                   plan: SplitPlan, forest_params: rf.ForestParams,
                   relevance: RelevanceConfig = RelevanceConfig(),
                   context_config: ctx.ContextConfig = ctx.ContextConfig(),
                   master_seed: int = 0, label_cutoff: int = 10):
    """Execute the full eight-step methodology in memory and build the report.

    Runs the same steps as the CLI stages, without the artifact files.
    Returns (report, artifacts) where artifacts carries the split, fitted
    models, labeled set, and meta model for reuse or serialization.
    """
    split = split_step(dataset, plan, master_seed)
    fitted = fit_step(dataset, split, candidates, master_seed)
    bundle, _ = label_step(dataset, split, candidates, fitted, context_config,
                           relevance, label_cutoff)
    forest = train_meta_step(dataset, split, bundle, forest_params, master_seed)
    meta = meta_model(bundle, candidates, forest, fitted)
    report, dispatched, test_matrix = evaluate_step(
        dataset, split, meta, bundle, relevance, label_cutoff, master_seed,
        plan.inner_ratio)
    artifacts = {"split": split, "schema": bundle["schema"],
                 # the key keeps its old name: perfbench/workloads.py reads it
                 "fitted_eval": fitted, "labeled": bundle["labeled"], "meta": meta,
                 "feature_names": bundle["schema"].feature_names(),
                 "dispatched": dispatched, "test_matrix": test_matrix}
    return report, artifacts


def _build_report(users, table, dispatched, split, names, bundle, forest,
                  master_seed, inner_ratio) -> ExperimentReport:
    labeled = bundle["labeled"]
    winners, _ = hy.oracle_select(table[:, :, SCORE_COLUMNS.index("nDCG")], names)
    n_train = np.array([len(split.test_inner_train[uid]) for uid in users], dtype=int)
    per_user = []
    for uid, n, block, best in zip(users, n_train.tolist(), table.tolist(), winners):
        row = {"user_id": uid, "n_train": n}
        for name, values in zip(names, block):
            row.update((f"{name}:{col}", v) for col, v in zip(SCORE_COLUMNS, values))
        row.update(dispatched=dispatched[uid], oracle=names[best])
        per_user.append(row)

    def row_for(picks) -> dict:
        chosen = table[np.arange(len(users)), picks]
        return {col: float(chosen[:, SCORE_COLUMNS.index(col)].mean()) if users else 0.0
                for col in METRIC_COLUMNS}

    rows = {name: row_for(c) for c, name in enumerate(names)}
    rows["Hybrid"] = row_for([names.index(dispatched[uid]) for uid in users])
    rows["Opt. hybrid"] = row_for(winners)

    label_dist = {n: labeled.labels.count(n) for n in names}

    confusion: dict = {}
    for u in per_user:
        actual = confusion.setdefault(u["oracle"], {})
        actual[u["dispatched"]] = actual.get(u["dispatched"], 0) + 1

    importances = rf.feature_importances(forest, bundle["schema"].feature_names(),
                                         bundle["schema"].feature_groups())

    rmse_best = table[:, :, SCORE_COLUMNS.index("RMSE")].argmin(axis=1)  # first on ties
    rmse_activity = {}
    for c, name in enumerate(names):
        arr = n_train[rmse_best == c].astype(float)
        q25, q50, q75 = np.percentile(arr, [25, 50, 75]).tolist() if arr.size else [0.0] * 3
        rmse_activity[name] = {"average": float(arr.mean()) if arr.size else 0.0,
                               "q25": q25, "q50": q50, "q75": q75,
                               "n_users": int(arr.size)}

    return ExperimentReport(
        rows=rows, label_distribution=label_dist, confusion=confusion,
        importances=importances, rmse_activity=rmse_activity, per_user=per_user,
        skipped_label_users=len(labeled.skipped_users),
        tied_label_users=len(labeled.tied_users),
        skipped_eval_users=len(split.test_users) - len(users), seed=master_seed,
        inner_ratio=inner_ratio, candidate_names=list(names))
