"""Stage-wise pipeline behind the CLI.

Each stage loads the artifacts of earlier stages from the output
directory, calls one methodology step of `evaluation`, and saves that
step's outputs (pickles and CSV exports), registering every file in a
content-hash manifest. `evaluation.run_experiment` chains the same steps
in memory, so a staged run and an in-memory run produce identical reports.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle

from . import context as ctx
from . import data as dat
from . import evaluation as ev
from . import forest as rf
from .config import ExperimentConfig
from .seeding import derive_seed

log = logging.getLogger(__name__)

MANIFEST = "manifest.json"


class StageError(Exception):
    """A stage precondition failed (missing artifact, bad input)."""


def _manifest_path(outdir):
    return os.path.join(outdir, MANIFEST)


def _load_manifest(outdir) -> dict:
    path = _manifest_path(outdir)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    return {"files": {}}


def _register(outdir, name: str):
    manifest = _load_manifest(outdir)
    with open(os.path.join(outdir, name), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    manifest["files"][name] = digest
    with open(_manifest_path(outdir), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_pickle(outdir, name: str, obj):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "wb") as fh:
        pickle.dump({"format_version": 1, "payload": obj}, fh, protocol=4)
    _register(outdir, name)


def _write_text(outdir, name: str, text: str):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    _register(outdir, name)


def _read_pickle(outdir, name: str, stage: str):
    path = os.path.join(outdir, name)
    if not os.path.exists(path):
        raise StageError(f"stage '{stage}' requires missing artifact {name}; "
                         f"run the earlier stages first")
    with open(path, "rb") as fh:
        blob = pickle.load(fh)
    if blob.get("format_version") != 1:
        raise StageError(f"{name}: unsupported artifact version")
    return blob["payload"]


def stage_ingest(cfg: ExperimentConfig) -> dict:
    if cfg.dataset_format == "movielens":
        dataset = dat.load_movielens(cfg.ratings_path, cfg.users_path, cfg.items_path)
    else:
        dataset = dat.load_generic_ratings(cfg.ratings_path)
    if cfg.metadata_path:
        dataset = dat.enrich_items(dataset, cfg.metadata_path)
    if cfg.cold_start_enabled:
        dataset = dat.induce_cold_start(dataset, derive_seed(cfg.seed, "cold-start"),
                                        cfg.cold_start_min_keep,
                                        cfg.cold_start_max_keep)
    if cfg.min_ratings > 0:
        dataset = dat.filter_min_ratings(dataset, cfg.min_ratings)
    _write_pickle(cfg.output_dir, "dataset.pkl", dataset)
    summary = (f"ingested {len(dataset.ratings)} ratings, "
               f"{len(dataset.users)} users, {len(dataset.items)} items")
    log.info(summary)
    return {"summary": summary, "dataset": dataset}


def stage_split(cfg: ExperimentConfig) -> dict:
    dataset = _read_pickle(cfg.output_dir, "dataset.pkl", "split")
    split = ev.split_step(dataset, cfg.split, cfg.seed)
    _write_pickle(cfg.output_dir, "split.pkl", split)
    summary = (f"outer split {len(split.train_users)}:{len(split.test_users)} users, "
               f"inner ratio {cfg.split.inner_ratio:.2f} ({cfg.split.mode})")
    log.info(summary)
    return {"summary": summary, "split": split}


def stage_fit_candidates(cfg: ExperimentConfig) -> dict:
    dataset = _read_pickle(cfg.output_dir, "dataset.pkl", "fit-candidates")
    split = _read_pickle(cfg.output_dir, "split.pkl", "fit-candidates")
    candidates = cfg.candidate_set()
    fitted_train, fitted_eval = ev.fit_step(dataset, split, candidates, cfg.seed)
    _write_pickle(cfg.output_dir, "candidates_train.pkl", fitted_train)
    _write_pickle(cfg.output_dir, "candidates_eval.pkl", fitted_eval)
    summary = f"fitted {len(candidates.names)} candidates on both inner-train slices"
    log.info(summary)
    return {"summary": summary}


def stage_label(cfg: ExperimentConfig) -> dict:
    dataset = _read_pickle(cfg.output_dir, "dataset.pkl", "label")
    split = _read_pickle(cfg.output_dir, "split.pkl", "label")
    fitted_train = _read_pickle(cfg.output_dir, "candidates_train.pkl", "label")
    bundle, matrix = ev.label_step(dataset, split, cfg.candidate_set(), fitted_train,
                                   cfg.context, cfg.relevance, cfg.label_cutoff)
    labeled = bundle["labeled"]
    _write_pickle(cfg.output_dir, "labeled.pkl", bundle)
    labeled.export_csv(os.path.join(cfg.output_dir, "labels.csv"))
    _register(cfg.output_dir, "labels.csv")
    ctx.export_matrix(os.path.join(cfg.output_dir, "contexts_train.csv"),
                      matrix, bundle["feature_names"], split.train_users)
    _register(cfg.output_dir, "contexts_train.csv")
    summary = (f"labeled {len(labeled.labels)} users "
               f"({len(labeled.skipped_users)} skipped, {len(labeled.tied_users)} ties)")
    log.info(summary)
    return {"summary": summary}


def stage_train_meta(cfg: ExperimentConfig) -> dict:
    bundle = _read_pickle(cfg.output_dir, "labeled.pkl", "train-meta")
    forest = ev.train_meta_step(bundle, cfg.forest, cfg.seed)
    # the evaluate stage pairs it with the serving models of candidates_eval.pkl
    _write_pickle(cfg.output_dir, "meta.pkl", forest)
    importances = rf.feature_importances(forest, bundle["feature_names"],
                                         bundle["schema"].feature_groups())
    rf.export_importances(os.path.join(cfg.output_dir, "importances.csv"), importances)
    _register(cfg.output_dir, "importances.csv")
    summary = f"trained forest with {cfg.forest.n_estimators} trees on {len(bundle['labeled'].labels)} labels"
    log.info(summary)
    return {"summary": summary}


def stage_evaluate(cfg: ExperimentConfig) -> dict:
    dataset = _read_pickle(cfg.output_dir, "dataset.pkl", "evaluate")
    split = _read_pickle(cfg.output_dir, "split.pkl", "evaluate")
    bundle = _read_pickle(cfg.output_dir, "labeled.pkl", "evaluate")
    forest = _read_pickle(cfg.output_dir, "meta.pkl", "evaluate")
    if not isinstance(forest, rf.ForestModel):
        # an output directory from an older version pickled the whole serving model
        raise StageError("meta.pkl holds no selection forest; rerun train-meta")
    meta = ev.meta_model(bundle, cfg.candidate_set(), forest,
                         _read_pickle(cfg.output_dir, "candidates_eval.pkl", "evaluate"))
    report, _, _ = ev.evaluate_step(dataset, split, meta, bundle, cfg.relevance,
                                    cfg.seed, cfg.split.inner_ratio)
    _write_pickle(cfg.output_dir, "evaluation.pkl", report)
    _write_text(cfg.output_dir, "per_user_metrics.csv", report.per_user_csv())
    summary = f"evaluated {len(report.per_user)} users ({report.skipped_eval_users} skipped)"
    log.info(summary)
    return {"summary": summary, "report": report}


def stage_report(cfg: ExperimentConfig) -> dict:
    report = _read_pickle(cfg.output_dir, "evaluation.pkl", "report")
    _write_text(cfg.output_dir, "report.txt", report.to_text())
    _write_text(cfg.output_dir, "report.json", report.to_json() + "\n")
    return {"summary": "wrote report.txt and report.json", "report": report}


STAGES = {
    "ingest": stage_ingest,
    "split": stage_split,
    "fit-candidates": stage_fit_candidates,
    "label": stage_label,
    "train-meta": stage_train_meta,
    "evaluate": stage_evaluate,
    "report": stage_report,
}

STAGE_ORDER = ("ingest", "split", "fit-candidates", "label", "train-meta",
               "evaluate", "report")


def run_all(cfg: ExperimentConfig) -> dict:
    result = {}
    for name in STAGE_ORDER:
        result = STAGES[name](cfg)
    return result
