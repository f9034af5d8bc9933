"""Stage-wise pipeline behind the CLI.

Each stage reads the artifacts of earlier stages from an `ArtifactStore`,
calls one methodology step of `evaluation`, and hands that step's outputs
(pickled objects, and CSV or report text from the model modules'
formatters) to the store. The store is the only writer of output files: it
writes each file once and records the sha256 of the bytes it wrote in a
content-hash manifest, which `run_stage` writes once per stage. `run_all`
passes one store through all seven stages, so each stage gets its inputs
in memory and no output file is read back; a stage run alone gets a fresh
store and loads its inputs from the output directory.
`evaluation.run_experiment` chains the same steps in memory, so a staged
run and an in-memory run produce identical reports.
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
# the one fitted candidate set, under the name perfbench/workloads.py loads
CANDIDATES = "candidates_eval.pkl"


class StageError(Exception):
    """A stage precondition failed (missing artifact, bad input)."""


class ArtifactStore:
    """The artifacts of one CLI invocation in `outdir`.

    `write` pickles an object once, writes those bytes, records their
    sha256 for the manifest and keeps the object, so a later stage of the
    same `run_all` gets it without reading the file back. `write_text`
    encodes text once and digests the same bytes. `write_manifest` writes
    the digests recorded since its last call. `read` returns a kept
    object, or loads the file when a stage runs alone.
    """

    def __init__(self, outdir):
        self.outdir = outdir
        self._objects = {}
        self._manifest = None  # merged into the directory's manifest on first write
        self._recorded = {}  # digests not yet in manifest.json

    def _save(self, name: str, data: bytes):
        os.makedirs(self.outdir, exist_ok=True)
        with open(os.path.join(self.outdir, name), "wb") as fh:
            fh.write(data)
        self._recorded[name] = hashlib.sha256(data).hexdigest()

    def write_manifest(self):
        """Merge the recorded digests into manifest.json, if any were recorded."""
        if not self._recorded:
            return
        path = os.path.join(self.outdir, MANIFEST)
        if self._manifest is None:
            self._manifest = {"files": {}}
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    self._manifest = json.load(fh)
        self._manifest["files"].update(self._recorded)
        self._recorded = {}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self._manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write(self, name: str, obj):
        self._save(name, pickle.dumps({"format_version": 1, "payload": obj}, protocol=4))
        self._objects[name] = obj

    def write_text(self, name: str, text: str):
        self._save(name, text.encode("utf-8"))

    def read(self, name: str, stage: str):
        if name not in self._objects:
            path = os.path.join(self.outdir, name)
            if not os.path.exists(path):
                raise StageError(f"stage '{stage}' requires missing artifact {name}; "
                                 f"run the earlier stages first")
            with open(path, "rb") as fh:
                blob = pickle.load(fh)
            if blob.get("format_version") != 1:
                raise StageError(f"{name}: unsupported artifact version")
            self._objects[name] = blob["payload"]
        return self._objects[name]


def stage_ingest(cfg: ExperimentConfig, store: ArtifactStore) -> dict:
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
    store.write("dataset.pkl", dataset)
    summary = (f"ingested {len(dataset.ratings)} ratings, "
               f"{len(dataset.users)} users, {len(dataset.items)} items")
    log.info(summary)
    return {"summary": summary, "dataset": dataset}


def stage_split(cfg: ExperimentConfig, store: ArtifactStore) -> dict:
    dataset = store.read("dataset.pkl", "split")
    split = ev.split_step(dataset, cfg.split, cfg.seed)
    store.write("split.pkl", split)
    summary = (f"outer split {len(split.train_users)}:{len(split.test_users)} users, "
               f"inner ratio {cfg.split.inner_ratio:.2f} ({cfg.split.mode})")
    log.info(summary)
    return {"summary": summary, "split": split}


def stage_fit_candidates(cfg: ExperimentConfig, store: ArtifactStore) -> dict:
    dataset = store.read("dataset.pkl", "fit-candidates")
    split = store.read("split.pkl", "fit-candidates")
    candidates = cfg.candidate_set()
    store.write(CANDIDATES,
                  ev.fit_step(dataset, split, candidates, cfg.seed))
    summary = f"fitted {len(candidates.names)} candidates on every user's inner-train"
    log.info(summary)
    return {"summary": summary}


def stage_label(cfg: ExperimentConfig, store: ArtifactStore) -> dict:
    dataset = store.read("dataset.pkl", "label")
    split = store.read("split.pkl", "label")
    fitted = store.read(CANDIDATES, "label")
    bundle, matrix = ev.label_step(dataset, split, cfg.candidate_set(), fitted,
                                   cfg.context, cfg.relevance, cfg.label_cutoff)
    labeled = bundle["labeled"]
    store.write("labeled.pkl", bundle)
    store.write_text("labels.csv", labeled.labels_csv())
    store.write_text("contexts_train.csv", ctx.matrix_csv(
        matrix, bundle["schema"].feature_names(), split.train_users))
    summary = (f"labeled {len(labeled.labels)} users "
               f"({len(labeled.skipped_users)} skipped, {len(labeled.tied_users)} ties)")
    log.info(summary)
    return {"summary": summary}


def stage_train_meta(cfg: ExperimentConfig, store: ArtifactStore) -> dict:
    bundle = store.read("labeled.pkl", "train-meta")
    forest = ev.train_meta_step(bundle, cfg.forest, cfg.seed)
    # the evaluate stage pairs it with the fitted candidates
    store.write("meta.pkl", forest)
    summary = f"trained forest with {cfg.forest.n_estimators} trees on {len(bundle['labeled'].labels)} labels"
    log.info(summary)
    return {"summary": summary}


def stage_evaluate(cfg: ExperimentConfig, store: ArtifactStore) -> dict:
    dataset = store.read("dataset.pkl", "evaluate")
    split = store.read("split.pkl", "evaluate")
    bundle = store.read("labeled.pkl", "evaluate")
    if bundle["schema"].version != ctx.SCHEMA_VERSION:
        raise StageError(f"labeled.pkl holds a context schema of version "
                         f"{bundle['schema'].version}, not {ctx.SCHEMA_VERSION}; rerun label")
    forest = store.read("meta.pkl", "evaluate")
    if not isinstance(forest, rf.ForestModel):
        # an output directory from an older version pickled the whole serving model
        raise StageError("meta.pkl holds no selection forest; rerun train-meta")
    meta = ev.meta_model(bundle, cfg.candidate_set(), forest,
                         store.read(CANDIDATES, "evaluate"))
    report, _, _ = ev.evaluate_step(dataset, split, meta, bundle, cfg.relevance,
                                    cfg.label_cutoff, cfg.seed, cfg.split.inner_ratio)
    store.write("evaluation.pkl", report)
    store.write_text("per_user_metrics.csv", report.per_user_csv())
    store.write_text("importances.csv", rf.importances_csv(report.importances))
    summary = f"evaluated {len(report.per_user)} users ({report.skipped_eval_users} skipped)"
    log.info(summary)
    return {"summary": summary, "report": report}


def stage_report(cfg: ExperimentConfig, store: ArtifactStore) -> dict:
    report = store.read("evaluation.pkl", "report")
    store.write_text("report.txt", report.to_text())
    store.write_text("report.json", report.to_json() + "\n")
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


def run_stage(name: str, cfg: ExperimentConfig, store: ArtifactStore) -> dict:
    """Run stage `name`, then write the manifest once for the files it
    wrote, also when it fails after writing some."""
    try:
        # looked up per call, so a wrapper put into STAGES (perfbench's tracer) runs
        return STAGES[name](cfg, store)
    finally:
        store.write_manifest()


def run_all(cfg: ExperimentConfig) -> dict:
    store = ArtifactStore(cfg.output_dir)
    result = {}
    for name in STAGES:
        result = run_stage(name, cfg, store)
    return result
