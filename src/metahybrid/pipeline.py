"""Stage-wise pipeline behind the CLI.

Each stage reads the artifacts of earlier stages from an `ArtifactStore`,
calls one methodology step of `evaluation`, and hands that step's outputs
(pickled objects, and CSV or report text from the model modules'
formatters) to the store. The store is the only writer of output files: it
writes each file once and records the sha256 of the bytes it wrote in a
content-hash manifest, which `run_stage` writes once per stage. `run_all`
passes one store through all seven stages, so each stage gets its inputs
in memory and no output file is read back; a stage run alone gets a fresh
store and loads its inputs from the output directory; the store's `read`
is the one place that refuses a pickle of an older format, and an
operating-system error on any file of the store stops the stage with one
`StageError` naming the path.

A pickle keeps only what a later stage cannot rebuild. `labeled.pkl` holds
the labeled set, the context schema and the PCA models, but no context
matrix: train-meta rebuilds the labeled users' rows from `dataset.pkl` and
`split.pkl`, as `run_all` and `run_experiment` do in memory. `meta.pkl`
holds the forest's split fields for its split nodes only.
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
# bumped whenever any pickled class's state changes; that makes every
# pickle of an output directory stale
ARTIFACT_FORMAT = 3
# what unpickling a file that is no current artifact may raise
_UNREADABLE = (pickle.UnpicklingError, EOFError, AttributeError, ImportError, KeyError,
               IndexError, TypeError, ValueError)
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
    object, or loads the file when a stage runs alone: an envelope of
    `ARTIFACT_FORMAT`, or else one `StageError`, also when the unpickling
    itself fails (an older state can raise in its class's `__setstate__`).
    The first write reads the directory's manifest, and one that is not a
    JSON object with a `files` map stops the stage before any output is
    written. An `OSError` of `read`, `write`, `write_text` or
    `write_manifest` is one `StageError` too, naming the path.
    """

    def __init__(self, outdir):
        self.outdir = outdir
        self._objects = {}
        self._manifest = None  # the directory's manifest, read before the first write
        self._recorded = {}  # digests not yet in manifest.json

    def _save(self, name: str, data: bytes):
        path = os.path.join(self.outdir, name)
        try:
            os.makedirs(self.outdir, exist_ok=True)
            if self._manifest is None:
                self._manifest = _read_manifest(os.path.join(self.outdir, MANIFEST))
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as e:
            raise _failed("write", path, e) from e
        self._recorded[name] = hashlib.sha256(data).hexdigest()

    def write_manifest(self):
        """Merge the recorded digests into manifest.json, if any were recorded."""
        if not self._recorded:
            return
        path = os.path.join(self.outdir, MANIFEST)
        self._manifest["files"].update(self._recorded)
        self._recorded = {}
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self._manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as e:
            raise _failed("write", path, e) from e

    def write(self, name: str, obj):
        self._save(name, pickle.dumps({"format_version": ARTIFACT_FORMAT, "payload": obj},
                                      protocol=4))
        self._objects[name] = obj

    def write_text(self, name: str, text: str):
        self._save(name, text.encode("utf-8"))

    def read(self, name: str, stage: str):
        if name not in self._objects:
            path = os.path.join(self.outdir, name)
            if not os.path.exists(path):
                raise StageError(f"stage '{stage}' requires missing artifact {name}; "
                                 f"run the earlier stages first")
            try:
                with open(path, "rb") as fh:
                    blob = pickle.load(fh)
            except OSError as e:
                raise _failed("read", path, e) from e
            except _UNREADABLE as e:
                raise _stale(path, f"{type(e).__name__}: {e}") from e
            version = blob.get("format_version") if isinstance(blob, dict) else None
            if version != ARTIFACT_FORMAT or "payload" not in blob:
                raise _stale(path, f"artifact format {version}, not {ARTIFACT_FORMAT}")
            self._objects[name] = blob["payload"]
        return self._objects[name]


def _read_manifest(path) -> dict:
    """The manifest at `path`, or an empty one where there is none. A file
    that is not a JSON object with a `files` map stops the stage before it
    writes anything, as does an operating-system error reading it."""
    if not os.path.exists(path):
        return {"files": {}}
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as e:
        raise _failed("read", path, e) from e
    except ValueError:  # not JSON, or not UTF-8
        manifest = None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("files"), dict):
        raise StageError(f"cannot read {path} (not a JSON object with a files map); "
                         f"remove it, or write to another output directory")
    return manifest


def _failed(action: str, path, error: OSError) -> StageError:
    """The operating system's refusal to `action` a file of the store; the
    path is the one it names (the output directory, for a failed makedirs)."""
    return StageError(f"cannot {action} {error.filename or path} "
                      f"({type(error).__name__}: {error.strerror or error})")


def _stale(path, reason: str) -> StageError:
    return StageError(f"cannot read {path} ({reason}); "
                      f"rerun every stage from ingest, or run-all")


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
    dataset = store.read("dataset.pkl", "train-meta")
    split = store.read("split.pkl", "train-meta")
    bundle = store.read("labeled.pkl", "train-meta")
    forest = ev.train_meta_step(dataset, split, bundle, cfg.forest, cfg.seed)
    # the evaluate stage pairs it with the fitted candidates
    store.write("meta.pkl", forest)
    summary = f"trained forest with {cfg.forest.n_estimators} trees on {len(bundle['labeled'].labels)} labels"
    log.info(summary)
    return {"summary": summary}


def stage_evaluate(cfg: ExperimentConfig, store: ArtifactStore) -> dict:
    dataset = store.read("dataset.pkl", "evaluate")
    split = store.read("split.pkl", "evaluate")
    bundle = store.read("labeled.pkl", "evaluate")
    meta = ev.meta_model(bundle, cfg.candidate_set(), store.read("meta.pkl", "evaluate"),
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
