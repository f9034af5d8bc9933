"""Experiment configuration: a versioned JSON file validated up front.

Every stage consumes the same config; unknown keys anywhere are rejected
so typos fail before any work starts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

from .evaluation import ContextConfig
from .forest import ForestParams
from .hybrid import CandidateSet, preset_candidates
from .metrics import RelevanceConfig
from .recommenders import RecommenderSpec
from .splits import SplitPlan

ENV_PREFIX = "METAHYBRID_"


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    dataset_format: str = "movielens"       # or "generic"
    ratings_path: str = ""
    users_path: str | None = None
    items_path: str | None = None
    metadata_path: str | None = None
    cold_start_enabled: bool = False
    cold_start_min_keep: int = 5
    cold_start_max_keep: int | None = None
    min_ratings: int = 0
    preset: str | None = "cf"
    explicit_candidates: list | None = None
    split: SplitPlan = field(default_factory=SplitPlan)
    forest: ForestParams = field(default_factory=ForestParams)
    relevance: RelevanceConfig = field(default_factory=RelevanceConfig)
    context: ContextConfig = field(default_factory=ContextConfig)
    label_cutoff: int = 10
    output_dir: str = "out"
    seed: int = 0

    def candidate_set(self) -> CandidateSet:
        if self.explicit_candidates is not None:
            specs = [RecommenderSpec.from_dict(d) for d in self.explicit_candidates]
            return CandidateSet(specs=specs, names=[s.algorithm for s in specs])
        return preset_candidates(self.preset or "cf")


def _check_keys(section: dict, allowed, where: str):
    extra = set(section) - set(allowed)
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; `overrides` win over file values.

    Environment variables with the METAHYBRID_ prefix (SEED, OUT, PRESET,
    INNER_RATIO, NDCG_CUTOFF) sit between the file and explicit flag
    overrides.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as e:
        raise ConfigError(f"missing config file: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from e

    top_keys = ("schema_version", "dataset", "cold_start", "min_ratings",
                "preset", "candidates", "split", "forest", "relevance",
                "context", "label_cutoff", "output_dir", "seed")
    _check_keys(raw, top_keys, path)
    if raw.get("schema_version") != 1:
        raise ConfigError(f"{path}: schema_version must be 1")

    ds = raw.get("dataset", {})
    _check_keys(ds, ("format", "ratings", "users", "items", "metadata"), "dataset")
    if not ds.get("ratings"):
        raise ConfigError("dataset.ratings is required")
    fmt = ds.get("format", "movielens")
    if fmt not in ("movielens", "generic"):
        raise ConfigError(f"dataset.format must be 'movielens' or 'generic', got {fmt!r}")
    if fmt == "movielens" and (not ds.get("users") or not ds.get("items")):
        raise ConfigError("movielens format requires dataset.users and dataset.items")

    cold = raw.get("cold_start", {})
    _check_keys(cold, ("enabled", "min_keep", "max_keep"), "cold_start")

    split_raw = dict(raw.get("split", {}))
    _check_keys(split_raw, ("outer_ratio", "inner_ratio", "mode"), "split")

    forest_raw = dict(raw.get("forest", {}))
    if "seed" in forest_raw:
        raise ConfigError("forest.seed has no effect: the forest's seed derives "
                          "from the top-level seed")
    _check_keys(forest_raw, (f.name for f in fields(ForestParams)), "forest")
    relevance_raw = dict(raw.get("relevance", {}))
    _check_keys(relevance_raw, ("threshold", "gain", "cutoffs", "ndcg_cutoff"),
                "relevance")
    context_raw = dict(raw.get("context", {}))
    _check_keys(context_raw, ("include_age", "max_keywords", "genre_components",
                              "keyword_components"), "context")

    if raw.get("preset") and raw.get("candidates"):
        raise ConfigError("set either preset or candidates, not both")

    merged = dict(overrides or {})
    env_map = {"SEED": ("seed", int), "OUT": ("output_dir", str),
               "PRESET": ("preset", str), "INNER_RATIO": ("inner_ratio", float),
               "NDCG_CUTOFF": ("ndcg_cutoff", int)}
    for env_key, (name, cast) in env_map.items():
        value = os.environ.get(ENV_PREFIX + env_key)
        if value is not None and name not in merged:
            merged[name] = cast(value)

    if "inner_ratio" in merged:
        split_raw["inner_ratio"] = merged.pop("inner_ratio")
    if "ndcg_cutoff" in merged:
        relevance_raw["ndcg_cutoff"] = merged.pop("ndcg_cutoff")

    try:
        cfg = ExperimentConfig(
            dataset_format=fmt,
            ratings_path=ds["ratings"],
            users_path=ds.get("users"),
            items_path=ds.get("items"),
            metadata_path=ds.get("metadata"),
            cold_start_enabled=bool(cold.get("enabled", False)),
            cold_start_min_keep=int(cold.get("min_keep", 5)),
            cold_start_max_keep=cold.get("max_keep"),
            min_ratings=int(raw.get("min_ratings", 0)),
            preset=merged.pop("preset", raw.get("preset")),
            explicit_candidates=raw.get("candidates"),
            split=SplitPlan(**split_raw),
            forest=ForestParams(**forest_raw),
            relevance=RelevanceConfig(
                threshold=relevance_raw.get("threshold", 4),
                gain=relevance_raw.get("gain", "graded"),
                cutoffs=tuple(relevance_raw.get("cutoffs", (3, 5, 10))),
                ndcg_cutoff=relevance_raw.get("ndcg_cutoff", 10)),
            context=ContextConfig(**context_raw),
            label_cutoff=int(raw.get("label_cutoff", 10)),
            output_dir=merged.pop("output_dir", raw.get("output_dir", "out")),
            seed=merged.pop("seed", int(raw.get("seed", 0))),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if merged:
        raise ConfigError(f"unknown overrides {sorted(merged)}")
    cfg.candidate_set()  # validates preset / candidate specs
    return cfg
