"""Experiment configuration: a versioned JSON file validated up front.

Every stage consumes the same config; unknown keys anywhere are rejected
so typos fail before any work starts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

from .context import ContextConfig
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
        return preset_candidates("cf" if self.preset is None else self.preset)


def _object(value, allowed, where: str) -> dict:
    """A copy of `value`, which must be a JSON object holding only `allowed` keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    extra = set(value) - set(allowed)
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    return dict(value)


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
    raw = _object(raw, top_keys, path)
    if raw.get("schema_version") != 1:
        raise ConfigError(f"{path}: schema_version must be 1")

    ds = _object(raw.get("dataset", {}), ("format", "ratings", "users", "items", "metadata"),
                 "dataset")
    for key in ("ratings", "users", "items", "metadata"):
        if ds.get(key) is not None and (type(ds[key]) is not str or not ds[key]):
            raise ConfigError(f"dataset.{key} must be a non-empty path string")
    if not ds.get("ratings"):
        raise ConfigError("dataset.ratings is required")
    fmt = ds.get("format", "movielens")
    if fmt not in ("movielens", "generic"):
        raise ConfigError(f"dataset.format must be 'movielens' or 'generic', got {fmt!r}")
    if fmt == "movielens" and (not ds.get("users") or not ds.get("items")):
        raise ConfigError("movielens format requires dataset.users and dataset.items")

    cold = _object(raw.get("cold_start", {}), ("enabled", "min_keep", "max_keep"),
                   "cold_start")
    min_keep, max_keep = cold.get("min_keep", 5), cold.get("max_keep")
    if type(cold.get("enabled", False)) is not bool:
        raise ConfigError("cold_start.enabled must be true or false")
    if type(min_keep) is not int or min_keep < 1:
        raise ConfigError("cold_start.min_keep must be an int >= 1")
    if max_keep is not None and (type(max_keep) is not int or max_keep < min_keep):
        raise ConfigError("cold_start.max_keep must be null or an int >= min_keep")

    split_raw = _object(raw.get("split", {}), ("outer_ratio", "inner_ratio", "mode"), "split")
    forest_raw = _object(raw.get("forest", {}), [f.name for f in fields(ForestParams)],
                         "forest")
    if "seed" in forest_raw:
        raise ConfigError("forest.seed has no effect: the forest's seed derives "
                          "from the top-level seed")
    relevance_raw = _object(raw.get("relevance", {}),
                            [f.name for f in fields(RelevanceConfig)], "relevance")
    context_raw = _object(raw.get("context", {}), [f.name for f in fields(ContextConfig)],
                          "context")

    if raw.get("preset") is not None and raw.get("candidates") is not None:
        raise ConfigError("set either preset or candidates, not both")
    candidates = raw.get("candidates")
    if candidates is not None:
        if not isinstance(candidates, list):
            raise ConfigError("candidates must be a list of {algorithm, params} objects")
        for i, entry in enumerate(candidates):
            if not isinstance(entry, dict) or "algorithm" not in entry:
                raise ConfigError(f"candidates[{i}] must be an object with an "
                                  f"'algorithm' key, got {entry!r}")
            if not isinstance(entry.get("params", {}), dict):
                raise ConfigError(f"candidates[{i}].params must be an object")
    label_cutoff = raw.get("label_cutoff", 10)
    if type(label_cutoff) is not int or label_cutoff < 1:
        raise ConfigError("label_cutoff must be an int >= 1")
    min_ratings, seed = raw.get("min_ratings", 0), raw.get("seed", 0)
    if type(min_ratings) is not int or min_ratings < 0:
        raise ConfigError("min_ratings must be an int >= 0")
    if type(seed) is not int:
        raise ConfigError("seed must be an int")

    merged = dict(overrides or {})
    env_map = {"SEED": ("seed", int), "OUT": ("output_dir", str),
               "PRESET": ("preset", str), "INNER_RATIO": ("inner_ratio", float),
               "NDCG_CUTOFF": ("ndcg_cutoff", int)}
    for env_key, (name, cast) in env_map.items():
        value = os.environ.get(ENV_PREFIX + env_key)
        if value is not None and name not in merged:
            try:
                merged[name] = cast(value)
            except ValueError:
                raise ConfigError(f"{ENV_PREFIX}{env_key}={value!r} is not "
                                  f"a valid {cast.__name__}") from None

    # the file's value is checked even when a flag or variable replaces it
    for output_dir in (raw.get("output_dir", "out"), merged.get("output_dir", "out")):
        if type(output_dir) is not str or not output_dir:
            raise ConfigError("output_dir must be a non-empty path string")

    if "preset" in merged and raw.get("candidates") is not None:
        raise ConfigError("--preset or METAHYBRID_PRESET would be ignored: "
                          "the config lists candidates")
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
            cold_start_enabled=cold.get("enabled", False),
            cold_start_min_keep=min_keep,
            cold_start_max_keep=max_keep,
            min_ratings=min_ratings,
            preset=merged.pop("preset", raw.get("preset")),
            explicit_candidates=candidates,
            split=SplitPlan(**split_raw),
            forest=ForestParams(**forest_raw),
            relevance=RelevanceConfig(**relevance_raw),
            context=ContextConfig(**context_raw),
            label_cutoff=label_cutoff,
            output_dir=merged.pop("output_dir", raw.get("output_dir", "out")),
            seed=merged.pop("seed", seed),
        )
        cfg.candidate_set()  # validates preset / candidate specs
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if merged:
        raise ConfigError(f"unknown overrides {sorted(merged)}")
    return cfg
