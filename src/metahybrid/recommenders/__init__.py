"""Rating predictors behind a single fit/predict/rank contract."""

from __future__ import annotations

from .base import ALGORITHMS, PARAM_DEFAULTS, FittedRecommender, RecommenderSpec
from .collaborative import (
    BaselineOnlyModel,
    CoClusteringModel,
    KnnBasicModel,
    SlopeOneModel,
    SvdMfModel,
)
from .content import ContentBasedModel
from .warp import WarpHybridModel

_MODEL_CLASSES = {
    "BaselineOnly": BaselineOnlyModel,
    "SlopeOne": SlopeOneModel,
    "CoClustering": CoClusteringModel,
    "SvdMf": SvdMfModel,
    "KnnBasic": KnnBasicModel,
    "ContentBased": ContentBasedModel,
    "WarpHybrid": WarpHybridModel,
}


def fit(spec: RecommenderSpec, train, items=None, seed: int = 0) -> FittedRecommender:
    """Train `spec` on a ratings slice, a `data.Ratings`, whose item table
    is the model's catalog; content-aware algorithms need a record in
    `items` for each item of it."""
    if spec.algorithm in ("ContentBased", "WarpHybrid") and not items:
        raise ValueError(f"{spec.algorithm} requires an item catalog with features")
    return _MODEL_CLASSES[spec.algorithm](spec, train, items or {}, seed)


__all__ = [
    "ALGORITHMS",
    "PARAM_DEFAULTS",
    "FittedRecommender",
    "RecommenderSpec",
    "fit",
]
