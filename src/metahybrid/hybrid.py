"""The meta-hybrid core: label training users with their nDCG-best
recommender, train the selection forest, dispatch recommendation requests,
and compute the oracle (per-user best) upper bound."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import forest as rf
from .data import format_float
from .metrics import RelevanceConfig, ndcg_at
from .recommenders import RecommenderSpec

log = logging.getLogger(__name__)


@dataclass
class CandidateSet:
    specs: list          # ordered; the order defines tie-breaking
    names: list

    def __post_init__(self):
        if len(self.specs) < 2:
            raise ValueError("need at least 2 candidates")
        if len(self.names) != len(self.specs):
            raise ValueError("names and specs must align")
        if len(set(self.names)) != len(self.names):
            raise ValueError("candidate names must be unique")


def preset_candidates(name: str) -> CandidateSet:
    """Shipped candidate sets: 'cf' (collaborative only) and 'mixed'."""
    presets = {
        "cf": ["BaselineOnly", "CoClustering", "SlopeOne", "SvdMf"],
        "mixed": ["ContentBased", "KnnBasic", "WarpHybrid"],
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(presets)}")
    algs = presets[name]
    return CandidateSet(specs=[RecommenderSpec(a) for a in algs], names=list(algs))


@dataclass
class LabeledTrainingSet:
    user_ids: list
    contexts: np.ndarray          # aligned with user_ids
    labels: list                  # winning candidate name per user
    scores: np.ndarray            # (users, candidates) nDCG matrix
    candidate_names: list
    skipped_users: list = field(default_factory=list)   # empty holdout
    tied_users: list = field(default_factory=list)      # label assigned by tie rule

    def export_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("user_id,label," + ",".join(
                f"ndcg_{n}" for n in self.candidate_names) + "\n")
            for uid, lab, row in zip(self.user_ids, self.labels, self.scores):
                fh.write(f"{uid},{lab}," + ",".join(format_float(v) for v in row) + "\n")


def generate_labels(candidates: CandidateSet, fitted: dict, user_ids,
                    context_matrix, train_items_by_user: dict,
                    holdout_by_user: dict, n: int = 10,
                    relevance: RelevanceConfig = RelevanceConfig()) -> LabeledTrainingSet:
    """Score every candidate's Top-n per user against the inner holdout and
    record the argmax as the training label (ties: candidate-set order).

    Users with an empty holdout are skipped and counted.
    """
    for name in candidates.names:
        if name not in fitted:
            raise ValueError(f"candidate {name!r} has no fitted model")
    kept_users, kept_rows, labels, score_rows = [], [], [], []
    skipped, tied = [], []
    for row, uid in enumerate(user_ids):
        holdout = {r.item_id: r.rating for r in holdout_by_user.get(uid, [])}
        if not holdout:
            skipped.append(uid)
            continue
        exclude = train_items_by_user.get(uid, set())
        scores = []
        for name in candidates.names:
            ranked = fitted[name].recommend_top_n(uid, n, exclude=exclude)
            scores.append(ndcg_at(ranked, holdout, n, relevance))
        best = int(np.argmax(scores))
        if scores.count(scores[best]) > 1:
            tied.append(uid)
        kept_users.append(uid)
        kept_rows.append(context_matrix[row])
        labels.append(candidates.names[best])
        score_rows.append(scores)
    if skipped:
        log.info("labeling skipped %d users with empty holdouts", len(skipped))
    if tied:
        log.info("%d users had tied nDCG; first candidate assigned", len(tied))
    return LabeledTrainingSet(
        user_ids=kept_users,
        contexts=np.array(kept_rows) if kept_rows else np.zeros((0, 0)),
        labels=labels,
        scores=np.array(score_rows) if score_rows else np.zeros((0, len(candidates.names))),
        candidate_names=list(candidates.names),
        skipped_users=skipped,
        tied_users=tied,
    )


@dataclass
class MetaHybridModel:
    candidates: CandidateSet
    fitted: dict                   # candidate name -> FittedRecommender (serving models)
    forest: rf.ForestModel
    schema: object                 # ContextSchema
    pca_genres: object
    pca_keywords: object
    provenance: str = ""

    def __post_init__(self):
        if set(self.forest.labels) - set(self.candidates.names):
            raise ValueError("forest labels must be a subset of candidate names")


def train_meta(labeled: LabeledTrainingSet, params: rf.ForestParams,
               candidates: CandidateSet, fitted: dict, schema=None,
               pca_genres=None, pca_keywords=None,
               provenance: str = "") -> MetaHybridModel:
    """Train the selection forest on (context vector -> winning label)."""
    if len(labeled.labels) == 0:
        raise ValueError("empty labeled training set")
    if len(set(labeled.labels)) < 2:
        log.warning("only one label present; meta model is degenerate")
    model = rf.train_forest(labeled.contexts, labeled.labels, params)
    return MetaHybridModel(candidates=candidates, fitted=fitted, forest=model,
                           schema=schema, pca_genres=pca_genres,
                           pca_keywords=pca_keywords, provenance=provenance)


def predict_recommender(model: MetaHybridModel, context_vector) -> str:
    label, _ = rf.predict_label(model.forest, context_vector)
    return label


def recommend(model: MetaHybridModel, user_id, context_vector, n: int,
              exclude=frozenset()) -> list:
    """Top-n from the dispatched candidate; see `dispatch` for the routing."""
    name = predict_recommender(model, context_vector)
    log.debug("user %r dispatched to %s", user_id, name)
    return model.fitted[name].recommend_top_n(user_id, n, exclude=exclude)


def dispatch(model: MetaHybridModel, context_vector) -> str:
    """Expose the routing decision for traceability."""
    return predict_recommender(model, context_vector)


def oracle_select(scores: np.ndarray, candidate_names) -> tuple:
    """Per-user argmax over the candidate-score matrix (ties: first candidate).

    Returns (per-user winner indices, mean of the selected scores). The
    mean provably dominates every single candidate's mean.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != len(candidate_names):
        raise ValueError("scores must be (users x candidates)")
    winners = scores.argmax(axis=1)
    chosen = scores[np.arange(len(scores)), winners]
    return winners, float(chosen.mean()) if len(chosen) else 0.0
