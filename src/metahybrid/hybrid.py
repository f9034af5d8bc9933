"""The meta-hybrid core: one (users x candidates x metrics) score table,
training labels as the `oracle_select` argmax of its nDCG column (over the
test users, the same argmax is the oracle upper bound), the selection
forest, and dispatch."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import forest as rf
from .data import format_float
from .metrics import CUTOFFS, SCORE_COLUMNS, RelevanceConfig, ndcg_at, precision_recall_at
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
    if type(name) is not str or name not in presets:
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

    def labels_csv(self) -> str:
        lines = ["user_id,label," + ",".join(f"ndcg_{n}" for n in self.candidate_names)]
        for uid, lab, row in zip(self.user_ids, self.labels, self.scores):
            lines.append(f"{uid},{lab}," + ",".join(format_float(v) for v in row))
        return "\n".join(lines) + "\n"


def score_users(fitted: dict, names, user_ids, inner_train: dict, inner_test: dict,
                relevance: RelevanceConfig, ndcg_cutoff: int) -> tuple:
    """One catalog Top-N per (user, candidate), without the user's inner-train
    items, scored against the user's inner holdout.

    Returns (scored, table): `scored` marks the users with a non-empty
    holdout; `table` holds one (candidates x `metrics.SCORE_COLUMNS`) block
    each, with every column but the last, RMSE, which `evaluation` adds.
    """
    for name in names:
        if name not in fitted:
            raise ValueError(f"candidate {name!r} has no fitted model")
    top_n = max(max(CUTOFFS), ndcg_cutoff)
    scored, rows = [], []
    for uid in user_ids:
        holdout = {r.item_id: r.rating for r in inner_test.get(uid, [])}
        scored.append(bool(holdout))
        if not holdout:
            continue
        relevant = {iid for iid, r in holdout.items() if r >= relevance.threshold}
        exclude = {r.item_id for r in inner_train.get(uid, [])}
        for name in names:
            ranked = fitted[name].recommend_top_n(uid, top_n, exclude=exclude)
            for k in CUTOFFS:
                rows.extend(precision_recall_at(ranked, relevant, k))
            rows.append(ndcg_at(ranked, holdout, ndcg_cutoff))
    table = np.array(rows, dtype=float).reshape(
        sum(scored), len(names), len(SCORE_COLUMNS) - 1)
    return np.array(scored, dtype=bool), table


def generate_labels(candidates: CandidateSet, fitted: dict, user_ids,
                    context_matrix, inner_train: dict, inner_test: dict,
                    n: int = 10,
                    relevance: RelevanceConfig = RelevanceConfig()) -> LabeledTrainingSet:
    """Label each user with the `oracle_select` winner of the nDCG@n column of
    `score_users` (ties: candidate-set order, counted in `tied_users`).

    Users with an empty holdout are skipped and counted.
    """
    scored, table = score_users(fitted, candidates.names, user_ids, inner_train,
                                inner_test, relevance, n)
    scores = np.ascontiguousarray(table[:, :, SCORE_COLUMNS.index("nDCG")])
    winners, _ = oracle_select(scores, candidates.names)
    kept = [uid for uid, ok in zip(user_ids, scored) if ok]
    skipped = [uid for uid, ok in zip(user_ids, scored) if not ok]
    tied = [uid for uid, row in zip(kept, scores) if (row == row.max()).sum() > 1]
    if skipped:
        log.info("labeling skipped %d users with empty holdouts", len(skipped))
    if tied:
        log.info("%d users had tied nDCG; first candidate assigned", len(tied))
    return LabeledTrainingSet(
        user_ids=kept,
        contexts=context_matrix[scored],
        labels=[candidates.names[w] for w in winners],
        scores=scores,
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

    def __post_init__(self):
        if set(self.forest.labels) - set(self.candidates.names):
            raise ValueError("forest labels must be a subset of candidate names")


def train_meta(labeled: LabeledTrainingSet, params: rf.ForestParams) -> rf.ForestModel:
    """Train the selection forest on (context vector -> winning label); a
    `MetaHybridModel` pairs it with the serving models."""
    if len(labeled.labels) == 0:
        raise ValueError("empty labeled training set")
    if len(set(labeled.labels)) < 2:
        log.warning("only one label present; meta model is degenerate")
    return rf.train_forest(labeled.contexts, labeled.labels, params)


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
