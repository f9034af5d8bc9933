"""The meta-hybrid core: one (users x candidates x metrics) score table,
training labels as the `oracle_select` argmax of its nDCG column (over the
test users, the same argmax is the oracle upper bound), the selection
forest, and dispatch."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import forest as rf
from .data import RatingSlice, format_float, runs
from .metrics import CUTOFFS, SCORE_COLUMNS, RelevanceConfig, rmse
from .recommenders import RecommenderSpec
from .recommenders.base import block_rows, rank_block

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


# the shipped candidate sets: 'cf' (collaborative only) and 'mixed'
PRESETS = {
    "cf": ["BaselineOnly", "CoClustering", "SlopeOne", "SvdMf"],
    "mixed": ["ContentBased", "KnnBasic", "WarpHybrid"],
}


def preset_candidates(name: str) -> CandidateSet:
    """The candidate set of a `PRESETS` entry."""
    if type(name) is not str or name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    algs = PRESETS[name]
    return CandidateSet(specs=[RecommenderSpec(a) for a in algs], names=list(algs))


@dataclass
class LabeledTrainingSet:
    """The labeled TRh users. It keeps no context matrix: the train-meta
    step rebuilds the users' rows from the split and the fitted schema and
    PCA models, bit for bit the matrix that the label step built."""
    user_ids: list
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


def score_users(fitted: dict, names, user_ids, inner_train: RatingSlice,
                inner_test: RatingSlice, relevance: RelevanceConfig,
                ndcg_cutoff: int) -> tuple:
    """One catalog Top-N per (user, candidate), without the user's inner-train
    items, scored against the user's inner holdout, from one `score_block`
    pass per (block of users, candidate).

    Every model's catalog is both slices' item table, so a slice's item
    codes are its columns; a model whose `item_ids` differ from either
    table raises `ValueError`.

    Returns (scored, table): `scored` marks the users with a non-empty
    holdout; `table` holds one (candidates x `metrics.SCORE_COLUMNS`) block
    each. Each cell is bit for bit the metric function's value on the
    candidate's `recommend_top_n` or `predict_ratings`.
    """
    for name in names:
        if name not in fitted:
            raise ValueError(f"candidate {name!r} has no fitted model")
        for part, ratings in (("inner-train", inner_train), ("inner-test", inner_test)):
            if fitted[name].item_ids != ratings.rows.item_ids:
                raise ValueError(f"candidate {name!r}: its catalog is not the "
                                 f"{part} slice's item table")
    scored = np.array([stop > start for start, stop in map(inner_test.span, user_ids)],
                      dtype=bool)
    users = [u for u, ok in zip(user_ids, scored) if ok]
    table = np.zeros((len(users), len(names), len(SCORE_COLUMNS)))
    for c, name in enumerate(names):
        step = block_rows(len(fitted[name].item_ids))
        for r0 in range(0, len(users), step):
            table[r0:r0 + step, c] = _block_cells(fitted[name], users[r0:r0 + step],
                                                  inner_train, inner_test, relevance,
                                                  ndcg_cutoff)
    return scored, table


def _block_cells(model, users, inner_train, inner_test, relevance, cutoff) -> np.ndarray:
    """One candidate's (users x columns) cells for a block of users."""
    excluded = _last_ratings(inner_train, users) > 0
    holdout = _last_ratings(inner_test, users)
    ratings, rank = model.score_block(users, ~excluded)
    cols, lengths = rank_block(rank, excluded, max(max(CUTOFFS), cutoff))
    # the holdout grade of each ranked item, 0 past a user's list
    grades = np.take_along_axis(holdout, cols, axis=1)
    grades[np.arange(cols.shape[1]) >= lengths[:, None]] = 0
    hits = np.cumsum(grades >= relevance.threshold, axis=1)
    relevant = (holdout >= relevance.threshold).sum(axis=1)
    cells = []
    for k in CUTOFFS:
        hit = hits[:, min(k, hits.shape[1]) - 1]
        cells += [_ratio(hit, np.minimum(lengths, k)), _ratio(hit, relevant)]
    ideal = np.sort(holdout, axis=1)[:, :-cutoff - 1:-1]
    cells.append(_ratio(_dcg(grades[:, :cutoff]), _dcg(ideal)))
    # each user's holdout rows by item id
    owner, item, truth = _rows_of(inner_test, users)
    order = np.lexsort((item, owner))
    owner, item, truth = owner[order], item[order], truth[order]
    pairs = iter(zip(truth.tolist(), ratings[owner, item].tolist()))
    cells.append([rmse(islice(pairs, m)) for m in np.bincount(owner).tolist()])
    return np.stack(cells, axis=1)


def _rows_of(ratings: RatingSlice, users) -> tuple:
    """(owner, item, rating) of the rows of `users` in `ratings`, user by
    user in slice order; owner indexes `users`, item the slice's item table."""
    spans = np.array([ratings.span(u) for u in users], dtype=np.int64).reshape(-1, 2)
    lengths = spans[:, 1] - spans[:, 0]
    at = runs(spans[:, 0], lengths)
    return (np.repeat(np.arange(len(users)), lengths), ratings.rows.item[at],
            ratings.rows.rating[at])


def _last_ratings(ratings: RatingSlice, users) -> np.ndarray:
    """(users x item table): each user's last rating of each item of the
    slice's item table, as a dict of the rows keeps it, 0 elsewhere; the
    table is the models' catalog, so a column is a catalog column."""
    owner, item, rating = _rows_of(ratings, users)
    grid = np.zeros((len(users), len(ratings.rows.item_ids)), dtype=np.int8)
    last = len(owner) - 1 - np.unique((owner * grid.shape[1] + item)[::-1],
                                      return_index=True)[1]
    grid[owner[last], item[last]] = rating[last]
    return grid


def _dcg(grades) -> np.ndarray:
    """Each row's DCG, as `metrics.ndcg_at` takes it: gains 2^rel - 1 (exact
    from `ldexp`), added position by position from 0."""
    total = np.zeros(len(grades))
    for i, column in enumerate((np.ldexp(1.0, grades) - 1.0).T):
        total += column / math.log2(i + 2)
    return total


def _ratio(num, den) -> np.ndarray:
    """num / den, 0.0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(num)), where=den != 0)


def generate_labels(candidates: CandidateSet, fitted: dict, user_ids,
                    inner_train: RatingSlice, inner_test: RatingSlice,
                    n: int, relevance: RelevanceConfig) -> LabeledTrainingSet:
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


def train_meta(labeled: LabeledTrainingSet, contexts,
               params: rf.ForestParams) -> rf.ForestModel:
    """Train the selection forest on (context vector -> winning label), with
    one row of `contexts` per user of `labeled.user_ids`; a
    `MetaHybridModel` pairs it with the serving models."""
    if len(labeled.labels) == 0:
        raise ValueError("empty labeled training set")
    if len(set(labeled.labels)) < 2:
        log.warning("only one label present; meta model is degenerate")
    return rf.train_forest(contexts, labeled.labels, params)


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
