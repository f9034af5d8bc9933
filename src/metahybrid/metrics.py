"""Ranking and rating-error metrics: RMSE, nDCG@p, precision/recall@k."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RelevanceConfig:
    """How held-out ratings map to relevance for the ranking metrics."""

    threshold: int = 4          # rating >= threshold counts as relevant for P@k / R@k
    gain: str = "graded"        # "graded": rel = held-out rating; "binary": rel in {0,1}
    cutoffs: tuple = (3, 5, 10)
    ndcg_cutoff: int = 10

    def __post_init__(self):
        if type(self.threshold) is not int or not 1 <= self.threshold <= 5:
            raise ValueError("relevance threshold must be an int in [1,5]")
        if self.gain not in ("graded", "binary"):
            raise ValueError("gain must be 'graded' or 'binary'")
        # the report has P@k and R@k columns for k = 3, 5 and 10
        if not (isinstance(self.cutoffs, (list, tuple))
                and all(type(k) is int and k >= 1 for k in self.cutoffs)
                and {3, 5, 10} <= set(self.cutoffs)):
            raise ValueError("cutoffs must be a list of ints >= 1 that holds 3, 5 and 10")
        object.__setattr__(self, "cutoffs", tuple(self.cutoffs))
        if type(self.ndcg_cutoff) is not int or self.ndcg_cutoff < 1:
            raise ValueError("ndcg_cutoff must be an int >= 1")

    def relevance(self, rating: float) -> float:
        if self.gain == "binary":
            return 1.0 if rating >= self.threshold else 0.0
        return float(rating)


def rmse(pairs) -> float:
    """Root mean squared error over (true, predicted) rating pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("rmse needs at least one pair")
    sq = 0.0
    for truth, pred in pairs:
        sq += (pred - truth) ** 2
    return math.sqrt(sq / len(pairs))


def ndcg_at(ranked_items, holdout: dict, p: int,
            config: RelevanceConfig = RelevanceConfig()) -> float:
    """nDCG over positions 1..p with gain (2^rel - 1) / log2(i + 1).

    `holdout` maps item -> held-out rating; items missing from it have zero
    relevance. The ideal DCG uses the holdout's best p relevances. Returns
    0.0 when the ideal DCG is zero.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rels = [config.relevance(holdout[it]) if it in holdout else 0.0
            for it in list(ranked_items)[:p]]
    dcg = sum((2.0 ** rel - 1.0) / math.log2(i + 2) for i, rel in enumerate(rels))
    ideal = sorted((config.relevance(r) for r in holdout.values()), reverse=True)[:p]
    idcg = sum((2.0 ** rel - 1.0) / math.log2(i + 2) for i, rel in enumerate(ideal))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def precision_recall_at(ranked_items, relevant: set, k: int) -> tuple:
    """Precision and recall of the top-k prefix against a relevant-item set.

    Precision divides by the actual prefix length (may be < k when the
    catalog is exhausted); recall is 0 when the relevant set is empty.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    prefix = list(ranked_items)[:k]
    if not prefix:
        return 0.0, 0.0
    hits = sum(1 for it in prefix if it in relevant)
    precision = hits / len(prefix)
    recall = hits / len(relevant) if relevant else 0.0
    return precision, recall
