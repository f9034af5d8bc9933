"""The evaluation protocol: its metric columns, and the ranking and
rating-error metrics behind them (RMSE, nDCG@p, precision/recall@k).

P@k and R@k are always taken at `CUTOFFS`. A new report column is one
entry in the column tables below, plus the cell that fills it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CUTOFFS = (3, 5, 10)
# one (candidate x column) block of the score table: P@k and R@k per cutoff,
# then nDCG, then RMSE
SCORE_COLUMNS = tuple(f"{m}@{k}" for k in CUTOFFS for m in "PR") + ("nDCG", "RMSE")
# the report's columns: every P@k, then every R@k, then nDCG and RMSE
METRIC_COLUMNS = tuple(f"{m}@{k}" for m in "PR" for k in CUTOFFS) + ("nDCG", "RMSE")


@dataclass(frozen=True)
class RelevanceConfig:
    """Which held-out ratings count as relevant, and the nDCG list length."""

    threshold: int = 4          # rating >= threshold counts as relevant for P@k / R@k
    ndcg_cutoff: int = 10

    def __post_init__(self):
        if type(self.threshold) is not int or not 1 <= self.threshold <= 5:
            raise ValueError("relevance threshold must be an int in [1,5]")
        if type(self.ndcg_cutoff) is not int or self.ndcg_cutoff < 1:
            raise ValueError("ndcg_cutoff must be an int >= 1")


def rmse(pairs) -> float:
    """Root mean squared error over (true, predicted) rating pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("rmse needs at least one pair")
    sq = 0.0
    for truth, pred in pairs:
        sq += (pred - truth) ** 2
    return math.sqrt(sq / len(pairs))


def ndcg_at(ranked_items, holdout: dict, p: int) -> float:
    """nDCG over positions 1..p with gain (2^rel - 1) / log2(i + 1) and
    graded relevance (Jarvelin & Kekalainen, TOIS 2002).

    `holdout` maps item -> held-out rating, which is the item's relevance;
    items missing from it have zero relevance. The ideal DCG uses the
    holdout's best p relevances. Returns 0.0 when the ideal DCG is zero.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rels = [float(holdout[it]) if it in holdout else 0.0
            for it in list(ranked_items)[:p]]
    dcg = sum((2.0 ** rel - 1.0) / math.log2(i + 2) for i, rel in enumerate(rels))
    ideal = sorted((float(r) for r in holdout.values()), reverse=True)[:p]
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
