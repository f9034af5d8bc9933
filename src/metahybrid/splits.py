"""Nested train/test splitting for the offline methodology.

The outer split partitions *users* (meta-train vs meta-test); the inner
split partitions each user's *ratings* (recommender train vs holdout),
chronologically by default so the holdout simulates future requests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import COLUMNS, Dataset, Ratings, RatingSlice

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class SplitPlan:
    outer_ratio: float = 0.7
    inner_ratio: float = 0.8
    seed: int = 0
    mode: str = "chronological"  # or "random"

    def __post_init__(self):
        for name in ("outer_ratio", "inner_ratio"):
            value = getattr(self, name)
            if not (isinstance(value, float) and 0 < value < 1):
                raise ValueError(f"{name} must be a number in (0,1)")
        if self.mode not in ("chronological", "random"):
            raise ValueError("mode must be 'chronological' or 'random'")


@dataclass
class NestedSplit:
    """Outer user sets plus the four per-user rating slices, each a
    `RatingSlice` over rows of the dataset's ratings, users in ascending
    order, each user's rows in the order the inner split gave them."""

    train_users: list
    test_users: list
    train_inner_train: RatingSlice
    train_inner_test: RatingSlice
    test_inner_train: RatingSlice
    test_inner_test: RatingSlice
    single_rating_users: list = field(default_factory=list)


def _inner_split(rows: np.ndarray, ratio: float, mode: str, rng) -> tuple:
    """Split one user's chronological rows into the first m and the rest,
    after a shuffle in random mode."""
    n = len(rows)
    m = int(round(n * ratio))
    m = max(1, min(m, n))
    if mode == "random":
        rows = rows.copy()
        rng.shuffle(rows)
    return rows[:m], rows[m:]


def nested_split(dataset: Dataset, plan: SplitPlan) -> NestedSplit:
    """Partition users 70:30 (outer), then each user's ratings by the inner ratio."""
    if len(dataset.users) < 10:
        raise ValueError("nested_split needs at least 10 users")
    rng = np.random.default_rng(plan.seed)
    users = sorted(dataset.users)
    perm = rng.permutation(len(users))
    n_train = int(round(plan.outer_ratio * len(users)))
    train_users = sorted(users[i] for i in perm[:n_train])
    test_users = sorted(users[i] for i in perm[n_train:])

    by_user = dataset.ratings_by_user()
    single, slices = [], []
    for uids in (train_users, test_users):
        parts = ([], [])  # each user's inner-train rows, and inner-test rows
        for uid in uids:
            start, stop = by_user.span(uid)
            if stop - start == 1:
                single.append(uid)
            tr, te = _inner_split(np.arange(start, stop), plan.inner_ratio, plan.mode, rng)
            parts[0].append(tr)
            parts[1].append(te)
        slices += [RatingSlice(dataset.ratings.take(np.concatenate([np.arange(0), *rows])),
                               uids, [len(r) for r in rows]) for rows in parts]
    if single:
        log.warning("%d users have a single rating; it goes to inner-train", len(single))
    return NestedSplit(train_users, test_users, *slices, single_rating_users=single)


def slice_events(*inners: RatingSlice) -> Ratings:
    """The rows of slices over disjoint users of one dataset as one
    `Ratings`: users in ascending order, each user's rows in slice order."""
    parts = [inner.rows for inner in inners]
    rows = Ratings(parts[0].user_ids, parts[0].item_ids,
                   *(np.concatenate([getattr(p, c) for p in parts]) for c in COLUMNS))
    return rows.take(np.argsort(rows.user, kind="stable"))
