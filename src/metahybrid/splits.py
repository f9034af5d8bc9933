"""Nested train/test splitting for the offline methodology.

The outer split partitions *users* (meta-train vs meta-test); the inner
split partitions each user's *ratings* (recommender train vs holdout),
chronologically by default so the holdout simulates future requests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, RatingEvent

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
    """Outer user sets plus the four per-user rating slices."""

    train_users: list
    test_users: list
    # slice name -> {user_id: [RatingEvent, ...]}
    train_inner_train: dict
    train_inner_test: dict
    test_inner_train: dict
    test_inner_test: dict
    single_rating_users: list = field(default_factory=list)


def _inner_split(events: list, ratio: float, mode: str, rng) -> tuple:
    """Split one user's chronological events (as `Dataset.ratings_by_user`
    lists them) into the first m and the rest, after a shuffle in random mode."""
    n = len(events)
    m = int(round(n * ratio))
    m = max(1, min(m, n))
    if mode == "random":
        events = list(events)
        rng.shuffle(events)
    return events[:m], events[m:]


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
    split = NestedSplit(train_users=train_users, test_users=test_users,
                        train_inner_train={}, train_inner_test={},
                        test_inner_train={}, test_inner_test={})
    for uids, tr, te in ((train_users, split.train_inner_train, split.train_inner_test),
                         (test_users, split.test_inner_train, split.test_inner_test)):
        for uid in uids:
            events = by_user.get(uid, [])
            if not events:
                tr[uid], te[uid] = [], []
                continue
            if len(events) == 1:
                split.single_rating_users.append(uid)
            tr[uid], te[uid] = _inner_split(events, plan.inner_ratio, plan.mode, rng)
    if split.single_rating_users:
        log.warning("%d users have a single rating; it goes to inner-train",
                    len(split.single_rating_users))
    return split


def slice_events(inner: dict) -> list:
    """Flatten a per-user slice into one rating list (stable user order)."""
    out: list[RatingEvent] = []
    for uid in sorted(inner):
        out.extend(inner[uid])
    return out
