"""Rating rows for tests: (user, item, rating, timestamp) tuples as columns."""

import numpy as np

from metahybrid.data import Ratings


def columns(rows) -> tuple:
    """`rows` as four lists: user ids, item ids, ratings and timestamps."""
    rows = list(rows)
    return tuple(map(list, zip(*rows))) if rows else ([], [], [], [])


def ratings_of(rows, user_ids=None, item_ids=None) -> Ratings:
    """`rows` as `Ratings`, in their order, coded by `user_ids` and
    `item_ids` (by default the rows' sorted user and item ids)."""
    user, item, rating, timestamp = columns(rows)
    user_ids = sorted(set(user)) if user_ids is None else user_ids
    item_ids = sorted(set(item)) if item_ids is None else item_ids
    uidx = {u: k for k, u in enumerate(user_ids)}
    iidx = {i: k for k, i in enumerate(item_ids)}
    return Ratings(user_ids, item_ids, np.array([uidx[u] for u in user], dtype=np.int32),
                   np.array([iidx[i] for i in item], dtype=np.int32),
                   np.array(rating, dtype=np.int8), np.array(timestamp, dtype=np.int64))
