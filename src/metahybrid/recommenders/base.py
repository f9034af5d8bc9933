"""Common contract for the rating predictors.

Every algorithm fits on a ratings slice, a `data.Ratings` (plus the item
catalog where it needs content features), and scores the whole catalog for
a block of users at once (`score_block`): ratings clamped to [1,5] with a
shared cold-case fallback chain, and the Top-N ordering score that
`rank_block` sorts by. The one-user forms `predict_ratings` and
`recommend_top_n` read a block of one user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..data import built_state

# algorithm name -> default params (Table-2-style defaults where the source
# pins them, house defaults otherwise)
PARAM_DEFAULTS = {
    "BaselineOnly": {"epochs": 20, "learn_rate": 0.005, "reg": 0.02},
    "SlopeOne": {},
    "CoClustering": {"user_clusters": 7, "item_clusters": 5, "epochs": 30},
    "SvdMf": {"factors": 20, "epochs": 30, "learn_rate": 0.005, "reg": 0.02,
              "init_std": 0.1},
    "KnnBasic": {"k": 50, "min_support": 1},
    "ContentBased": {},
    "WarpHybrid": {"components": 30, "epochs": 30, "learn_rate": 0.05,
                   "margin": 1.0, "max_trials": 100, "positive_threshold": 4},
}

ALGORITHMS = tuple(PARAM_DEFAULTS)

# float64 cells of one (users x catalog) block array; bounds the arrays of a block
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class RecommenderSpec:
    algorithm: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in PARAM_DEFAULTS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; "
                             f"expected one of {sorted(PARAM_DEFAULTS)}")
        unknown = set(self.params) - set(PARAM_DEFAULTS[self.algorithm])
        if unknown:
            raise ValueError(f"{self.algorithm}: unknown params {sorted(unknown)}")

    def resolved_params(self) -> dict:
        merged = dict(PARAM_DEFAULTS[self.algorithm])
        merged.update(self.params)
        return merged

    @classmethod
    def from_dict(cls, d: dict) -> "RecommenderSpec":
        extra = set(d) - {"algorithm", "params"}
        if extra:
            raise ValueError(f"unknown spec keys {sorted(extra)}")
        return cls(algorithm=d["algorithm"], params=dict(d.get("params", {})))


class FittedRecommender:
    """Base class holding the training-slice statistics and the fallback chain."""

    # attributes rebuilt from the rest of the model, left out of its pickle
    _derived = ("_item_mean_vector",)

    def __init__(self, spec: RecommenderSpec, train, items, seed: int):
        if not len(train):
            raise ValueError(f"{spec.algorithm}: empty training set")
        self.spec = spec
        self.params = spec.resolved_params()
        self.seed = seed
        self.fallback_count = 0

        # the one encoding of the slice: user index, catalog index and
        # rating of each row, in the slice's order
        self.item_ids = (sorted(items) if items else
                         [train.item_ids[c] for c in np.unique(train.item).tolist()])
        self.iidx = {iid: j for j, iid in enumerate(self.item_ids)}
        codes, users = np.unique(train.user, return_inverse=True)
        self.user_ids = [train.user_ids[c] for c in codes.tolist()]
        self.uidx = {uid: j for j, uid in enumerate(self.user_ids)}
        cols = np.array([self.iidx.get(i, -1) for i in train.item_ids])[train.item]
        if (cols < 0).any():
            raise ValueError(f"{spec.algorithm}: a rated item is not in the catalog")
        ratings = train.rating.astype(float)

        self.global_mean = float(ratings.mean())
        means = group_means(users, ratings, len(self.user_ids)).tolist()
        self.user_means = dict(zip(self.user_ids, means))
        means = group_means(cols, ratings, len(self.item_ids)).tolist()
        self.item_means = {iid: m for iid, m in zip(self.item_ids, means)
                           if not math.isnan(m)}  # NaN: nobody rated the item
        self._fit(users, cols, ratings, items)

    def _fit(self, users, cols, ratings, items):
        """Fit the algorithm on the encoded slice (indexes into `user_ids`
        and `item_ids`); `items` is the item catalog, or empty."""

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in self._derived}

    def __setstate__(self, state):
        self.__dict__.update(built_state(state))
        self._build_derived()

    def _build_derived(self):
        """Build the `_derived` attributes that are not built on first use,
        after a fit and after a load."""

    @cached_property
    def _item_mean_vector(self) -> np.ndarray:
        """Each catalog item's training mean, NaN where nobody rated it."""
        vec = np.array(list(map(self.item_means.get, self.item_ids)), dtype=float)
        vec.flags.writeable = False
        return vec

    # -- algorithm hook --------------------------------------------------

    def _estimate_block(self, codes) -> tuple:
        """The algorithm's rating estimates over `item_ids` for a block of
        users, given as indexes into `user_ids` (-1 for a user outside it).

        Returns (estimates, defined, rank), each (users x catalog): where
        `defined` is False the item takes the fallback chain; `rank` is the
        algorithm's own Top-N score, or None to rank by the rating.
        """
        raise NotImplementedError

    # -- public contract -------------------------------------------------

    def score_block(self, users, reads) -> tuple:
        """(ratings, rank), each (users x catalog): every catalog item's
        predicted rating for each of `users`, and its Top-N score, the
        rating unless the algorithm ranks by its own.

        An estimate that is undefined or not finite takes the fallback
        chain; every rating is clamped to [1, 5]. `reads`, a count or an
        array of counts of the ratings' shape, says how often the caller
        reads each rating; each read of a fallback adds 1 to
        `fallback_count`.
        """
        est, defined, rank = self._estimate_block(
            np.array([self.uidx.get(u, -1) for u in users], dtype=np.intp))
        defined = defined & np.isfinite(est)
        if not defined.all():
            self.fallback_count += int((~defined * reads).sum())
            # an item without a training mean falls through to the user
            item_means = self._item_mean_vector
            by_user = np.array([[self._fallback(u, None)] for u in users])
            est = np.where(defined, est, np.where(np.isnan(item_means), by_user, item_means))
        ratings = np.clip(est, 1.0, 5.0)
        return ratings, ratings if rank is None else rank

    def predict_ratings(self, user, items) -> np.ndarray:
        """Predicted rating of `user` for each of `items`, from one catalog
        pass. An item outside `item_ids` takes the fallback chain and adds
        1 to `fallback_count`."""
        items = list(items)
        cols = np.array([self.iidx.get(i, -1) for i in items], dtype=np.intp)
        known = cols >= 0
        reads = np.bincount(cols[known], minlength=len(self.item_ids))
        out = np.empty(len(items))
        out[known] = self.score_block([user], reads[None])[0][0, cols[known]]
        off = [self._fallback(user, i) for i, j in zip(items, cols) if j < 0]
        self.fallback_count += len(off)
        out[~known] = np.clip(off, 1.0, 5.0)
        return out

    def predict_rating(self, user, item) -> float:
        return float(self.predict_ratings(user, [item])[0])

    def _fallback(self, user, item) -> float:
        if item in self.item_means:
            return self.item_means[item]
        if user in self.user_means:
            return self.user_means[user]
        if np.isfinite(self.global_mean):
            return self.global_mean
        return 3.0

    def recommend_top_n(self, user, n: int, exclude=frozenset()) -> list:
        """Top-n catalog items by descending score, ties by ascending item id."""
        if n < 1:
            raise ValueError("n must be >= 1")
        excluded = np.zeros((1, len(self.item_ids)), dtype=bool)
        excluded[0, [self.iidx[iid] for iid in exclude if iid in self.iidx]] = True
        cols, lengths = rank_block(self.score_block([user], ~excluded)[1], excluded, n)
        return [self.item_ids[j] for j in cols[0, :lengths[0]].tolist()]


def block_rows(n_items: int) -> int:
    """Users per block of an `n_items` catalog: at most `_BLOCK_CELLS` cells."""
    return max(1, _BLOCK_CELLS // max(n_items, 1))


def rank_block(rank, excluded, n: int) -> tuple:
    """The Top-n of each row of a block, (cols, lengths): the first
    `lengths[r]` entries of `cols[r]` are row r's catalog columns by
    descending `rank`, ties by ascending column (so item id), without the
    `excluded` ones and those ranked NaN. One partition bounds each row's
    n-th best, and one `np.lexsort` orders what ranks no lower."""
    key = np.where(excluded, np.nan, -rank)  # NaN sorts last
    ranked = ~np.isnan(key)
    width = min(n, key.shape[1])
    bound = np.partition(key, width - 1, axis=1)[:, width - 1, None]
    rows, cols = np.nonzero((key <= bound) | (np.isnan(bound) & ranked))
    order = np.lexsort((cols, key[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    place = np.arange(len(rows)) - np.searchsorted(rows, rows)
    top = place < width
    out = np.zeros((len(key), width), dtype=np.intp)
    out[rows[top], place[top]] = cols[top]
    return out, np.minimum(ranked.sum(axis=1), n)


def group_means(index, ratings, n, empty=math.nan) -> np.ndarray:
    """The mean rating of each of `n` groups, `empty` for a group with none;
    exact sums, since the ratings are integers."""
    count = np.bincount(index, minlength=n)
    return np.where(count > 0, np.bincount(index, ratings, n) / np.maximum(count, 1), empty)


def by_user_item(users, cols, ratings) -> tuple:
    """The encoded slice in (user, item) order, the order of the raw ids."""
    order = np.lexsort((cols, users))
    return users[order], cols[order], ratings[order]
