"""Common contract for the rating predictors.

Every algorithm fits on a ratings slice (plus the item catalog where it
needs content features), predicts ratings clamped to [1,5] with a shared
cold-case fallback chain, and ranks the catalog for Top-N recommendation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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

    # attributes rebuilt from the rest of the model, left out of its pickle;
    # a pickled state that holds one is of an older, larger layout
    _derived = ("_item_mean_vector",)
    _retired = ()  # attributes of older layouts that cannot be loaded

    def __init__(self, spec: RecommenderSpec, train, items, seed: int):
        if not train:
            raise ValueError(f"{spec.algorithm}: empty training set")
        self.spec = spec
        self.params = spec.resolved_params()
        self.seed = seed
        self.fallback_count = 0

        # the one encoding of the slice: user index, catalog index and
        # rating of each event, in the slice's order
        raw_users, raw_items, ratings = zip(*((r.user_id, r.item_id, r.rating)
                                              for r in train))
        self.item_ids = sorted(items) if items else sorted(set(raw_items))
        self.iidx = {iid: j for j, iid in enumerate(self.item_ids)}
        self.user_ids = sorted(set(raw_users))
        self.uidx = {uid: j for j, uid in enumerate(self.user_ids)}
        users = np.array([self.uidx[u] for u in raw_users])
        cols = np.array([self.iidx[i] for i in raw_items])
        ratings = np.array(ratings, dtype=float)

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
        if not set(self._derived + self._retired).isdisjoint(state):
            raise ValueError(f"{state['spec'].algorithm} model pickled by an older "
                             "version; rerun fit-candidates")
        self.__dict__.update(state)
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

    # -- algorithm hooks -------------------------------------------------

    def _estimate_catalog(self, user, item_means) -> tuple:
        """The algorithm's rating estimate for every item of `item_ids`.

        `item_means` holds each item's training mean, NaN where nobody
        rated it. Returns (estimates, defined): where `defined` is False
        the algorithm has no estimate, and the item takes the fallback
        chain.
        """
        raise NotImplementedError

    def _ratings(self, user, keep) -> np.ndarray:
        """Predicted rating of each catalog item that `keep` selects (a
        boolean mask or an index array over `item_ids`).

        An item whose estimate is undefined or not finite takes the
        fallback chain and adds 1 to `fallback_count`; every rating is
        clamped to [1, 5].
        """
        item_means = self._item_mean_vector
        est, defined = self._estimate_catalog(user, item_means)
        est, item_means = est[keep], item_means[keep]
        defined = defined[keep] & np.isfinite(est)
        if not defined.all():
            self.fallback_count += int((~defined).sum())
            # `_fallback`: an item without a training mean falls through to
            # the user mean and beyond
            fallback = np.where(np.isnan(item_means), self._fallback(user, None), item_means)
            est = np.where(defined, est, fallback)
        return np.clip(est, 1.0, 5.0)

    def _rank_catalog(self, user, keep) -> np.ndarray:
        """Top-N ordering score of each catalog item that `keep` selects;
        defaults to the predicted rating."""
        return self._ratings(user, keep)

    # -- public contract -------------------------------------------------

    def predict_ratings(self, user, items) -> np.ndarray:
        """Predicted rating of `user` for each of `items`, from one catalog
        pass. An item outside `item_ids` takes the fallback chain and adds
        1 to `fallback_count`."""
        items = list(items)
        cols = np.array([self.iidx.get(i, -1) for i in items], dtype=np.intp)
        known = cols >= 0
        out = np.empty(len(items))
        out[known] = self._ratings(user, cols[known])
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
        keep = np.ones(len(self.item_ids), dtype=bool)
        keep[[self.iidx[iid] for iid in exclude if iid in self.iidx]] = False
        scores = self._rank_catalog(user, keep)
        positions = np.flatnonzero(keep)  # ascending, so ascending item id
        order = np.lexsort((positions, -scores))[:n]
        return [self.item_ids[j] for j in positions[order]]


def group_means(index, ratings, n, empty=math.nan) -> np.ndarray:
    """The mean rating of each of `n` groups, `empty` for a group with none;
    exact sums, since the ratings are integers."""
    count = np.bincount(index, minlength=n)
    return np.where(count > 0, np.bincount(index, ratings, n) / np.maximum(count, 1), empty)


def by_user_item(users, cols, ratings) -> tuple:
    """The encoded slice in (user, item) order, the order of the raw ids."""
    order = np.lexsort((cols, users))
    return users[order], cols[order], ratings[order]
