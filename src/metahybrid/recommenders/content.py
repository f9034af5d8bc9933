"""Content-based predictor: cosine between a rating-weighted user profile
and one-hot genre/keyword item vectors."""

from __future__ import annotations

import numpy as np

from .base import FittedRecommender


def item_feature_columns(items: dict, item_ids):
    """Each item's one-hot genre and keyword columns, as (ptr, cols, width):
    the columns of `item_ids[j]` are `cols[ptr[j]:ptr[j + 1]]`, ascending,
    out of `width`.

    Columns are the sorted genres, then the sorted keywords. Raises if the
    catalog carries no features at all.
    """
    genres = sorted({g for it in items.values() for g in it.genres})
    keywords = sorted({k for it in items.values() for k in it.keywords})
    if not genres and not keywords:
        raise ValueError("item catalog has no genre/keyword features")
    gidx = {g: j for j, g in enumerate(genres)}
    kidx = {k: len(genres) + j for j, k in enumerate(keywords)}
    per_item = [[] if it is None else sorted([gidx[g] for g in it.genres]
                                             + [kidx[k] for k in it.keywords])
                for it in map(items.get, item_ids)]
    ptr = np.cumsum([0] + [len(cols) for cols in per_item])
    cols = np.array([j for cols in per_item for j in cols], dtype=np.int32)
    return ptr, cols, len(genres) + len(keywords)


def feature_matrix(ptr, cols, width, normalize: bool = True):
    """The dense item x feature matrix of `item_feature_columns` output,
    with L2-normalized rows if `normalize`."""
    mat = np.zeros((len(ptr) - 1, width))
    mat[np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)), cols] = 1.0
    if normalize:
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = np.where(norms > 0, mat / np.where(norms > 0, norms, 1.0), 0.0)
    return mat


class ContentBasedModel(FittedRecommender):
    """r_hat = 1 + 4 * cosine(user profile, item vector).

    The profile is the rating-weighted centroid of the user's rated item
    vectors; nonnegative features keep the cosine in [0,1], so the affine
    map covers the 1-5 scale.
    """

    # the pickle keeps each item's feature columns, not the dense matrix
    _derived = FittedRecommender._derived + ("features", "_item_norms")

    def _fit(self, users, cols, ratings, items):
        self._feature_ptr, self._feature_cols, self._n_features = item_feature_columns(
            items, self.item_ids)
        self._build_derived()
        # summed in the slice's order, chronological within each user
        profiles: dict = {}
        for u, j, rating in zip(users.tolist(), cols.tolist(), ratings.tolist()):
            acc = profiles.setdefault(self.user_ids[u], np.zeros(self._n_features))
            acc += rating * self.features[j]
        self.profiles = profiles
        self._profile_norms = {u: float(np.linalg.norm(v)) for u, v in profiles.items()}

    def _build_derived(self):
        """The normalized `features` matrix and its row norms (one row-norm
        pass, which may differ from a per-item norm in the last bit)."""
        self.features = feature_matrix(self._feature_ptr, self._feature_cols,
                                       self._n_features)
        self._item_norms = np.linalg.norm(self.features, axis=1)

    def _estimate_catalog(self, user, item_means):
        # one gemv, which may differ from a per-item dot in the last bit
        n = len(self.item_ids)
        pnorm = self._profile_norms.get(user, 0.0)
        if pnorm == 0.0:
            return np.zeros(n), np.zeros(n, dtype=bool)
        defined = self._item_norms != 0.0
        cos = np.divide(self.features @ self.profiles[user], pnorm * self._item_norms,
                        out=np.zeros(n), where=defined)
        return 1.0 + 4.0 * cos, defined
