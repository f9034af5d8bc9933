"""Content-based predictor: cosine between a rating-weighted user profile
and one-hot genre/keyword item vectors."""

from __future__ import annotations

import numpy as np

from .base import FittedRecommender


def item_feature_matrix(items: dict, item_ids, use_keywords: bool = True,
                        normalize: bool = True):
    """One-hot genre (+ keyword) vectors per item, L2-normalized rows.

    Columns are the sorted genres, then the sorted keywords. Raises if the
    catalog carries no features at all.
    """
    genres = sorted({g for it in items.values() for g in it.genres})
    keywords = sorted({k for it in items.values() for k in it.keywords}) if use_keywords else []
    if not genres and not keywords:
        raise ValueError("item catalog has no genre/keyword features")
    gidx = {g: j for j, g in enumerate(genres)}
    kidx = {k: len(genres) + j for j, k in enumerate(keywords)}
    mat = np.zeros((len(item_ids), len(genres) + len(keywords)))
    for row, iid in enumerate(item_ids):
        it = items.get(iid)
        if it is None:
            continue
        for g in it.genres:
            mat[row, gidx[g]] = 1.0
        if use_keywords:
            for k in it.keywords:
                mat[row, kidx[k]] = 1.0
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

    def __init__(self, spec, train, items, seed):
        if not items:
            raise ValueError("ContentBased requires an item catalog with features")
        super().__init__(spec, train, items, seed)
        self.features = item_feature_matrix(
            items, self.item_ids, use_keywords=self.params["use_keywords"])
        profiles: dict = {}
        for r in train:
            vec = self.features[self.iidx[r.item_id]]
            acc = profiles.setdefault(r.user_id, np.zeros(self.features.shape[1]))
            acc += r.rating * vec
        self.profiles = profiles
        self._profile_norms = {u: float(np.linalg.norm(v)) for u, v in profiles.items()}

    def _estimate_catalog(self, user, item_means):
        # one gemv and one row-norm pass, which may differ from a per-item
        # dot and norm in the last bit
        n = len(self.item_ids)
        pnorm = self._profile_norms.get(user, 0.0)
        if pnorm == 0.0:
            return np.zeros(n), np.zeros(n, dtype=bool)
        inorms = np.linalg.norm(self.features, axis=1)
        defined = inorms != 0.0
        cos = np.divide(self.features @ self.profiles[user], pnorm * inorms,
                        out=np.zeros(n), where=defined)
        return 1.0 + 4.0 * cos, defined
