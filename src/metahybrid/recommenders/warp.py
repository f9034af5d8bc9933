"""Ranking model over user embeddings and item-feature embeddings trained
with WARP loss (negative sampling until a rank violation, update scaled by
the estimated rank)."""

from __future__ import annotations

import math

import numpy as np

from .base import FittedRecommender
from .content import item_feature_matrix


class WarpHybridModel(FittedRecommender):
    """Latent-factor ranker: score(u, i) = u_vec . item_rep(i) + b_i.

    Item representations sum the embeddings of the item's content features
    plus a per-item identity feature. Positives are ratings at or above
    `positive_threshold`. The predict_rating contract is served by an
    affine rescale of each user's catalog scores onto [1,5]; rankings come
    from the raw score.
    """

    def __init__(self, spec, train, items, seed):
        if not items:
            raise ValueError("WarpHybrid requires an item catalog with features")
        super().__init__(spec, train, items, seed)
        d = self.params["components"]
        lr = self.params["learn_rate"]
        margin = self.params["margin"]
        max_trials = self.params["max_trials"]
        rng = np.random.default_rng(seed)

        content, _ = item_feature_matrix(items, self.item_ids,
                                         use_keywords=True, normalize=False)
        ni = len(self.item_ids)
        # feature index lists per item: content features then the identity feature
        n_content = content.shape[1]
        self._item_feats = [
            np.concatenate([np.flatnonzero(content[i]), [n_content + i]])
            for i in range(ni)
        ]
        nf = n_content + ni
        scale = 1.0 / math.sqrt(d)
        self.F = rng.normal(0.0, scale, size=(nf, d))
        self.U = rng.normal(0.0, scale, size=(len(self.user_ids), d))
        self.b = np.zeros(ni)

        thr = self.params["positive_threshold"]
        positives = [(self.uidx[r.user_id], self.iidx[r.item_id])
                     for r in sorted(train, key=lambda r: (r.user_id, r.item_id))
                     if r.rating >= thr]
        self._train(positives, ni, d, lr, margin, max_trials, rng)
        self._rating_scale_cache: dict = {}

    def _rep(self, i: int) -> np.ndarray:
        return self.F[self._item_feats[i]].sum(axis=0)

    def _reps(self) -> np.ndarray:
        """`_rep` of every item, one row each, adding the feature embeddings
        in the same order."""
        lengths = np.array([len(f) for f in self._item_feats])
        flat = np.concatenate(self._item_feats)
        start = np.cumsum(lengths) - lengths
        reps = np.zeros((len(lengths), self.F.shape[1]))
        for j in range(lengths.max()):
            rows = np.flatnonzero(lengths > j)
            reps[rows] += self.F[flat[start[rows] + j]]
        return reps

    def _train(self, positives, ni, d, lr, margin, max_trials, rng):
        if not positives or ni < 2:
            return
        for _ in range(self.params["epochs"]):
            order = rng.permutation(len(positives))
            for k in order:
                u, i = positives[k]
                uvec = self.U[u]
                s_pos = float(uvec @ self._rep(i)) + self.b[i]
                for trial in range(1, max_trials + 1):
                    j = int(rng.integers(0, ni))
                    if j == i:
                        continue
                    s_neg = float(uvec @ self._rep(j)) + self.b[j]
                    if s_neg > s_pos - margin:
                        weight = math.log(max(1, (ni - 1) // trial) + 1)
                        step = lr * weight
                        rep_i, rep_j = self._rep(i), self._rep(j)
                        u_old = uvec.copy()
                        self.U[u] += step * (rep_i - rep_j)
                        self.F[self._item_feats[i]] += step * u_old
                        self.F[self._item_feats[j]] -= step * u_old
                        self.b[i] += step
                        self.b[j] -= step
                        break

    def _scores(self, u: int) -> np.ndarray:
        return self._reps() @ self.U[u] + self.b

    def _rank_catalog(self, user, keep) -> np.ndarray:
        u = self.uidx.get(user)
        if u is None:
            return self.b[keep]  # popularity ordering for unseen users
        return self._scores(u)[keep]

    def _estimate(self, user, item):
        i = self.iidx.get(item)
        u = self.uidx.get(user)
        if i is None or u is None:
            return None
        lo, hi = self._rating_scale(u)
        score = float(self.U[u] @ self._rep(i)) + float(self.b[i])
        if hi <= lo:
            return 3.0
        return 1.0 + 4.0 * (score - lo) / (hi - lo)

    def _rating_scale(self, u: int) -> tuple:
        cached = self._rating_scale_cache.get(u)
        if cached is None:
            scores = self._scores(u)
            cached = (float(scores.min()), float(scores.max()))
            self._rating_scale_cache[u] = cached
        return cached
