"""Ranking model over user embeddings and item-feature embeddings trained
with WARP loss (negative sampling until a rank violation, update scaled by
the estimated rank)."""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .base import FittedRecommender
from .content import item_feature_matrix

_BATCH = 64  # positives scored against one snapshot of the parameters
_CHUNK = 10  # negatives scored for every positive before the rest
_NORM = 1.0  # radius of the ball that each updated row of U and F is kept in


class WarpHybridModel(FittedRecommender):
    """Latent-factor ranker: score(u, i) = u_vec . rep(i) + b_i.

    Item representations sum the embeddings of the item's content features
    plus a per-item identity feature. Positives are ratings at or above
    `positive_threshold`, and training is mini-batch WARP whose user and
    feature embeddings stay within a norm bound (see `_train`). Ratings
    are an affine rescale of each user's catalog scores onto [1,5] (3.0
    everywhere when the scores are all equal); an unseen user has none
    and takes the fallback chain. Rankings come from the raw score.
    """

    _derived = FittedRecommender._derived + ("_reps",)

    def __init__(self, spec, train, items, seed):
        if not items:
            raise ValueError("WarpHybrid requires an item catalog with features")
        super().__init__(spec, train, items, seed)
        d = self.params["components"]
        rng = np.random.default_rng(seed)

        content = item_feature_matrix(items, self.item_ids,
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
        self._train(positives, content, rng)

    @cached_property
    def _reps(self) -> np.ndarray:
        """Each item's representation, one row each: the sum of its feature
        embeddings, added in `_item_feats` order."""
        lengths = np.array([len(f) for f in self._item_feats])
        flat = np.concatenate(self._item_feats)
        start = np.cumsum(lengths) - lengths
        reps = np.zeros((len(lengths), self.F.shape[1]))
        for j in range(lengths.max()):
            rows = np.flatnonzero(lengths > j)
            reps[rows] += self.F[flat[start[rows] + j]]
        return reps

    def _train(self, positives, content, rng):
        """Mini-batch WARP with a norm bound.

        Each epoch shuffles the positives (user, item) and cuts them into
        batches of `_BATCH`, each scored against one snapshot of U, F and b
        (the stale-snapshot updates of Kula, LightFM, CBRecSys 2015). A
        positive draws its `max_trials` negatives at once. The first draw
        j != i that violates the margin, s(u, j) > s(u, i) - margin, at
        trial t (every draw counts, j == i too) gives a step of
        lr * log(max(1, (ni - 1) // t) + 1); a positive with no violator
        takes none. The first `_CHUNK` draws are scored for every positive,
        the rest only where they found none. The batch's steps are
        scatter-added, so repeated users, items and feature rows
        accumulate, and then every touched row of U and F is projected onto
        the ball of radius `_NORM` (the norm constraint of Weston, Bengio &
        Usunier, WSABIE, IJCAI 2011).

        `content` is the one-hot item x content-feature matrix; F holds its
        columns' embeddings, then one identity row per item.
        """
        ni, nc = content.shape
        if not positives or ni < 2:
            return
        lr, margin = self.params["learn_rate"], self.params["margin"]
        max_trials = self.params["max_trials"]
        F, U, b = self.F, self.U, self.b
        pos_u, pos_i = np.array(positives).T
        for _ in range(self.params["epochs"]):
            order = rng.permutation(len(positives))
            for start in range(0, len(order), _BATCH):
                batch = order[start:start + _BATCH]
                u, i = pos_u[batch], pos_i[batch]
                reps = content @ F[:nc] + F[nc:]
                uvec = U[u]
                threshold = np.einsum("bd,bd->b", uvec, reps[i]) + b[i] - margin
                draws = rng.integers(0, ni, size=(len(batch), max_trials))
                hit = np.full(len(batch), -1)  # trial index of the first violator
                rows = np.arange(len(batch))
                lo = 0
                for hi in (min(_CHUNK, max_trials), max_trials):
                    if not rows.size or hi <= lo:
                        continue
                    js = draws[rows, lo:hi]
                    s_neg = np.matmul(reps[js], uvec[rows, :, None])[..., 0] + b[js]
                    violates = (s_neg > threshold[rows, None]) & (js != i[rows, None])
                    found = violates.any(axis=1)
                    hit[rows[found]] = lo + violates[found].argmax(axis=1)
                    rows, lo = rows[~found], hi
                took = np.flatnonzero(hit >= 0)
                if not took.size:
                    continue
                u, i, uvec = u[took], i[took], uvec[took]
                j = draws[took, hit[took]]
                step = lr * np.log(np.maximum(1, (ni - 1) // (hit[took] + 1)) + 1)
                delta = step[:, None] * uvec
                np.add.at(U, u, step[:, None] * (reps[i] - reps[j]))
                F[:nc] += (content[i] - content[j]).T @ delta
                np.add.at(F, nc + i, delta)
                np.add.at(F, nc + j, -delta)
                np.add.at(b, i, step)
                np.add.at(b, j, -step)
                touched = np.flatnonzero((content[i] + content[j]).any(axis=0))
                _project(U, u)
                _project(F, np.concatenate([touched, nc + i, nc + j]))

    def _scores(self, u: int) -> np.ndarray:
        return self._reps @ self.U[u] + self.b

    def _rank_catalog(self, user, keep) -> np.ndarray:
        u = self.uidx.get(user)
        if u is None:
            return self.b[keep]  # popularity ordering for unseen users
        return self._scores(u)[keep]

    def _estimate_catalog(self, user, item_means):
        n = len(self.item_ids)
        u = self.uidx.get(user)
        if u is None:
            return np.zeros(n), np.zeros(n, dtype=bool)
        scores = self._scores(u)
        lo, hi = scores.min(), scores.max()
        if hi <= lo:
            return np.full(n, 3.0), np.ones(n, dtype=bool)
        return 1.0 + 4.0 * (scores - lo) / (hi - lo), np.ones(n, dtype=bool)


def _project(M, rows):
    """Scale each of `rows` of M (repeats allowed) that is longer than
    `_NORM` back onto the sphere of that radius."""
    norms = np.sqrt(np.einsum("rd,rd->r", M[rows], M[rows]))
    over = norms > _NORM
    M[rows[over]] *= (_NORM / norms[over])[:, None]
