"""Ranking model over user embeddings and item-feature embeddings trained
with WARP loss (negative sampling until a rank violation, update scaled by
the estimated rank)."""

from __future__ import annotations

import math

import numpy as np

from .base import FittedRecommender
from .content import item_feature_matrix

_BLOCK = 8  # negatives scored per numpy call in WARP training


class WarpHybridModel(FittedRecommender):
    """Latent-factor ranker: score(u, i) = u_vec . rep(i) + b_i.

    Item representations sum the embeddings of the item's content features
    plus a per-item identity feature. Positives are ratings at or above
    `positive_threshold`. Ratings are an affine rescale of each user's
    catalog scores onto [1,5] (3.0 everywhere when the scores are all
    equal); an unseen user has none and takes the fallback chain. Rankings
    come from the raw score.
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
        self._train(positives, ni, d, lr, margin, max_trials, rng)

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

    def _train(self, positives, ni, d, lr, margin, max_trials, rng):
        """WARP SGD, one positive at a time in a shuffled order per epoch.

        Each positive draws negatives until one violates the margin, then
        takes one step weighted by the rank estimated from the trial count.
        The draws come from one stream per epoch and are scored in blocks
        of `_BLOCK`, so the result is bit-identical to scoring one draw per
        trial: `Generator.integers(0, ni, size=k)` yields the values of k
        scalar draws, the padded gather-sum adds each item's feature rows
        in `_item_feats` order, as `F[feats].sum(axis=0)` does, and
        `np.matmul` of (k,1,d) by (d,1) takes one dot product per row, as
        `uvec @ rep` does.
        """
        if not positives or ni < 2:
            return
        feats = self._item_feats
        nf = len(self.F)
        # F gets a zero row nf; column i of `pad` lists item i's feature
        # rows, padded with row nf to a common length
        pad = np.full((max(len(f) for f in feats), ni), nf)
        for i, f in enumerate(feats):
            pad[:len(f), i] = f
        F = np.zeros((nf + 1, d))
        F[:nf] = self.F
        U, b = self.U, self.b
        add = np.add.reduce  # sums axis 0 row by row, as `.sum(axis=0)` does
        for _ in range(self.params["epochs"]):
            order = rng.permutation(len(positives))
            start_state = rng.bit_generator.state
            draws = np.zeros(0, dtype=np.int64)
            pos = drawn = 0  # next unread entry of `draws`; draws taken this epoch
            for k in order:
                u, i = positives[k]
                uvec = U[u]
                rep_i = add(F.take(feats[i], 0), 0)
                threshold = float(uvec @ rep_i) + b[i] - margin
                trial = 0
                while trial < max_trials:
                    n = min(_BLOCK, max_trials - trial)
                    if pos + n > len(draws):
                        # one draw per positive: each reads at least one, so
                        # fewer than twice the draws read are ever taken
                        draws = np.concatenate([draws[pos:],
                                                rng.integers(0, ni, size=len(order))])
                        pos, drawn = 0, drawn + len(order)
                    js = draws[pos:pos + n]
                    reps = add(F.take(pad.take(js, 1), 0), 0)
                    s_neg = np.matmul(reps[:, None, :], uvec[:, None]).ravel() + b[js]
                    over = (s_neg > threshold).nonzero()[0]
                    hit = next((int(t) for t in over if js[t] != i), None)
                    read = n if hit is None else hit + 1
                    pos += read
                    trial += read
                    if hit is not None:
                        j = int(js[hit])
                        step = lr * math.log(max(1, (ni - 1) // trial) + 1)
                        u_step = step * uvec
                        U[u] += step * (rep_i - reps[hit])
                        F[feats[i]] += u_step
                        F[feats[j]] -= u_step
                        b[i] += step
                        b[j] -= step
                        break
            # leave the generator where the draws read would have as scalars,
            # so the next epoch's permutation is unchanged
            rng.bit_generator.state = start_state
            rng.integers(0, ni, size=drawn - (len(draws) - pos))
        self.F = F[:nf].copy()

    def _scores(self, u: int) -> np.ndarray:
        return self._reps() @ self.U[u] + self.b

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
