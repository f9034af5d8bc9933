"""Collaborative-filtering predictors: baseline biases, Slope One,
co-clustering, biased matrix factorization, and user-based cosine kNN."""

from __future__ import annotations

import numpy as np

from ..data import segment_sums
from .base import FittedRecommender, by_user_item, group_means


class BaselineOnlyModel(FittedRecommender):
    """r_hat = mu + b_u + b_i with biases learned by regularized SGD."""

    def _fit(self, users, cols, ratings, items):
        lr = self.params["learn_rate"]
        reg = self.params["reg"]
        mu = self.global_mean
        bu = np.zeros(len(self.user_ids))
        bi = np.zeros(len(self.item_ids))
        waves = _sgd_waves(users, cols, ratings)
        for _ in range(self.params["epochs"]):
            for u, i, rating in waves:
                bu_u, bi_i = bu[u], bi[i]
                err = rating - (mu + bu_u + bi_i)
                bu[u] = bu_u + lr * (err - reg * bu_u)
                bi[i] = bi_i + lr * (err - reg * bi_i)
        self.bu, self.bi, self.mu = bu, bi, mu

    def _estimate_catalog(self, user, item_means):
        known = ~np.isnan(item_means)
        u = self.uidx.get(user)
        est = self.mu if u is None else self.mu + self.bu[u]
        return np.where(known, est + self.bi, est), known | (u is not None)


class SlopeOneModel(FittedRecommender):
    """Weighted Slope One: per item-pair average rating deviations.

    The pickle keeps the training rows in (user, item) order as columns:
    the rows of `user_ids[k]` are `_ptr[k]` to `_ptr[k + 1]` of `_cols`
    (int32 catalog indexes) and `_vals` (int8 ratings). The dense item x
    item matrices take 16 bytes per item pair and are rebuilt on load."""

    _derived = FittedRecommender._derived + ("dev", "counts")
    _retired = ("_user_items",)  # per-user (catalog indexes, ratings) array pairs

    def _fit(self, users, cols, ratings, items):
        users, cols, ratings = by_user_item(users, cols, ratings)
        # every user of `user_ids` rated
        self._ptr = np.concatenate(([0], np.cumsum(np.bincount(users))))
        self._cols = cols.astype(np.int32)
        self._vals = ratings.astype(np.int8)
        self._build_derived()

    def _rows(self, u) -> tuple:
        """(catalog indexes, ratings) of user index `u`, by catalog index, as
        intp and float64: numpy indexes and adds the narrow columns slower."""
        rows = slice(self._ptr[u], self._ptr[u + 1])
        return self._cols[rows].astype(np.intp), self._vals[rows].astype(float)

    def _build_derived(self):
        """The item x item mean deviations `dev` and co-rating `counts`,
        accumulated user by user in `user_ids` order."""
        n = len(self.item_ids)
        dev_sum = np.zeros((n, n))
        counts = np.zeros((n, n), dtype=np.int64)
        for u in range(len(self.user_ids)):
            idx, vals = self._rows(u)
            dev_sum[np.ix_(idx, idx)] += vals[:, None] - vals[None, :]
            counts[np.ix_(idx, idx)] += 1
        np.fill_diagonal(counts, 0)
        # dev_sum is +0.0 wherever counts is 0, the diagonal included
        self.dev = np.divide(dev_sum, counts, out=dev_sum, where=counts > 0)
        self.counts = counts

    def _estimate_catalog(self, user, item_means):
        n = len(self.item_ids)
        u = self.uidx.get(user)
        if u is None:
            return np.zeros(n), np.zeros(n, dtype=bool)
        idx, vals = self._rows(u)
        c = self.counts[:, idx]  # 0 where an item pair was never co-rated
        num = ((self.dev[:, idx] + vals) * c).sum(axis=1)
        den = c.sum(axis=1)
        defined = den > 0
        return np.divide(num, den, out=np.zeros(n), where=defined), defined


class CoClusteringModel(FittedRecommender):
    """Alternating user/item cluster assignment with co-cluster mean prediction."""

    def _fit(self, users, cols, ratings, items):
        ku = self.params["user_clusters"]
        ki = self.params["item_clusters"]
        rng = np.random.default_rng(self.seed)
        nu, ni = len(self.user_ids), len(self.item_ids)
        u_arr, i_arr, r_arr = by_user_item(users, cols, ratings)

        umean = np.array([self.user_means[uid] for uid in self.user_ids])
        # a never-rated item takes the global mean
        imean = np.nan_to_num(self._item_mean_vector, nan=self.global_mean)

        ug = rng.integers(0, ku, size=nu)
        ig = rng.integers(0, ki, size=ni)

        # ratings are sorted by user; `by_item` orders them by item, keeping
        # that order among each item's raters
        u_count = np.bincount(u_arr, minlength=nu)
        by_item = np.argsort(i_arr, kind="stable")
        iu_arr, ii_arr, ir_arr = u_arr[by_item], i_arr[by_item], r_arr[by_item]
        i_count = np.bincount(i_arr, minlength=ni)

        for _ in range(self.params["epochs"]):
            A, Ag, Ah = self._averages(ku, ki, ug, ig, u_arr, i_arr, r_arr)
            # err[u, g]: squared error of putting user u in cluster g, over
            # u's ratings; pred = A[g,h] - Ag[g] + const
            h = ig[i_arr]
            resid = r_arr - (umean[u_arr] + imean[i_arr] - Ah[h])
            err = segment_sums((resid[:, None] - (A[:, h].T - Ag)) ** 2, u_count)
            new_ug = np.where(u_count > 0, err.argmin(axis=1), ug)
            g = new_ug[iu_arr]
            resid = ir_arr - (imean[ii_arr] + umean[iu_arr] - Ag[g])
            err = segment_sums((resid[:, None] - (A[g, :] - Ah)) ** 2, i_count)
            new_ig = np.where(i_count > 0, err.argmin(axis=1), ig)
            if np.array_equal(new_ug, ug) and np.array_equal(new_ig, ig):
                ug, ig = new_ug, new_ig
                break
            ug, ig = new_ug, new_ig

        self.A, self.Ag, self.Ah = self._averages(ku, ki, ug, ig, u_arr, i_arr, r_arr)
        self.ug, self.ig = ug, ig
        self.umean, self.imean = umean, imean

    def _averages(self, ku, ki, ug, ig, u_arr, i_arr, r_arr):
        """Mean rating of each co-cluster, user cluster and item cluster;
        the global mean where one holds no rating."""
        g, h, mu = ug[u_arr], ig[i_arr], self.global_mean
        return (group_means(g * ki + h, r_arr, ku * ki, mu).reshape(ku, ki),
                group_means(g, r_arr, ku, mu), group_means(h, r_arr, ki, mu))

    def _estimate_catalog(self, user, item_means):
        known = ~np.isnan(item_means)
        u = self.uidx.get(user)
        if u is None:
            return item_means, known
        g, h = self.ug[u], self.ig
        est = (self.A[g, h]
               + (self.umean[u] - self.Ag[g])
               + (self.imean - self.Ah[h]))
        return np.where(known, est, self.user_means[user]), np.ones_like(known)


class SvdMfModel(FittedRecommender):
    """Biased matrix factorization trained by SGD (probabilistic-MF family)."""

    def _fit(self, users, cols, ratings, items):
        f = self.params["factors"]
        lr = self.params["learn_rate"]
        reg = self.params["reg"]
        rng = np.random.default_rng(self.seed)
        nu, ni = len(self.user_ids), len(self.item_ids)
        p = rng.normal(0.0, self.params["init_std"], size=(nu, f))
        q = rng.normal(0.0, self.params["init_std"], size=(ni, f))
        bu, bi = np.zeros(nu), np.zeros(ni)
        mu = self.global_mean
        waves = _sgd_waves(users, cols, ratings)
        for _ in range(self.params["epochs"]):
            for u, i, rating in waves:
                # copies of the wave's rows, as they stand before it
                pu, qi, bu_u, bi_i = p[u], q[i], bu[u], bi[i]
                # one dot product per row, as p[u] @ q[i] takes
                dot = np.matmul(pu[:, None, :], qi[:, :, None]).ravel()
                err = rating - (mu + bu_u + bi_i + dot)
                bu[u] = bu_u + lr * (err - reg * bu_u)
                bi[i] = bi_i + lr * (err - reg * bi_i)
                err = err[:, None]
                p[u] = pu + lr * (err * qi - reg * pu)
                q[i] = qi + lr * (err * pu - reg * qi)
        self.p, self.q, self.bu, self.bi, self.mu = p, q, bu, bi, mu

    def _estimate_catalog(self, user, item_means):
        # one gemv for the dot products, which may differ from a per-item
        # p[u] @ q[i] in the last bit
        known = ~np.isnan(item_means)
        u = self.uidx.get(user)
        if u is None:
            return np.where(known, self.mu + self.bi, self.mu), known
        est = self.mu + self.bu[u]
        return (np.where(known, est + self.bi + self.q @ self.p[u], est),
                np.ones_like(known))


class KnnBasicModel(FittedRecommender):
    """User-based kNN with cosine similarity over co-rated items."""

    # the user x user similarities are symmetric: the pickle keeps the
    # upper triangle, and the square matrix is rebuilt on load
    _derived = FittedRecommender._derived + ("sim", "_rater_items")

    def _fit(self, users, cols, ratings, items):
        # R: the user x catalog ratings, M: its 0/1 pattern. Their products sum
        # small integers, exact in any order, so sim is exactly symmetric
        R = np.zeros((len(self.user_ids), len(self.item_ids)))
        R[users, cols] = ratings
        M = (R > 0).astype(float)
        weak = M @ M.T < self.params["min_support"]  # too few co-rated items
        dot = R @ R.T
        # raters of catalog item j, ascending user index: positions
        # _rater_ptr[j]:_rater_ptr[j + 1] of _raters and _rater_vals
        rater_items, raters = np.nonzero(R.T)
        per_item = np.bincount(rater_items, minlength=len(self.item_ids))
        self._rater_ptr = np.concatenate(([0], np.cumsum(per_item)))
        self._raters = raters.astype(np.int32)
        self._rater_vals = R.T[rater_items, raters].astype(np.int8)
        sq = np.square(R, out=R) @ M.T  # sq[u, v]: sum of r_u^2 over items co-rated with v
        del R, M
        sq *= sq.T
        norm = np.sqrt(sq, out=sq)
        sim = np.divide(dot, norm, out=np.zeros_like(dot), where=norm > 0)
        sim[weak] = 0.0
        self._sim_upper = sim[np.triu_indices(len(self.user_ids), 1)]
        self._build_derived()

    def _build_derived(self):
        """The square `sim` (zero diagonal) from its upper triangle, and the
        catalog index of each `_raters` entry."""
        upper = np.triu_indices(len(self.user_ids), 1)
        sim = np.zeros((len(self.user_ids),) * 2)
        sim[upper] = sim.T[upper] = self._sim_upper
        self.sim = sim
        self._rater_items = np.repeat(np.arange(len(self.item_ids)),
                                      np.diff(self._rater_ptr))

    def _estimate_catalog(self, user, item_means):
        n = len(self.item_ids)
        u = self.uidx.get(user)
        if u is None:
            return np.zeros(n), np.zeros(n, dtype=bool)
        sims = self.sim[u, self._raters]
        # the neighbours of each item, in the stored (item, user index) order
        pick = np.flatnonzero(sims > 0)
        item = self._rater_items[pick]
        count = np.bincount(item, minlength=n)
        k = self.params["k"]
        lengths = np.minimum(count, k)
        over = np.flatnonzero(count[item] > k)
        if over.size:
            # an item with more than k neighbours keeps the k most similar,
            # most similar first (ties: lower position, so lower user
            # index); sorting by item first keeps each item's entries in
            # their place
            cand = pick[over]
            pick[over] = cand[np.lexsort((cand, -sims[cand], item[over]))]
            start = np.cumsum(count) - count
            pick = pick[np.arange(len(pick)) - start[item] < k]
        sims = sims[pick]
        # num and den in one pass; each column sums as its own 1-D run
        sums = segment_sums(np.stack((sims * self._rater_vals[pick], sims)).T, lengths)
        defined = lengths > 0
        return np.divide(sums[:, 0], sums[:, 1], out=np.zeros(n), where=defined), defined


def _sgd_waves(users, items, ratings) -> list:
    """The SGD updates of the encoded slice in (user, item) order, grouped
    into waves of (users, items, ratings) arrays applied one after another.

    Each update goes one wave after the last earlier update of its user or
    of its item, so no wave holds a user or an item twice. An update then
    reads the same user and item state as in the one-rating-at-a-time
    loop, whatever the order within its wave, and a wave can run as one
    batch with the loop's results (Gemulla et al., KDD 2011).
    """
    users, items, ratings = by_user_item(users, items, ratings)
    next_u = [0] * (int(users.max()) + 1)  # the first wave free for each user
    next_i = [0] * (int(items.max()) + 1)
    wave = []
    for u, i in zip(users.tolist(), items.tolist()):
        w = max(next_u[u], next_i[i])
        next_u[u] = next_i[i] = w + 1
        wave.append(w)
    order = np.argsort(wave, kind="stable")
    cuts = np.cumsum(np.bincount(wave))[:-1]
    return [(users[k], items[k], ratings[k]) for k in np.split(order, cuts)]
