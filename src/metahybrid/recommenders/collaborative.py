"""Collaborative-filtering predictors: baseline biases, Slope One,
co-clustering, biased matrix factorization, and user-based cosine kNN."""

from __future__ import annotations

import numpy as np

from .base import FittedRecommender


class BaselineOnlyModel(FittedRecommender):
    """r_hat = mu + b_u + b_i with biases learned by regularized SGD."""

    def __init__(self, spec, train, items, seed):
        super().__init__(spec, train, items, seed)
        lr = self.params["learn_rate"]
        reg = self.params["reg"]
        mu = self.global_mean
        bu = np.zeros(len(self.user_ids))
        bi = np.zeros(len(self.item_ids))
        waves = _sgd_waves(self, train)
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
    """Weighted Slope One: per item-pair average rating deviations."""

    # the dense matrices take 16 bytes per item pair; rebuild them on load
    _derived = FittedRecommender._derived + ("dev", "counts")

    def __init__(self, spec, train, items, seed):
        super().__init__(spec, train, items, seed)
        self._user_items: dict = {}
        by_user: dict = {}
        for r in train:
            by_user.setdefault(r.user_id, []).append(r)
        for uid in sorted(by_user):
            events = sorted(by_user[uid], key=lambda r: r.item_id)
            self._user_items[uid] = (np.array([self.iidx[r.item_id] for r in events]),
                                     np.array([float(r.rating) for r in events]))
        self._build_derived()

    def _build_derived(self):
        """The item x item mean deviations `dev` and co-rating `counts`,
        accumulated user by user in `_user_items` order."""
        n = len(self.item_ids)
        dev_sum = np.zeros((n, n))
        counts = np.zeros((n, n), dtype=np.int64)
        for idx, vals in self._user_items.values():
            dev_sum[np.ix_(idx, idx)] += vals[:, None] - vals[None, :]
            counts[np.ix_(idx, idx)] += 1
        np.fill_diagonal(counts, 0)
        with np.errstate(invalid="ignore"):
            self.dev = np.where(counts > 0, dev_sum / np.maximum(counts, 1), 0.0)
        self.counts = counts

    def _estimate_catalog(self, user, item_means):
        n = len(self.item_ids)
        if user not in self._user_items:
            return np.zeros(n), np.zeros(n, dtype=bool)
        idx, vals = self._user_items[user]
        c = self.counts[:, idx]  # 0 where an item pair was never co-rated
        num = ((self.dev[:, idx] + vals) * c).sum(axis=1)
        den = c.sum(axis=1)
        defined = den > 0
        return np.divide(num, den, out=np.zeros(n), where=defined), defined


class CoClusteringModel(FittedRecommender):
    """Alternating user/item cluster assignment with co-cluster mean prediction."""

    def __init__(self, spec, train, items, seed):
        super().__init__(spec, train, items, seed)
        ku = self.params["user_clusters"]
        ki = self.params["item_clusters"]
        rng = np.random.default_rng(seed)
        nu, ni = len(self.user_ids), len(self.item_ids)

        u_arr = np.array([self.uidx[r.user_id] for r in train])
        i_arr = np.array([self.iidx[r.item_id] for r in train])
        r_arr = np.array([float(r.rating) for r in train])
        order = np.lexsort((i_arr, u_arr))
        u_arr, i_arr, r_arr = u_arr[order], i_arr[order], r_arr[order]

        umean = np.full(nu, self.global_mean)
        imean = np.full(ni, self.global_mean)
        np.add.at(ucnt := np.zeros(nu), u_arr, 1)
        np.add.at(usum := np.zeros(nu), u_arr, r_arr)
        np.add.at(icnt := np.zeros(ni), i_arr, 1)
        np.add.at(isum := np.zeros(ni), i_arr, r_arr)
        umean[ucnt > 0] = usum[ucnt > 0] / ucnt[ucnt > 0]
        imean[icnt > 0] = isum[icnt > 0] / icnt[icnt > 0]

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
            err = _segment_sums((resid[:, None] - (A[:, h].T - Ag)) ** 2, u_count)
            new_ug = np.where(u_count > 0, err.argmin(axis=1), ug)
            g = new_ug[iu_arr]
            resid = ir_arr - (imean[ii_arr] + umean[iu_arr] - Ag[g])
            err = _segment_sums((resid[:, None] - (A[g, :] - Ah)) ** 2, i_count)
            new_ig = np.where(i_count > 0, err.argmin(axis=1), ig)
            if np.array_equal(new_ug, ug) and np.array_equal(new_ig, ig):
                ug, ig = new_ug, new_ig
                break
            ug, ig = new_ug, new_ig

        self.A, self.Ag, self.Ah = self._averages(ku, ki, ug, ig, u_arr, i_arr, r_arr)
        self.ug, self.ig = ug, ig
        self.umean, self.imean = umean, imean

    def _averages(self, ku, ki, ug, ig, u_arr, i_arr, r_arr):
        A_sum = np.zeros((ku, ki))
        A_cnt = np.zeros((ku, ki))
        np.add.at(A_sum, (ug[u_arr], ig[i_arr]), r_arr)
        np.add.at(A_cnt, (ug[u_arr], ig[i_arr]), 1)
        A = np.where(A_cnt > 0, A_sum / np.maximum(A_cnt, 1), self.global_mean)
        g_sum, g_cnt = np.zeros(ku), np.zeros(ku)
        np.add.at(g_sum, ug[u_arr], r_arr)
        np.add.at(g_cnt, ug[u_arr], 1)
        Ag = np.where(g_cnt > 0, g_sum / np.maximum(g_cnt, 1), self.global_mean)
        h_sum, h_cnt = np.zeros(ki), np.zeros(ki)
        np.add.at(h_sum, ig[i_arr], r_arr)
        np.add.at(h_cnt, ig[i_arr], 1)
        Ah = np.where(h_cnt > 0, h_sum / np.maximum(h_cnt, 1), self.global_mean)
        return A, Ag, Ah

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

    def __init__(self, spec, train, items, seed):
        super().__init__(spec, train, items, seed)
        f = self.params["factors"]
        lr = self.params["learn_rate"]
        reg = self.params["reg"]
        rng = np.random.default_rng(seed)
        nu, ni = len(self.user_ids), len(self.item_ids)
        p = rng.normal(0.0, self.params["init_std"], size=(nu, f))
        q = rng.normal(0.0, self.params["init_std"], size=(ni, f))
        bu, bi = np.zeros(nu), np.zeros(ni)
        mu = self.global_mean
        waves = _sgd_waves(self, train)
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

    def __init__(self, spec, train, items, seed):
        super().__init__(spec, train, items, seed)
        if self.params["similarity"] != "cosine":
            raise ValueError("KnnBasic supports only cosine similarity")
        if self.params["user_based"] is not True:
            raise ValueError("KnnBasic supports only user_based=True")
        nu = len(self.user_ids)
        dot = np.zeros((nu, nu))
        sq = np.zeros((nu, nu))  # sq[u, v] = sum of r_u^2 over items co-rated with v
        item_raters: dict = {}
        by_item: dict = {}
        for r in train:
            by_item.setdefault(r.item_id, []).append(r)
        for iid in sorted(by_item):
            events = sorted(by_item[iid], key=lambda r: r.user_id)
            idx = np.array([self.uidx[r.user_id] for r in events])
            vals = np.array([float(r.rating) for r in events])
            dot[np.ix_(idx, idx)] += np.outer(vals, vals)
            sq[np.ix_(idx, idx)] += vals[:, None] ** 2
            item_raters[iid] = (idx, vals)
        support = np.zeros((nu, nu), dtype=np.int64)
        for idx, _ in item_raters.values():
            support[np.ix_(idx, idx)] += 1
        # raters of catalog item j, ascending user index: positions
        # _rater_ptr[j]:_rater_ptr[j + 1] of _raters and _rater_vals
        no_raters = (np.zeros(0, dtype=np.int64), np.zeros(0))
        per_item = [item_raters.get(iid, no_raters) for iid in self.item_ids]
        self._rater_ptr = np.cumsum([0] + [len(idx) for idx, _ in per_item])
        self._raters = np.concatenate([idx for idx, _ in per_item])
        self._rater_vals = np.concatenate([vals for _, vals in per_item])
        # dot, sq * sq.T and support get the same terms in the same order at
        # (u, v) and (v, u), so sim is exactly symmetric
        norm = np.sqrt(sq * sq.T)
        with np.errstate(invalid="ignore", divide="ignore"):
            sim = np.where(norm > 0, dot / np.where(norm > 0, norm, 1.0), 0.0)
        sim[support < self.params["min_support"]] = 0.0
        self._sim_upper = sim[np.triu_indices(nu, 1)]
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
        sums = _segment_sums(np.stack((sims * self._rater_vals[pick], sims)).T, lengths)
        defined = lengths > 0
        return np.divide(sums[:, 0], sums[:, 1], out=np.zeros(n), where=defined), defined


def _sgd_waves(model, train) -> list:
    """The SGD updates of `train`, in (user, item) order, grouped into
    waves of (users, items, ratings) arrays to be applied one after another.

    Each update goes one wave after the last earlier update of its user or
    of its item, so no wave holds a user or an item twice. An update then
    reads the same user and item state as in the one-rating-at-a-time
    loop, whatever the order within its wave, and a wave can run as one
    batch with the loop's results (Gemulla et al., KDD 2011).
    """
    events = sorted(train, key=lambda r: (r.user_id, r.item_id))
    users = [model.uidx[r.user_id] for r in events]
    items = [model.iidx[r.item_id] for r in events]
    next_u = [0] * len(model.user_ids)  # the first wave free for each user
    next_i = [0] * len(model.item_ids)
    wave = []
    for u, i in zip(users, items):
        w = max(next_u[u], next_i[i])
        next_u[u] = next_i[i] = w + 1
        wave.append(w)
    order = np.argsort(wave, kind="stable")
    cuts = np.cumsum(np.bincount(wave))[:-1]
    users, items = np.array(users), np.array(items)
    ratings = np.array([float(r.rating) for r in events])
    return [(users[k], items[k], ratings[k]) for k in np.split(order, cuts)]


def _segment_sums(values, lengths) -> np.ndarray:
    """Sum of each run of rows of `values`, run j holding `lengths[j]` rows.

    Each sum is bit-identical to `run.sum()` of a 1-D run, and each column
    of a 2-D run's sum to that column summed as a contiguous 1-D array:
    runs of one length are summed together along a contiguous last axis,
    which numpy reduces in the same pairwise order as a 1-D array of that
    length.
    """
    columns = np.ascontiguousarray(values.T)  # one row per column of `values`
    out = np.zeros(columns.shape[:-1] + (len(lengths),))
    start = np.cumsum(lengths) - lengths
    for m in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == m)
        # take, unlike columns[..., index], returns a C-contiguous array
        runs = columns.take(start[rows, None] + np.arange(m), axis=-1)
        out[..., rows] = runs.sum(axis=-1)
    return out.T
