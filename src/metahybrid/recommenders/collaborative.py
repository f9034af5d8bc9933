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
        triples = [(self.uidx[r.user_id], self.iidx[r.item_id], r.rating)
                   for r in sorted(train, key=lambda r: (r.user_id, r.item_id))]
        for _ in range(self.params["epochs"]):
            for u, i, rating in triples:
                err = rating - (mu + bu[u] + bi[i])
                bu[u] += lr * (err - reg * bu[u])
                bi[i] += lr * (err - reg * bi[i])
        self.bu, self.bi, self.mu = bu, bi, mu

    def _estimate(self, user, item):
        u = self.uidx.get(user)
        i = self.iidx.get(item)
        known_item = item in self.item_means
        if u is None and not known_item:
            return None
        est = self.mu
        if u is not None:
            est += self.bu[u]
        if i is not None and known_item:
            est += self.bi[i]
        return est

    def _estimate_catalog(self, user, item_means):
        known = ~np.isnan(item_means)
        u = self.uidx.get(user)
        est = self.mu if u is None else self.mu + self.bu[u]
        return np.where(known, est + self.bi, est), known | (u is not None)


class SlopeOneModel(FittedRecommender):
    """Weighted Slope One: per item-pair average rating deviations."""

    def __init__(self, spec, train, items, seed):
        super().__init__(spec, train, items, seed)
        n = len(self.item_ids)
        dev_sum = np.zeros((n, n))
        counts = np.zeros((n, n), dtype=np.int64)
        self._user_items: dict = {}
        by_user: dict = {}
        for r in train:
            by_user.setdefault(r.user_id, []).append(r)
        for uid in sorted(by_user):
            events = sorted(by_user[uid], key=lambda r: r.item_id)
            idx = np.array([self.iidx[r.item_id] for r in events])
            vals = np.array([float(r.rating) for r in events])
            dev_sum[np.ix_(idx, idx)] += vals[:, None] - vals[None, :]
            counts[np.ix_(idx, idx)] += 1
            self._user_items[uid] = (idx, vals)
        np.fill_diagonal(counts, 0)
        with np.errstate(invalid="ignore"):
            self.dev = np.where(counts > 0, dev_sum / np.maximum(counts, 1), 0.0)
        self.counts = counts

    def _estimate(self, user, item):
        i = self.iidx.get(item)
        if i is None or user not in self._user_items:
            return None
        idx, vals = self._user_items[user]
        c = self.counts[i, idx]
        mask = c > 0
        if not mask.any():
            return None
        c = c[mask]
        num = ((self.dev[i, idx][mask] + vals[mask]) * c).sum()
        return num / c.sum()

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

        by_user = [np.flatnonzero(u_arr == u) for u in range(nu)]
        by_item = [np.flatnonzero(i_arr == i) for i in range(ni)]

        for _ in range(self.params["epochs"]):
            A, Ag, Ah = self._averages(ku, ki, ug, ig, u_arr, i_arr, r_arr)
            new_ug = ug.copy()
            for u in range(nu):
                rows = by_user[u]
                if rows.size == 0:
                    continue
                h = ig[i_arr[rows]]
                resid = r_arr[rows] - (umean[u] + imean[i_arr[rows]] - Ah[h])
                # error of assigning u to each cluster g: pred = A[g,h] - Ag[g] + const
                err = ((resid[None, :] - (A[:, h] - Ag[:, None])) ** 2).sum(axis=1)
                new_ug[u] = int(np.argmin(err))
            new_ig = ig.copy()
            for i in range(ni):
                rows = by_item[i]
                if rows.size == 0:
                    continue
                g = new_ug[u_arr[rows]]
                resid = r_arr[rows] - (imean[i] + umean[u_arr[rows]] - Ag[g])
                err = ((resid[None, :] - (A[g, :].T - Ah[:, None])) ** 2).sum(axis=1)
                new_ig[i] = int(np.argmin(err))
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

    def _estimate(self, user, item):
        u = self.uidx.get(user)
        i = self.iidx.get(item)
        known_item = item in self.item_means
        if u is None and not known_item:
            return None
        if u is None:
            return self.item_means[item]
        if i is None or not known_item:
            return self.user_means[user]
        g, h = self.ug[u], self.ig[i]
        return (self.A[g, h]
                + (self.umean[u] - self.Ag[g])
                + (self.imean[i] - self.Ah[h]))

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
        bu = np.zeros(nu)
        bi = np.zeros(ni)
        mu = self.global_mean
        triples = [(self.uidx[r.user_id], self.iidx[r.item_id], r.rating)
                   for r in sorted(train, key=lambda r: (r.user_id, r.item_id))]
        for _ in range(self.params["epochs"]):
            for u, i, rating in triples:
                err = rating - (mu + bu[u] + bi[i] + p[u] @ q[i])
                bu[u] += lr * (err - reg * bu[u])
                bi[i] += lr * (err - reg * bi[i])
                pu = p[u].copy()
                p[u] += lr * (err * q[i] - reg * pu)
                q[i] += lr * (err * pu - reg * q[i])
        self.p, self.q, self.bu, self.bi, self.mu = p, q, bu, bi, mu

    def _estimate(self, user, item):
        u = self.uidx.get(user)
        i = self.iidx.get(item)
        known_item = item in self.item_means
        if u is None and not known_item:
            return None
        est = self.mu
        if u is not None:
            est += self.bu[u]
        if i is not None and known_item:
            est += self.bi[i]
        if u is not None and i is not None and known_item:
            est += float(self.p[u] @ self.q[i])
        return est

    def _estimate_catalog(self, user, item_means):
        # one gemv for the dot products: they may differ from _estimate's
        # per-item dot in the last bit
        known = ~np.isnan(item_means)
        u = self.uidx.get(user)
        if u is None:
            return np.where(known, self.mu + self.bi, self.mu), known
        est = self.mu + self.bu[u]
        return (np.where(known, est + self.bi + self.q @ self.p[u], est),
                np.ones_like(known))


class KnnBasicModel(FittedRecommender):
    """User-based kNN with cosine similarity over co-rated items."""

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
        norm = np.sqrt(sq * sq.T)
        with np.errstate(invalid="ignore", divide="ignore"):
            sim = np.where(norm > 0, dot / np.where(norm > 0, norm, 1.0), 0.0)
        sim[support < self.params["min_support"]] = 0.0
        np.fill_diagonal(sim, 0.0)
        self.sim = sim

    def _estimate(self, user, item):
        u = self.uidx.get(user)
        i = self.iidx.get(item)
        if u is None or i is None:
            return None
        lo, hi = self._rater_ptr[i], self._rater_ptr[i + 1]
        idx, vals = self._raters[lo:hi], self._rater_vals[lo:hi]
        sims = self.sim[u, idx]
        mask = sims > 0
        if not mask.any():
            return None
        sims, vals, idx = sims[mask], vals[mask], idx[mask]
        k = self.params["k"]
        if sims.size > k:
            # top-k by similarity, deterministic on ties via user index
            order = np.lexsort((idx, -sims))[:k]
            sims, vals = sims[order], vals[order]
        return float((sims * vals).sum() / sims.sum())

    def _estimate_catalog(self, user, item_means):
        n = len(self.item_ids)
        u = self.uidx.get(user)
        if u is None:
            return np.zeros(n), np.zeros(n, dtype=bool)
        item = np.repeat(np.arange(n), np.diff(self._rater_ptr))
        sims = self.sim[u, self._raters]
        pos = sims > 0
        item, idx, vals, sims = item[pos], self._raters[pos], self._rater_vals[pos], sims[pos]
        count = np.bincount(item, minlength=n)
        # as in _estimate: an item with more than k neighbours keeps the k
        # most similar, most similar first (ties: lower user index); the
        # others keep their neighbours in user-index order
        k = self.params["k"]
        order = np.lexsort((idx, np.where(count[item] > k, -sims, 0.0), item))
        item, vals, sims = item[order], vals[order], sims[order]
        start = np.cumsum(count) - count
        kept = np.arange(len(item)) - start[item] < k
        lengths = np.minimum(count, k)
        num = _segment_sums((sims * vals)[kept], lengths)
        den = _segment_sums(sims[kept], lengths)
        defined = lengths > 0
        return np.divide(num, den, out=np.zeros(n), where=defined), defined


def _segment_sums(values, lengths) -> np.ndarray:
    """Sum of each run of `values`, run j holding `lengths[j]` entries.

    Each sum is bit-identical to `run.sum()`: runs of one length are summed
    together as the rows of a matrix, which numpy reduces in the same
    pairwise order as a 1-D array of that length.
    """
    out = np.zeros(len(lengths))
    start = np.cumsum(lengths) - lengths
    for m in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == m)
        out[rows] = values[start[rows, None] + np.arange(m)].sum(axis=1)
    return out
