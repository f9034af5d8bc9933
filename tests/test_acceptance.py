"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or in captured
output) and asserts the same condition.
"""

import itertools
import math
import time

import numpy as np
import pytest

from metahybrid.context import ContextSchema, fit_pca, transform_pca
from helpers import columns, ratings_of
from metahybrid.data import RatingSlice
from metahybrid.evaluation import run_experiment
from metahybrid.fixtures import GENRES, KEYWORDS, make_fixture
from metahybrid.forest import ForestParams, gini, predict_label, train_forest
from metahybrid.hybrid import (
    CandidateSet,
    generate_labels,
    oracle_select,
    preset_candidates,
    train_meta,
)
from metahybrid.metrics import RelevanceConfig, ndcg_at, precision_recall_at, rmse
from metahybrid.recommenders import FittedRecommender, RecommenderSpec, fit
from metahybrid.splits import SplitPlan, nested_split


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------
# 1. metric oracles


def _dcg(rels):
    return sum((2 ** r - 1) / math.log2(i + 1) for i, r in enumerate(rels, start=1))


def test_criterion_1_metric_oracles():
    rng = np.random.default_rng(101)
    cfg = RelevanceConfig()
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        items = [f"i{j}" for j in range(n)]
        ranked = [items[j] for j in rng.permutation(n)]
        holdout = {it: int(rng.integers(1, 6)) for it in items if rng.random() < 0.5}
        k = int(rng.integers(1, 21))

        rels = [float(holdout[it]) if it in holdout else 0.0
                for it in ranked[:k]]
        ideal = sorted((float(v) for v in holdout.values()), reverse=True)[:k]
        idcg = _dcg(ideal)
        expect_ndcg = _dcg(rels) / idcg if idcg > 0 else 0.0
        worst = max(worst, abs(ndcg_at(ranked, holdout, k) - expect_ndcg))

        relevant = {it for it, v in holdout.items() if v >= cfg.threshold}
        prefix = ranked[:k]
        hits = len(set(prefix) & relevant)
        expect_p = hits / len(prefix) if prefix else 0.0
        expect_r = hits / len(relevant) if relevant else 0.0
        p, r = precision_recall_at(ranked, relevant, k)
        worst = max(worst, abs(p - expect_p), abs(r - expect_r))

        if holdout:
            pairs = [(v, float(rng.uniform(1, 5))) for v in holdout.values()]
            expect_rmse = math.sqrt(sum((t - q) ** 2 for t, q in pairs) / len(pairs))
            worst = max(worst, abs(rmse(pairs) - expect_rmse))
    elapsed = time.time() - t0
    _verdict(1, worst <= 1e-12 and elapsed < 10,
             f"1000 randomized cases, max |error| {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. oracle dominance on the shipped two-population fixture


def test_criterion_2_oracle_dominance():
    dataset = make_fixture(n_users=200, n_items=500, seed=13)
    report, _ = run_experiment(dataset, preset_candidates("cf"), SplitPlan(),
                               ForestParams(n_estimators=100), master_seed=7)
    singles = {n: report.rows[n]["nDCG"] for n in report.candidate_names}
    best = max(singles.values())
    opt = report.rows["Opt. hybrid"]["nDCG"]
    dominated = all(opt >= v - 1e-12 for v in singles.values())
    gap = (opt / best - 1.0) if best > 0 else float("inf")
    _verdict(2, dominated and gap >= 0.10,
             f"opt nDCG {opt:.4f} vs best single {best:.4f} ({gap:+.1%})")


# --------------------------------------------------------------------------
# 3. planted-rule recoverability


class _FixedRanker:
    """A fixed ranking per user through the block contract: a listed item
    scores by its place, any other catalog item NaN, which leaves it
    unranked. The catalog is the slices' item table `item_ids`."""

    recommend_top_n = FittedRecommender.recommend_top_n

    def __init__(self, rankings, item_ids):
        self.rankings = rankings
        self.item_ids = item_ids
        self.iidx = {iid: j for j, iid in enumerate(self.item_ids)}

    def score_block(self, users, reads):
        rank = np.full((len(users), len(self.item_ids)), np.nan)
        for r, user in enumerate(users):
            ranked = self.rankings.get(user, [])
            rank[r, [self.iidx[i] for i in ranked]] = -np.arange(len(ranked))
        return rank, rank


def test_criterion_3_planted_rule():
    rng = np.random.default_rng(33)
    n_users, d = 300, 5
    contexts = rng.uniform(0, 1, size=(n_users, d))
    # keep the decisive feature away from the boundary
    contexts[:, 0] = np.where(contexts[:, 0] < 0.5,
                              contexts[:, 0] * 0.9, 0.55 + contexts[:, 0] * 0.45)
    planted = ["Alpha" if c > 0.5 else "Beta" for c in contexts[:, 0]]

    holdouts, rank_a, rank_b = {}, {}, {}
    for u, lab in enumerate(planted):
        hits = [f"h{u}_{j}" for j in range(3)]
        junk = [f"j{u}_{j}" for j in range(3)]
        holdouts[u] = [(u, h, 5, 10 + j) for j, h in enumerate(hits)]
        rank_a[u] = hits + junk if lab == "Alpha" else junk
        rank_b[u] = hits + junk if lab == "Beta" else junk

    users = sorted(holdouts)
    items = sorted({i for ranked in rank_a.values() for i in ranked}
                   | {i for ranked in rank_b.values() for i in ranked})
    holdouts = RatingSlice(ratings_of((r for u in users for r in holdouts[u]), item_ids=items),
                           users, [len(holdouts[u]) for u in users])
    candidates = CandidateSet(specs=[RecommenderSpec("SlopeOne"),
                                     RecommenderSpec("KnnBasic")],
                              names=["Alpha", "Beta"])
    fitted = {"Alpha": _FixedRanker(rank_a, items), "Beta": _FixedRanker(rank_b, items)}
    train_users = list(range(200))
    test_users = list(range(200, n_users))

    labeled = generate_labels(candidates, fitted, train_users,
                              RatingSlice(ratings_of([], item_ids=items), [], []),
                              holdouts, n=10, relevance=RelevanceConfig())
    assert labeled.labels == planted[:200]
    assert labeled.user_ids == train_users
    forest = train_meta(labeled, contexts[:200], ForestParams(n_estimators=100, seed=1))

    dispatched = [predict_label(forest, contexts[u])[0] for u in test_users]
    accuracy = float(np.mean([dispatched[j] == planted[u]
                              for j, u in enumerate(test_users)]))

    scores = np.zeros((len(test_users), 2))
    hybrid_scores = []
    for j, u in enumerate(test_users):
        holdout = {r.item_id: r.rating for r in holdouts[u]}
        for c, name in enumerate(candidates.names):
            ranked = fitted[name].recommend_top_n(u, 10)
            scores[j, c] = ndcg_at(ranked, holdout, 10)
        hybrid_scores.append(scores[j, candidates.names.index(dispatched[j])])
    _, oracle_mean = oracle_select(scores, candidates.names)
    hybrid_mean = float(np.mean(hybrid_scores))
    _verdict(3, accuracy > 0.90 and hybrid_mean >= 0.98 * oracle_mean,
             f"held-out accuracy {accuracy:.2%}, hybrid nDCG {hybrid_mean:.4f} "
             f"vs oracle {oracle_mean:.4f}")


# --------------------------------------------------------------------------
# 4. SvdMf learns rank-2 structure


def test_criterion_4_svdmf_learning():
    rng = np.random.default_rng(0)
    p = rng.normal(0, 1.2, (50, 2))
    q = rng.normal(0, 1.2, (40, 2))
    train, test, ts = [], [], 1
    for u in range(50):
        for i in range(40):
            if rng.random() < 0.3:
                v = 3.0 + p[u] @ q[i] + rng.normal(0, 0.1)
                event = (u + 1, i + 1, int(min(5, max(1, round(v)))), ts)
                ts += 1
                (train if rng.random() < 0.8 else test).append(event)

    def heldout_rmse(model):
        sq = [(model.predict_rating(u, i) - r) ** 2 for u, i, r, _ in test]
        return math.sqrt(sum(sq) / len(sq))

    train = ratings_of(train)
    svd = fit(RecommenderSpec("SvdMf", {"epochs": 100, "learn_rate": 0.01}),
              train, seed=7)
    base = fit(RecommenderSpec("BaselineOnly"), train, seed=7)
    r_svd, r_base = heldout_rmse(svd), heldout_rmse(base)
    gain = 1.0 - r_svd / r_base
    _verdict(4, gain >= 0.05,
             f"SvdMf RMSE {r_svd:.4f} vs BaselineOnly {r_base:.4f} ({gain:+.1%})")


# --------------------------------------------------------------------------
# 5. Slope One exactness on 2-item datasets


def _slope_one_expected(ratings, user):
    """Hand formula: r_u(i1) + mean over co-raters of (r(i2) - r(i1))."""
    co = [(r2 - r1) for r1, r2 in ratings.values() if r1 and r2]
    r1 = ratings[user][0]
    if not co:
        return None
    return min(5.0, max(1.0, r1 + sum(co) / len(co)))


def _check_slope_one(ratings):
    events = []
    for u, (r1, r2) in sorted(ratings.items()):
        if r1:
            events.append((u, 1, r1, u * 10 + 1))
        if r2:
            events.append((u, 2, r2, u * 10 + 2))
    if not events:
        return True
    model = fit(RecommenderSpec("SlopeOne"), ratings_of(events), seed=0)
    for u, (r1, r2) in ratings.items():
        if r1 and not r2:
            expected = _slope_one_expected(ratings, u)
            if expected is not None:
                if abs(model.predict_rating(u, 2) - expected) > 1e-12:
                    return False
    return True


def test_criterion_5_slope_one_exactness():
    # exhaustive for <= 2 users; dense random coverage for 3-5 users
    patterns = [(r1, r2) for r1 in range(6) for r2 in range(6)
                if r1 or r2]  # 0 = item unrated
    checked = 0
    ok = True
    for combo in patterns:
        ok &= _check_slope_one({1: combo})
        checked += 1
    for combo in itertools.product(patterns, patterns):
        ok &= _check_slope_one({1: combo[0], 2: combo[1]})
        checked += 1
    rng = np.random.default_rng(55)
    for _ in range(2000):
        n_users = int(rng.integers(3, 6))
        ratings = {u: patterns[rng.integers(len(patterns))]
                   for u in range(1, n_users + 1)}
        ok &= _check_slope_one(ratings)
        checked += 1
    _verdict(5, ok, f"{checked} two-item datasets match the deviation formula")


# --------------------------------------------------------------------------
# 6. PCA against a covariance eigendecomposition oracle


def test_criterion_6_pca_oracle():
    rng = np.random.default_rng(66)
    scales = np.linspace(1.0, 5.0, 20)
    X = rng.normal(size=(400, 20)) * scales
    k = 20
    model = fit_pca(X, k)

    mean = X.mean(axis=0)
    cov = (X - mean).T @ (X - mean) / (len(X) - 1)
    eigvals, eigvecs = np.linalg.eig(cov)  # independent of eigh
    order = np.argsort(eigvals.real)[::-1]
    eigvals = eigvals.real[order]
    comps = eigvecs.real[:, order].T
    for row in comps:
        if row[int(np.argmax(np.abs(row)))] < 0:
            row *= -1
    ratios = eigvals / eigvals.sum()

    err_ratio = float(np.max(np.abs(model.explained_variance_ratio - ratios[:k])))
    err_comp = float(np.max(np.abs(model.components - comps[:k])))
    gram = model.components @ model.components.T
    err_orth = float(np.max(np.abs(gram - np.eye(k))))
    err_proj = 0.0
    for row in X[:50]:
        manual = (row - mean) @ comps[:k].T
        err_proj = max(err_proj, float(np.max(np.abs(
            transform_pca(model, row) - manual))))
    worst = max(err_ratio, err_comp, err_orth, err_proj)
    _verdict(6, worst <= 1e-8,
             f"max deviation from eigendecomposition oracle {worst:.2e}")


# --------------------------------------------------------------------------
# 7. forest sanity


def test_criterion_7_forest_sanity():
    ok = gini([7, 0]) == 0.0 and gini([5, 5]) == 0.5

    rng = np.random.default_rng(77)
    X = rng.normal(size=(30, 4))
    single = train_forest(X, ["only"] * 30, ForestParams(n_estimators=10, seed=1))
    ok &= all(predict_label(single, row)[0] == "only" for row in X)

    Xp = rng.uniform(0, 1, size=(200, 5))
    yp = ["high" if v > 0.5 else "low" for v in Xp[:, 0]]
    model = train_forest(Xp, yp, ForestParams(n_estimators=50, seed=2))
    imp_sum = float(model.importances.sum())
    ok &= abs(imp_sum - 1.0) <= 1e-9

    # positive scaling is monotone and maps midpoint thresholds exactly,
    # so predicted labels are invariant at arbitrary probes
    scaled = train_forest(Xp * 2.0, yp, ForestParams(n_estimators=50, seed=2))
    probes = rng.uniform(0, 1, size=(50, 5))
    invariant = all(predict_label(model, x)[0] == predict_label(scaled, x * 2.0)[0]
                    for x in probes)
    ok &= invariant
    _verdict(7, ok, f"gini exact, constant single-label, importances sum "
                    f"{imp_sum:.12f}, 50/50 probes label-invariant")


# --------------------------------------------------------------------------
# 8. methodology laws


def test_criterion_8_methodology_laws():
    rng = np.random.default_rng(88)
    from metahybrid.data import Dataset, ItemRecord, UserRecord
    laws = True
    for _ in range(100):
        n_users = int(rng.integers(10, 25))
        n_items = int(rng.integers(5, 15))
        ratings, ts = [], 1
        for u in range(n_users):
            for i in rng.permutation(n_items)[: int(rng.integers(1, n_items + 1))]:
                ratings.append((u, int(i), int(rng.integers(1, 6)), ts))
                ts += 1
        ds = Dataset.from_columns(*columns(ratings),
                                  items={i: ItemRecord(i) for i in range(n_items)},
                                  users={u: UserRecord(u) for u in range(n_users)})
        plan = SplitPlan(inner_ratio=float(rng.choice((0.6, 0.7, 0.8, 0.9))),
                         seed=int(rng.integers(1 << 30)))
        split = nested_split(ds, plan)
        users = set(split.train_users) | set(split.test_users)
        laws &= users == set(ds.users)
        laws &= not set(split.train_users) & set(split.test_users)
        by_user = ds.ratings_by_user()
        for tr, te in ((split.train_inner_train, split.train_inner_test),
                       (split.test_inner_train, split.test_inner_test)):
            for uid in tr:
                laws &= len(tr[uid]) + len(te[uid]) == len(by_user.get(uid, []))
                laws &= len(tr[uid]) >= min(1, len(by_user.get(uid, [])))

    dataset = make_fixture(n_users=40, n_items=80, seed=2)
    kwargs = dict(candidates=preset_candidates("cf"), plan=SplitPlan(),
                  forest_params=ForestParams(n_estimators=30), master_seed=3)
    r1, _ = run_experiment(dataset, **kwargs)
    r2, _ = run_experiment(dataset, **kwargs)
    identical = r1.to_json() == r2.to_json()
    _verdict(8, laws and identical,
             "split laws on 100 random datasets; rerun reports bit-identical"
             if identical else "reports differ")


# --------------------------------------------------------------------------
# 9. context schema coverage


def test_criterion_9_schema_manifest():
    import os
    manifest_path = os.path.join(os.path.dirname(__file__), "data",
                                 "context_schema.txt")
    with open(manifest_path, encoding="utf-8") as fh:
        expected = [line.strip() for line in fh if line.strip()]
    schema = ContextSchema(genres=tuple(sorted(GENRES)),
                           keywords=tuple(sorted(KEYWORDS)))
    names = schema.feature_names()
    ok = names == expected
    attribute_groups = set(schema.feature_groups())
    required = {"n_ratings", "rating_histogram", "year_variance", "genre_entropy",
                "preferred_hour", "preferred_dow", "n_unique_genres",
                "mean_runtime_norm", "gender", "age", "occupation", "region",
                "genre_pca", "keyword_pca"}
    ok &= required <= attribute_groups
    _verdict(9, ok, f"{len(names)} feature columns match the checked-in "
                    f"manifest; all context attributes covered")
