import math
import os

import numpy as np
import pytest

from metahybrid import recommenders as rec
from metahybrid.data import RatingEvent, enrich_items, load_movielens
from metahybrid.recommenders import RecommenderSpec, fit
from metahybrid.splits import SplitPlan, nested_split

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")


def ev(u, i, r, ts=None):
    return RatingEvent(user_id=u, item_id=i, rating=r, timestamp=ts or (hash((u, i)) % 1000 + 1))


def rank2_dataset(seed=0, factor_scale=1.2, n_users=50, n_items=40, density=0.3,
                  noise=0.1):
    """Rank-2 structure with integer ratings; returns (train, test) events."""
    rng = np.random.default_rng(seed)
    p = rng.normal(0, factor_scale, (n_users, 2))
    q = rng.normal(0, factor_scale, (n_items, 2))
    train, test, ts = [], [], 1
    for u in range(n_users):
        for i in range(n_items):
            if rng.random() < density:
                v = 3.0 + p[u] @ q[i] + rng.normal(0, noise)
                r = int(min(5, max(1, round(v))))
                event = RatingEvent(u + 1, i + 1, r, ts)
                ts += 1
                (train if rng.random() < 0.8 else test).append(event)
    return train, test


def heldout_rmse(model, events):
    sq = [(model.predict_rating(e.user_id, e.item_id) - e.rating) ** 2 for e in events]
    return math.sqrt(sum(sq) / len(sq))


class TestSpecValidation:
    def test_table_defaults_accepted(self):
        RecommenderSpec("SvdMf", {"factors": 20, "epochs": 30})
        RecommenderSpec("CoClustering", {"user_clusters": 7, "item_clusters": 5,
                                         "epochs": 30})
        RecommenderSpec("KnnBasic", {"k": 50, "similarity": "cosine"})
        RecommenderSpec("WarpHybrid", {"components": 30})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            RecommenderSpec("Xgb")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown params"):
            RecommenderSpec("SvdMf", {"n_trees": 3})

    def test_roundtrip(self):
        spec = RecommenderSpec("SvdMf", {"factors": 10})
        assert RecommenderSpec.from_dict(spec.to_dict()) == spec

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit(RecommenderSpec("SlopeOne"), [], seed=1)

    def test_content_needs_catalog(self):
        with pytest.raises(ValueError, match="catalog"):
            fit(RecommenderSpec("ContentBased"), [ev(1, 1, 4)], seed=1)
        with pytest.raises(ValueError, match="catalog"):
            fit(RecommenderSpec("WarpHybrid"), [ev(1, 1, 4)], seed=1)


class TestBaselineOnly:
    def test_constant_data_fixed_point(self):
        train = [ev(u, i, 4) for u in (1, 2, 3) for i in (10, 11)]
        model = fit(RecommenderSpec("BaselineOnly"), train, seed=1)
        assert model.predict_rating(1, 10) == pytest.approx(4.0, abs=1e-3)
        assert model.predict_rating(99, 999) == pytest.approx(4.0, abs=1e-3)

    def test_learns_item_bias_direction(self):
        train = [ev(u, 1, 5) for u in range(1, 8)] + [ev(u, 2, 1) for u in range(1, 8)]
        model = fit(RecommenderSpec("BaselineOnly"), train, seed=1)
        assert model.predict_rating(1, 1) > model.predict_rating(1, 2)


class TestSlopeOne:
    def test_two_item_hand_case(self):
        # A rated i1=1, i2=2; B rated i1=2. dev(i2,i1)=1 so predict(B,i2)=3.
        train = [ev("A", "i1", 1, 10), ev("A", "i2", 2, 20), ev("B", "i1", 2, 30)]
        model = fit(RecommenderSpec("SlopeOne"), train, seed=0)
        assert model.predict_rating("B", "i2") == pytest.approx(3.0, abs=1e-12)

    def test_two_item_exactness_exhaustive(self):
        # every 2-item dataset with <= 4 users matches the deviation formula
        rng = np.random.default_rng(7)
        for trial in range(100):
            n_users = int(rng.integers(2, 5))
            ratings = {}
            for u in range(n_users):
                for i in (1, 2):
                    if rng.random() < 0.8:
                        ratings[(u, i)] = int(rng.integers(1, 6))
            train = [ev(u, i, r, ts=u * 10 + i) for (u, i), r in sorted(ratings.items())]
            if not train:
                continue
            model = fit(RecommenderSpec("SlopeOne"), train, seed=0)
            co = [(ratings[(u, 2)] - ratings[(u, 1)]) for u in range(n_users)
                  if (u, 1) in ratings and (u, 2) in ratings]
            for u in range(n_users):
                if (u, 1) in ratings and (u, 2) not in ratings and co:
                    expected = ratings[(u, 1)] + sum(co) / len(co)
                    expected = min(5.0, max(1.0, expected))
                    assert model.predict_rating(u, 2) == pytest.approx(expected, abs=1e-12)


class TestKnnBasic:
    def test_identical_neighbor(self):
        common = [(1, 4), (2, 3), (3, 5), (4, 2), (5, 4)]
        train = [ev("u1", i, r, ts=i) for i, r in common]
        train += [ev("u2", i, r, ts=i) for i, r in common]
        train += [ev("u2", 9, 5, ts=9)]
        model = fit(RecommenderSpec("KnnBasic"), train, seed=0)
        assert model.predict_rating("u1", 9) == pytest.approx(5.0)

    def test_cosine_symmetry(self):
        train, _ = rank2_dataset(seed=3, n_users=15, n_items=12)
        model = fit(RecommenderSpec("KnnBasic"), train, seed=0)
        assert np.allclose(model.sim, model.sim.T, atol=1e-12)
        assert np.all(model.sim <= 1.0 + 1e-12)


class TestContentBased:
    def test_prefers_profile_matching_items(self, small_dataset):
        by_user = small_dataset.ratings_by_user()
        uid = next(iter(sorted(by_user)))
        train = by_user[uid]
        model = fit(RecommenderSpec("ContentBased"), train,
                    items=small_dataset.items, seed=0)
        liked_genres = {g for r in train if r.rating >= 4
                        for g in small_dataset.items[r.item_id].genres}
        top = model.recommend_top_n(uid, 5, exclude={r.item_id for r in train})
        overlap = sum(1 for iid in top
                      if small_dataset.items[iid].genres & liked_genres)
        assert overlap >= 3

    def test_rating_range_mapping(self, small_dataset):
        train = list(small_dataset.ratings[:200])
        model = fit(RecommenderSpec("ContentBased"), train,
                    items=small_dataset.items, seed=0)
        for r in train[:30]:
            v = model.predict_rating(r.user_id, r.item_id)
            assert 1.0 <= v <= 5.0


class TestWarpHybrid:
    def test_universally_positive_item_ranks_high(self):
        rng = np.random.default_rng(4)
        from metahybrid.data import ItemRecord
        n_items = 30
        items = {i: ItemRecord(item_id=i, genres=frozenset({f"g{i % 5}"}))
                 for i in range(1, n_items + 1)}
        train = []
        ts = 1
        for u in range(1, 21):
            train.append(RatingEvent(u, 1, 5, ts)); ts += 1  # everyone loves item 1
            for i in rng.permutation(np.arange(2, n_items + 1))[:8]:
                train.append(RatingEvent(u, int(i), int(rng.integers(1, 4)), ts))
                ts += 1
        model = fit(RecommenderSpec("WarpHybrid"), train, items=items, seed=9)
        ranks = []
        for u in range(1, 21):
            ranked = model.recommend_top_n(u, n_items)
            ranks.append(ranked.index(1) + 1)
        assert np.mean(ranks) <= 0.1 * n_items

    def test_rank_score_used_for_ordering(self, small_dataset):
        train = list(small_dataset.ratings[:300])
        model = fit(RecommenderSpec("WarpHybrid", {"epochs": 5}), train,
                    items=small_dataset.items, seed=1)
        uid = train[0].user_id
        ranked = model.recommend_top_n(uid, 10)
        scores = dict(zip(model.item_ids,
                          model._rank_catalog(uid, np.ones(len(model.item_ids), bool))))
        assert ranked == sorted(model.item_ids, key=lambda i: (-scores[i], i))[:10]
        assert [scores[i] for i in ranked] == sorted(
            (scores[i] for i in ranked), reverse=True)


class TestTopN:
    def _model(self, preds):
        class Stub(rec.FittedRecommender):
            def __init__(self, preds):
                train = [ev(1, i, 3, ts=k + 1) for k, i in enumerate(preds)]
                super().__init__(RecommenderSpec("SlopeOne"), train, {}, 0)
                self._preds = preds

            def _estimate_catalog(self, user, item_means):
                est = np.array([self._preds[i] for i in self.item_ids])
                return est, np.ones(len(est), dtype=bool)

        return Stub(preds)

    def test_sorted_by_prediction(self):
        model = self._model({"i1": 4.2, "i2": 3.1, "i3": 4.9})
        assert model.recommend_top_n(1, 2) == ["i3", "i1"]

    def test_exclude_everything_gives_empty(self):
        model = self._model({"i1": 4.2, "i2": 3.1, "i3": 4.9})
        assert model.recommend_top_n(1, 5, exclude={"i1", "i2", "i3"}) == []

    def test_tie_broken_by_item_id(self):
        model = self._model({"i7": 4.0, "i2": 4.0, "i9": 1.0})
        assert model.recommend_top_n(1, 2) == ["i2", "i7"]

    def test_scores_clamped_like_predict_rating(self):
        # min(5, max(1, nan)) is 1.0, so a NaN estimate ties with the floor
        model = self._model({"i1": float("nan"), "i2": 0.5, "i3": 2.0, "i4": 7.0})
        assert model.recommend_top_n(1, 4) == ["i4", "i3", "i1", "i2"]

    def test_truncates_to_catalog(self):
        model = self._model({"i1": 2.0})
        assert model.recommend_top_n(1, 10) == ["i1"]


@pytest.fixture(scope="module")
def shipped_fixture():
    """The shipped fixture's nested split, and every algorithm (plus
    KnnBasic with k=3, so the top-k cut applies) fitted on its training
    users' inner-train slices; the test users are cold for these models."""
    dataset = enrich_items(
        load_movielens(*(os.path.join(FIXTURES, f)
                         for f in ("ratings.dat", "users.dat", "movies.dat"))),
        os.path.join(FIXTURES, "metadata.csv"))
    split = nested_split(dataset, SplitPlan(seed=5))
    train = [r for uid in split.train_users for r in split.train_inner_train[uid]]
    specs = [RecommenderSpec(a) for a in rec.ALGORITHMS]
    specs.append(RecommenderSpec("KnnBasic", {"k": 3}))
    models = [fit(spec, train, items=dataset.items, seed=5) for spec in specs]
    slices = {**split.test_inner_train, **split.train_inner_train}
    excludes = {uid: {r.item_id for r in slices.get(uid, [])}
                for uid in list(split.train_users) + list(split.test_users)}
    return models, excludes


class TestCatalogTopN:
    """Top-N from the whole-catalog hook against a full per-item sort."""

    @pytest.mark.parametrize("which", range(len(rec.ALGORITHMS) + 1),
                             ids=list(rec.ALGORITHMS) + ["KnnBasic-k3"])
    def test_matches_full_sort(self, which, shipped_fixture):
        models, excludes = shipped_fixture
        model = models[which]
        warp = model.spec.algorithm == "WarpHybrid"
        for uid, exclude in excludes.items():
            before = model.fallback_count
            ranked = model.recommend_top_n(uid, 10, exclude=exclude)
            served = model.fallback_count - before
            kept = [i for i in model.item_ids if i not in exclude]
            if warp:  # ranks by its raw score, no fallback chain
                u = model.uidx.get(uid)
                scores = [float(model.b[model.iidx[i]]) if u is None else
                          float(model.U[u] @ model._rep(model.iidx[i]))
                          + float(model.b[model.iidx[i]]) for i in kept]
                assert served == 0
            else:
                before = model.fallback_count
                scores = [model.predict_rating(uid, i) for i in kept]
                # one fallback per kept item the chain serves, as per item
                assert served == model.fallback_count - before
            expected = [i for _, i in sorted(zip((-s for s in scores), kept))[:10]]
            assert ranked == expected, uid
            assert not set(ranked) & exclude

    @pytest.mark.parametrize("alg", ["BaselineOnly", "CoClustering", "SlopeOne", "KnnBasic"])
    def test_exact_algorithms_match_per_item_estimates(self, alg, shipped_fixture):
        # SvdMf, ContentBased and WarpHybrid take one matrix-vector product,
        # which may round differently from a per-item dot product
        models, excludes = shipped_fixture
        for model in (m for m in models if m.spec.algorithm == alg):
            item_means = np.array([model.item_means.get(i, np.nan) for i in model.item_ids])
            for uid in list(excludes)[::4] + ["cold-user"]:
                est, defined = model._estimate_catalog(uid, item_means)
                per_item = [model._estimate(uid, i) for i in model.item_ids]
                assert [e is not None for e in per_item] == defined.tolist()
                assert [e for e in per_item if e is not None] == est[defined].tolist()

    def test_cold_user_counts_every_fallback(self, shipped_fixture):
        models, excludes = shipped_fixture
        exclude = set(models[0].item_ids[::3])
        chains = []
        for model in models:
            kept = [i for i in model.item_ids if i not in exclude]
            chain = (0 if model.spec.algorithm == "WarpHybrid" else
                     sum(model._estimate("cold-user", i) is None for i in kept))
            before = model.fallback_count
            model.recommend_top_n("cold-user", 10, exclude=exclude)
            assert model.fallback_count - before == chain
            chains.append(chain)
        assert max(chains) == len(models[0].item_ids) - len(exclude)


class TestContracts:
    @pytest.mark.parametrize("alg", rec.ALGORITHMS)
    def test_clamped_predictions(self, alg, small_dataset):
        train = list(small_dataset.ratings[:400])
        model = fit(RecommenderSpec(alg), train, items=small_dataset.items, seed=3)
        rng = np.random.default_rng(0)
        users = list(small_dataset.users)
        items = list(small_dataset.items)
        for _ in range(50):
            u = users[rng.integers(len(users))]
            i = items[rng.integers(len(items))]
            assert 1.0 <= model.predict_rating(u, i) <= 5.0

    @pytest.mark.parametrize("alg", rec.ALGORITHMS)
    def test_deterministic_refit(self, alg, small_dataset):
        train = list(small_dataset.ratings[:400])
        kwargs = {"items": small_dataset.items, "seed": 11}
        a = fit(RecommenderSpec(alg), train, **kwargs)
        b = fit(RecommenderSpec(alg), train, **kwargs)
        assert a.fingerprint == b.fingerprint
        rng = np.random.default_rng(1)
        users = list(small_dataset.users)
        items = list(small_dataset.items)
        for _ in range(30):
            u = users[rng.integers(len(users))]
            i = items[rng.integers(len(items))]
            assert a.predict_rating(u, i) == b.predict_rating(u, i)

    def test_fallback_counted(self):
        model = fit(RecommenderSpec("SlopeOne"), [ev(1, 1, 4), ev(2, 2, 3)], seed=0)
        before = model.fallback_count
        model.predict_rating("ghost-user", "ghost-item")
        assert model.fallback_count == before + 1


def test_svdmf_beats_baseline_on_rank2():
    train, test = rank2_dataset(seed=0)
    svd = fit(RecommenderSpec("SvdMf", {"epochs": 100, "learn_rate": 0.01}),
              train, seed=7)
    base = fit(RecommenderSpec("BaselineOnly"), train, seed=7)
    assert heldout_rmse(svd, test) < heldout_rmse(base, test)
