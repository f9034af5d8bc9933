import math
import os
import pickle

import numpy as np
import pytest

from metahybrid import recommenders as rec
from helpers import ratings_of
from metahybrid.data import enrich_items, load_movielens
from metahybrid.fixtures import make_fixture
from metahybrid.pipeline import StageError
from metahybrid.recommenders import RecommenderSpec, fit
from metahybrid.recommenders.content import feature_columns, feature_matrix
from metahybrid.splits import SplitPlan, nested_split, slice_events

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")


def ev(u, i, r, ts=None):
    return u, i, r, ts or (hash((u, i)) % 1000 + 1)


def rows(events):
    """(user, item, rating, timestamp) rows as the columns that `fit` takes,
    in their order."""
    return ratings_of(events)


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
                event = (u + 1, i + 1, r, ts)
                ts += 1
                (train if rng.random() < 0.8 else test).append(event)
    return train, test


def heldout_rmse(model, events):
    sq = [(model.predict_rating(u, i) - r) ** 2 for u, i, r, _ in events]
    return math.sqrt(sum(sq) / len(sq))


class TestSpecValidation:
    def test_table_defaults_accepted(self):
        RecommenderSpec("SvdMf", {"factors": 20, "epochs": 30})
        RecommenderSpec("CoClustering", {"user_clusters": 7, "item_clusters": 5,
                                         "epochs": 30})
        RecommenderSpec("KnnBasic", {"k": 50, "min_support": 1})
        RecommenderSpec("WarpHybrid", {"components": 30})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            RecommenderSpec("Xgb")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown params"):
            RecommenderSpec("SvdMf", {"n_trees": 3})

    def test_roundtrip(self):
        assert RecommenderSpec.from_dict({"algorithm": "SvdMf", "params": {"factors": 10}}) \
            == RecommenderSpec("SvdMf", {"factors": 10})

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit(RecommenderSpec("SlopeOne"), rows([]), seed=1)

    def test_catalog_is_the_slice_item_table(self):
        # item 3 is in the table but unrated: the catalog covers it, ranks
        # it and rates it by the fallback chain, user 1's mean; the records
        # in `items` do not narrow the catalog
        from metahybrid.data import ItemRecord
        model = fit(RecommenderSpec("SlopeOne"),
                    ratings_of([ev(1, 1, 4), ev(1, 2, 3)], item_ids=[1, 2, 3]),
                    items={1: ItemRecord(item_id=1)}, seed=1)
        assert model.item_ids == [1, 2, 3]
        assert model.predict_rating(1, 3) == 3.5
        assert model.fallback_count == 1
        assert model.recommend_top_n(1, 3, exclude={1, 2}) == [3]

    def test_unsorted_item_table_rejected(self):
        with pytest.raises(ValueError, match="item table is not sorted"):
            fit(RecommenderSpec("SlopeOne"), ratings_of([ev(1, 1, 4)], item_ids=[2, 1]), seed=1)

    def test_content_item_without_record_rejected(self):
        from metahybrid.data import ItemRecord
        items = {1: ItemRecord(item_id=1, genres=frozenset({"g"}))}
        for algorithm in ("ContentBased", "WarpHybrid"):
            with pytest.raises(ValueError, match="item 2 has no record"):
                fit(RecommenderSpec(algorithm), rows([ev(1, 1, 4), ev(1, 2, 3)]),
                    items=items, seed=1)

    def test_content_needs_catalog(self):
        with pytest.raises(ValueError, match="catalog"):
            fit(RecommenderSpec("ContentBased"), rows([ev(1, 1, 4)]), seed=1)
        with pytest.raises(ValueError, match="catalog"):
            fit(RecommenderSpec("WarpHybrid"), rows([ev(1, 1, 4)]), seed=1)


class TestBaselineOnly:
    def test_constant_data_fixed_point(self):
        train = [ev(u, i, 4) for u in (1, 2, 3) for i in (10, 11)]
        model = fit(RecommenderSpec("BaselineOnly"), rows(train), seed=1)
        assert model.predict_rating(1, 10) == pytest.approx(4.0, abs=1e-3)
        assert model.predict_rating(99, 999) == pytest.approx(4.0, abs=1e-3)

    def test_learns_item_bias_direction(self):
        train = [ev(u, 1, 5) for u in range(1, 8)] + [ev(u, 2, 1) for u in range(1, 8)]
        model = fit(RecommenderSpec("BaselineOnly"), rows(train), seed=1)
        assert model.predict_rating(1, 1) > model.predict_rating(1, 2)


class TestSlopeOne:
    def test_two_item_hand_case(self):
        # A rated i1=1, i2=2; B rated i1=2. dev(i2,i1)=1 so predict(B,i2)=3.
        train = [ev("A", "i1", 1, 10), ev("A", "i2", 2, 20), ev("B", "i1", 2, 30)]
        model = fit(RecommenderSpec("SlopeOne"), rows(train), seed=0)
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
            model = fit(RecommenderSpec("SlopeOne"), rows(train), seed=0)
            co = [(ratings[(u, 2)] - ratings[(u, 1)]) for u in range(n_users)
                  if (u, 1) in ratings and (u, 2) in ratings]
            for u in range(n_users):
                if (u, 1) in ratings and (u, 2) not in ratings and co:
                    expected = ratings[(u, 1)] + sum(co) / len(co)
                    expected = min(5.0, max(1.0, expected))
                    assert model.predict_rating(u, 2) == pytest.approx(expected, abs=1e-12)

    # numpy's integer `+=` wraps without a warning, so a matrix one type too
    # narrow would show only in its values
    def test_deviation_sums_hold_four_times_the_user_count(self):
        # 32 users each rate i1 5 and i2 1: +-128, past int8, the type that
        # holds -4 x 32
        train = [ev(u, i, r, ts=2 * u + i) for u in range(32) for i, r in ((1, 5), (2, 1))]
        model = fit(RecommenderSpec("SlopeOne"), rows(train), seed=0)
        assert np.min_scalar_type(-4 * 32) == np.int8
        assert model.dev_sum.dtype == np.int16
        assert model.dev_sum.tolist() == [[0, 128], [-128, 0]]
        assert model.counts.tolist() == [[0, 32], [32, 0]]
        est, defined, _ = model._estimate_block(np.array([model.uidx[0]]))
        assert est[0].tolist() == [5.0, 1.0] and defined.all()

    def test_counts_hold_the_user_count(self):
        # 300 users co-rate one pair: past uint8
        train = [ev(u, i, r, ts=2 * u + i) for u in range(300)
                 for i, r in ((1, 1 + u % 5), (2, 3))]
        model = fit(RecommenderSpec("SlopeOne"), rows(train), seed=0)
        assert model.counts.dtype == np.uint16
        assert model.counts.tolist() == [[0, 300], [300, 0]]
        assert model.dev_sum.tolist() == [[0, 0], [0, 0]]  # each rating 60 times
        est, _, _ = model._estimate_block(np.array([model.uidx[9]]))
        assert est[0].tolist() == [3.0, 5.0]  # user 9 rated (5, 3)


class TestKnnBasic:
    def test_identical_neighbor(self):
        common = [(1, 4), (2, 3), (3, 5), (4, 2), (5, 4)]
        train = [ev("u1", i, r, ts=i) for i, r in common]
        train += [ev("u2", i, r, ts=i) for i, r in common]
        train += [ev("u2", 9, 5, ts=9)]
        model = fit(RecommenderSpec("KnnBasic"), rows(train), seed=0)
        assert model.predict_rating("u1", 9) == pytest.approx(5.0)

    def test_cosine_symmetry(self):
        train, _ = rank2_dataset(seed=3, n_users=15, n_items=12)
        model = fit(RecommenderSpec("KnnBasic"), rows(train), seed=0)
        assert np.allclose(model.sim, model.sim.T, atol=1e-12)
        assert np.all(model.sim <= 1.0 + 1e-12)

    def test_similarities_exactly_symmetric(self, trh_slice, shipped_fixture):
        # the pickle keeps the upper triangle; every ordered pair of the
        # fitted matrix equals its own per-pair cosine
        rank2 = rows(rank2_dataset(seed=3, n_users=15, n_items=12)[0])
        knn = next(m for m in shipped_fixture[0] if m.spec.algorithm == "KnnBasic")
        for model, train in ((fit(RecommenderSpec("KnnBasic"), rank2, seed=0), rank2),
                             (knn, trh_slice[2])):
            assert np.array_equal(model.sim, model.sim.T)
            assert np.array_equal(model.sim, reference_similarities(model, train))


    def test_products_exact_in_their_float_type(self):
        # the largest sum, 25 x n_items, is an integer: float32 holds every
        # one up to 2^24, and not 16,777,225 = 25 x 671,089
        from metahybrid.recommenders.collaborative import _exact_sum_dtype
        below, above = 2 ** 24 // 25, 2 ** 24 // 25 + 1
        assert _exact_sum_dtype(500) == _exact_sum_dtype(below) == np.float32
        assert _exact_sum_dtype(above) == np.float64
        assert int(np.float32(25 * below)) == 25 * below
        assert int(np.float32(25 * above)) != 25 * above

    def test_raters_kept_in_narrow_integers(self, trh_slice, shipped_fixture):
        # user indices as int32 and the integer ratings as int8, one entry
        # per rating, by (item, user)
        knn = next(m for m in shipped_fixture[0] if m.spec.algorithm == "KnnBasic")
        assert knn._raters.dtype == np.int32 and knn._rater_vals.dtype == np.int8
        entries = sorted((knn.iidx[r.item_id], knn.uidx[r.user_id], r.rating)
                         for r in trh_slice[2])
        assert list(zip(knn._rater_items.tolist(), knn._raters.tolist(),
                        knn._rater_vals.tolist())) == entries


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
        train = small_dataset.ratings.take(slice(0, 200))
        model = fit(RecommenderSpec("ContentBased"), train,
                    items=small_dataset.items, seed=0)
        for r in list(train)[:30]:
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
            train.append((u, 1, 5, ts)); ts += 1  # everyone loves item 1
            for i in rng.permutation(np.arange(2, n_items + 1))[:8]:
                train.append((u, int(i), int(rng.integers(1, 4)), ts))
                ts += 1
        model = fit(RecommenderSpec("WarpHybrid"), rows(train), items=items, seed=9)
        ranks = []
        for u in range(1, 21):
            ranked = model.recommend_top_n(u, n_items)
            ranks.append(ranked.index(1) + 1)
        assert np.mean(ranks) <= 0.1 * n_items

    def test_rank_score_used_for_ordering(self, small_dataset):
        train = small_dataset.ratings.take(slice(0, 300))
        model = fit(RecommenderSpec("WarpHybrid", {"epochs": 5}), train,
                    items=small_dataset.items, seed=1)
        uid = next(iter(train)).user_id
        ranked = model.recommend_top_n(uid, 10)
        scores = dict(zip(model.item_ids, model.score_block([uid], 1)[1][0]))
        assert ranked == sorted(model.item_ids, key=lambda i: (-scores[i], i))[:10]
        assert [scores[i] for i in ranked] == sorted(
            (scores[i] for i in ranked), reverse=True)


class ScriptedDraws:
    """Stands in for WarpHybrid's generator: the identity permutation, and
    the given (positive, trial) negative draws."""

    def __init__(self, draws):
        self.draws = np.array(draws)

    def permutation(self, n):
        return np.arange(n)

    def integers(self, low, high, size):
        assert (low, high, size) == (0, self.draws.max() + 1, self.draws.shape)
        return self.draws


class TestWarpTrainer:
    def test_first_violator_hand_case(self):
        from metahybrid.data import ItemRecord
        items = {1: ItemRecord(item_id=1, genres=frozenset({"g"})),
                 2: ItemRecord(item_id=2, genres=frozenset({"g"})),
                 3: ItemRecord(item_id=3, genres=frozenset({"h"}))}
        spec = RecommenderSpec("WarpHybrid", {"epochs": 0, "components": 2,
                                              "max_trials": 12, "learn_rate": 0.1})
        model = fit(spec, ratings_of([ev(1, 1, 5), ev(2, 2, 5)], item_ids=[1, 2, 3]),
                    items=items, seed=0)
        model.params["epochs"] = 1
        content = feature_matrix(*feature_columns(model.item_ids, items),
                                 normalize=False)
        # F: genre g, genre h, then the identity rows of items 0, 1, 2
        model.F = np.array([[0.1, 0.0], [0.0, 0.1], [0.05, 0.02],
                            [-0.03, 0.04], [0.02, -0.01]])
        model.U = np.array([[0.2, 0.1], [-0.1, 0.3]])
        model.b = np.array([0.0, 0.0, -5.0])  # item 2 never violates a margin of 1
        F0, U0 = model.F.copy(), model.U.copy()
        feats = [[0, 2], [0, 3], [1, 4]]
        reps = np.array([F0[f].sum(axis=0) for f in feats])
        positives = [(0, 0), (0, 1), (1, 0), (0, 2)]
        draws = [[0, 1] + [2] * 10,  # j == i is skipped: item 1 at trial 2
                 [1] * 12,  # only j == i: no step
                 [2] * 11 + [1],  # item 2 does not violate: item 1 at trial 12
                 [0] * 12]  # item 0 at trial 1
        model._train(positives, content, ScriptedDraws(draws))

        U, F, b = U0.copy(), F0.copy(), np.array([0.0, 0.0, -5.0])
        # (user, positive, violator, trials): user 0 takes two steps, item 0
        # three and item 1 two, all computed from the same snapshot
        for u, i, j, trials in [(0, 0, 1, 2), (1, 0, 1, 12), (0, 2, 0, 1)]:
            step = 0.1 * math.log(max(1, 2 // trials) + 1)
            U[u] += step * (reps[i] - reps[j])
            F[feats[i]] += step * U0[u]
            F[feats[j]] -= step * U0[u]
            b[i] += step
            b[j] -= step
        assert np.linalg.norm(np.vstack([U, F]), axis=1).max() < 1.0  # no projection
        assert np.allclose(model.U, U, rtol=0.0, atol=1e-15)
        assert np.allclose(model.F, F, rtol=0.0, atol=1e-15)
        assert np.allclose(model.b, b, rtol=0.0, atol=1e-15)

    def test_rows_stay_within_the_norm_bound(self, shipped_fixture):
        from metahybrid.recommenders.warp import _NORM
        models, _ = shipped_fixture
        model = next(m for m in models if m.spec.algorithm == "WarpHybrid")
        assert model.params["epochs"] == 30
        for name in ("U", "F"):
            norms = np.linalg.norm(getattr(model, name), axis=1)
            assert norms.max() <= _NORM * (1 + 1e-12), name
        assert np.isfinite(model.b).all()

    def test_same_seed_same_arrays(self, trh_slice):
        dataset, _, train = trh_slice
        spec = RecommenderSpec("WarpHybrid", {"epochs": 3})
        a, b = (fit(spec, train, items=dataset.items, seed=8) for _ in range(2))
        other = fit(spec, train, items=dataset.items, seed=9)
        for name in ("F", "U", "b"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert not np.array_equal(getattr(a, name), getattr(other, name)), name

    def test_reps_built_once_and_not_pickled(self, small_dataset):
        train = small_dataset.ratings.take(slice(0, 200))
        model = fit(RecommenderSpec("WarpHybrid", {"epochs": 2}), train,
                    items=small_dataset.items, seed=3)
        uid, items = next(iter(train)).user_id, sorted(small_dataset.items)
        first = model.predict_ratings(uid, items)
        reps = model._reps
        model.recommend_top_n(uid, 5)
        assert model._reps is reps
        assert np.array_equal(reps, [warp_rep(model, i) for i in range(len(model.item_ids))])
        loaded = pickle.loads(pickle.dumps(model))
        assert not {"_reps", "_item_mean_vector"} & set(loaded.__dict__)
        assert loaded.predict_ratings(uid, items).tolist() == first.tolist()


class TestTopN:
    def _model(self, preds):
        class Stub(rec.FittedRecommender):
            def __init__(self, preds):
                train = [ev(1, i, 3, ts=k + 1) for k, i in enumerate(preds)]
                super().__init__(RecommenderSpec("SlopeOne"), rows(train), {}, 0)
                self._preds = preds

            def _estimate_block(self, codes):
                est = np.tile([self._preds[i] for i in self.item_ids], (len(codes), 1))
                return est, np.ones(est.shape, dtype=bool), None

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
        # a NaN estimate takes the counted fallback (i1's mean, 3.0), not
        # the floor; the others are clamped to [1, 5]
        model = self._model({"i1": float("nan"), "i2": 0.5, "i3": 2.0, "i4": 7.0})
        before = model.fallback_count
        assert model.recommend_top_n(1, 4) == ["i4", "i1", "i3", "i2"]
        assert model.fallback_count - before == 1

    def test_non_finite_estimate_takes_counted_fallback(self):
        model = self._model({"i1": float("nan"), "i2": 0.5, "i3": float("inf"),
                             "i4": 7.0, "i5": -float("inf")})
        before = model.fallback_count
        assert model.predict_rating(1, "i1") == 3.0
        assert model.fallback_count - before == 1
        assert model.predict_ratings(1, ["i4", "i3", "i2", "i5", "i1"]).tolist() == [
            5.0, 3.0, 1.0, 3.0, 3.0]
        assert model.fallback_count - before == 4

    def test_truncates_to_catalog(self):
        model = self._model({"i1": 2.0})
        assert model.recommend_top_n(1, 10) == ["i1"]


@pytest.fixture(scope="module")
def trh_slice():
    """The shipped fixture, its nested split, and the ratings of its
    training users' inner-train slices."""
    dataset = enrich_items(
        load_movielens(*(os.path.join(FIXTURES, f)
                         for f in ("ratings.dat", "users.dat", "movies.dat"))),
        os.path.join(FIXTURES, "metadata.csv"))
    split = nested_split(dataset, SplitPlan(seed=5))
    return dataset, split, slice_events(split.train_inner_train)


@pytest.fixture(scope="module")
def shipped_fixture(trh_slice):
    """Every algorithm (plus KnnBasic with k=3, so the top-k cut applies)
    fitted on the shipped fixture's training users' inner-train slices; the
    test users are cold for these models."""
    dataset, split, train = trh_slice
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
            scores, fell_back = zip(*(reference_rating(model, uid, i) for i in kept))
            # one fallback per kept item the chain rates, also where the
            # ranking reads another score
            assert served == sum(fell_back)
            if warp:  # ranks by its raw score
                u = model.uidx.get(uid)
                scores = [float(model.b[model.iidx[i]]) if u is None else
                          warp_score(model, u, model.iidx[i]) for i in kept]
            expected = [i for _, i in sorted(zip((-s for s in scores), kept))[:10]]
            assert ranked == expected, uid
            assert not set(ranked) & exclude

    @pytest.mark.parametrize("alg", ["BaselineOnly", "CoClustering", "SlopeOne", "KnnBasic"])
    def test_exact_algorithms_match_per_item_estimates(self, alg, shipped_fixture):
        # SvdMf, ContentBased and WarpHybrid take one matrix-vector product,
        # which may round differently from a per-item dot product
        models, excludes = shipped_fixture
        for model in (m for m in models if m.spec.algorithm == alg):
            users = list(excludes)[::4] + ["cold-user"]
            block = model._estimate_block(np.array([model.uidx.get(uid, -1) for uid in users]))
            for uid, est, defined in zip(users, *block[:2]):
                per_item = [reference_estimate(model, uid, i) for i in model.item_ids]
                assert [e is not None for e in per_item] == defined.tolist()
                assert [e for e in per_item if e is not None] == est[defined].tolist()

    def test_slope_one_pickle_rebuilds_its_matrices(self, shipped_fixture):
        models, excludes = shipped_fixture
        model = next(m for m in models if m.spec.algorithm == "SlopeOne")
        assert len(pickle.dumps(model)) < (model.dev_sum.nbytes + model.counts.nbytes) / 10
        assert_load_rebuilds(model, excludes, ("dev_sum", "counts"))

    def test_knn_pickle_holds_no_similarity(self, shipped_fixture):
        models, excludes = shipped_fixture
        for model in (m for m in models if m.spec.algorithm == "KnnBasic"):
            state = model.__getstate__()
            assert not {"sim", "_sim_upper", "_rater_items"} & set(state)
            assert [state[k].dtype for k in ("_raters", "_rater_vals")] == [np.int32, np.int8]
            assert_load_rebuilds(model, excludes, ("_rater_items", "sim"))

    def test_knn_load_rebuilds_fitted_similarities(self, trh_slice, shipped_fixture):
        # on the fixture, and on a random half of its rows, out of order,
        # where a minimum support of 3 zeroes some pairs
        train = trh_slice[2]
        half = train.take(np.random.default_rng(8).permutation(len(train))[:len(train) // 2])
        knn = next(m for m in shipped_fixture[0] if m.spec.algorithm == "KnnBasic")
        weak = fit(RecommenderSpec("KnnBasic", {"min_support": 3}), half, seed=0)
        assert (weak.sim != fit(RecommenderSpec("KnnBasic"), half, seed=0).sim).any()
        for model in (knn, weak):
            assert np.array_equal(pickle.loads(pickle.dumps(model)).sim, model.sim)

    def test_knn_state_with_upper_triangle_rejected(self, shipped_fixture, read_older_artifact):
        model = next(m for m in shipped_fixture[0] if m.spec.algorithm == "KnnBasic")
        upper = model.sim[np.triu_indices(len(model.user_ids), 1)]
        with pytest.raises(StageError, match="rerun every stage from ingest"):
            read_older_artifact(type(model), {**model.__getstate__(), "_sim_upper": upper})

    def test_content_pickle_keeps_feature_columns(self, shipped_fixture):
        models, excludes = shipped_fixture
        model = next(m for m in models if m.spec.algorithm == "ContentBased")
        state = model.__getstate__()
        assert not {"features", "_item_norms", "_profile_norms"} & set(state)
        assert state["_feature_cols"].size == np.count_nonzero(model.features)
        assert state["profiles"].shape == (len(model.user_ids), model._n_features)
        assert_load_rebuilds(model, excludes, ("features", "_item_norms"))

    def test_content_profile_norms_are_row_norms(self, shipped_fixture, read_older_artifact):
        # each the 1-D norm of its row, as the per-user dict held them
        model = next(m for m in shipped_fixture[0] if m.spec.algorithm == "ContentBased")
        loaded = pickle.loads(pickle.dumps(model))
        for norms in (model._profile_norms, loaded._profile_norms):
            assert norms.tolist() == [float(np.linalg.norm(p)) for p in model.profiles]
        # the per-user dict layout
        with pytest.raises(StageError, match="rerun every stage from ingest"):
            read_older_artifact(type(model), {
                **model.__getstate__(), "profiles": dict(zip(model.user_ids, model.profiles)),
                "_profile_norms": dict(zip(model.user_ids, model._profile_norms.tolist()))})

    def test_slope_one_keeps_narrow_rows(self, trh_slice, shipped_fixture):
        # each user's rows by catalog index, as the per-user dict of (int64,
        # float64) arrays held them, and the float64 and int64 deviation sums
        # and counts built from those, which the narrow matrices equal
        train = trh_slice[2]
        model = next(m for m in shipped_fixture[0] if m.spec.algorithm == "SlopeOne")
        state = model.__getstate__()
        assert "_user_items" not in state
        assert [state[k].dtype for k in ("_cols", "_vals")] == [np.int32, np.int8]
        per_user = {}
        for r in train:
            per_user.setdefault(r.user_id, []).append((model.iidx[r.item_id], float(r.rating)))
        n = len(model.item_ids)
        dev_sum, counts = np.zeros((n, n)), np.zeros((n, n), dtype=np.int64)
        for u, uid in enumerate(model.user_ids):
            idx, vals = map(np.array, zip(*sorted(per_user[uid])))
            got = model._rows(u)
            assert np.array_equal(got[0], idx) and np.array_equal(got[1], vals)
            dev_sum[np.ix_(idx, idx)] += vals[:, None] - vals[None, :]
            counts[np.ix_(idx, idx)] += 1
        np.fill_diagonal(counts, 0)
        with np.errstate(invalid="ignore"):
            dev = np.where(counts > 0, dev_sum / np.maximum(counts, 1), 0.0)
        # 140 users: deviation sums within +-560, counts up to 140
        assert [model.dev_sum.dtype, model.counts.dtype] == [np.int16, np.uint8]
        assert np.array_equal(model.dev_sum, dev_sum)
        assert np.array_equal(model.counts, counts)
        narrow_dev = model.dev_sum / np.maximum(model.counts, 1)
        assert narrow_dev.tobytes() == dev.tobytes()

    @pytest.mark.parametrize("which", range(len(rec.ALGORITHMS) + 1),
                             ids=list(rec.ALGORITHMS) + ["KnnBasic-k3"])
    def test_loaded_model_pickles_to_its_bytes(self, which, shipped_fixture):
        blob = pickle.dumps(shipped_fixture[0][which], protocol=4)
        assert pickle.dumps(pickle.loads(blob), protocol=4) == blob

    def test_cold_user_counts_every_fallback(self, shipped_fixture):
        models, excludes = shipped_fixture
        exclude = set(models[0].item_ids[::3])
        chains = []
        for model in models:
            kept = [i for i in model.item_ids if i not in exclude]
            chain = sum(reference_estimate(model, "cold-user", i) is None for i in kept)
            before = model.fallback_count
            model.recommend_top_n("cold-user", 10, exclude=exclude)
            assert model.fallback_count - before == chain
            chains.append(chain)
        assert max(chains) == len(models[0].item_ids) - len(exclude)

    @pytest.mark.parametrize("alg", rec.ALGORITHMS)
    def test_predict_ratings_match_reference(self, alg, shipped_fixture):
        # the catalog pass against the per-item estimate, fallback and
        # clamp; the matrix-vector products may round differently
        exact = alg in ("BaselineOnly", "CoClustering", "SlopeOne", "KnnBasic")
        models, excludes = shipped_fixture
        rng = np.random.default_rng(3)
        for model in (m for m in models if m.spec.algorithm == alg):
            items = [model.item_ids[j] for j in rng.permutation(len(model.item_ids))]
            items.append("ghost-item")
            items.insert(7, items[3])  # a repeated item counts twice
            for uid in list(excludes)[::16] + ["cold-user"]:
                before = model.fallback_count
                got = model.predict_ratings(uid, items)
                served = model.fallback_count - before
                expected, fell_back = zip(*(reference_rating(model, uid, i)
                                            for i in items))
                assert served == sum(fell_back) > 0
                if exact:
                    assert got.tolist() == list(expected)
                else:
                    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
                assert model.predict_rating(uid, items[0]) == got[0]


def assert_load_rebuilds(model, excludes, derived):
    """A pickled and loaded `model` rebuilds each `derived` attribute equal
    to the fitted one, and estimates every user's catalog as it does."""
    loaded = pickle.loads(pickle.dumps(model))
    # the load rebuilds `derived` after the pickled state; the item-mean
    # vector is built on first use, after a load too
    assert list(loaded.__dict__) == [k for k in model.__dict__
                                     if k not in model._derived] + list(derived)
    for name in derived:
        assert np.array_equal(getattr(loaded, name), getattr(model, name)), name
    codes = np.array([model.uidx.get(uid, -1) for uid in list(excludes) + ["cold-user"]])
    for a, b in zip(loaded._estimate_block(codes), model._estimate_block(codes)):
        assert a is b is None or np.array_equal(a, b)


def warp_rep(model, i):
    """WarpHybrid's representation of catalog item i: its content feature
    embeddings, ascending, then its identity row, summed."""
    feats = model._feature_cols[model._feature_ptr[i]:model._feature_ptr[i + 1]]
    return model.F[np.append(feats, model._n_features + i)].sum(axis=0)


def warp_score(model, u, i):
    """WarpHybrid's raw score of catalog item i for user index u, one dot
    product per item."""
    return float(model.U[u] @ warp_rep(model, i)) + float(model.b[i])


def reference_estimate(model, user, item):
    """The rating estimate of `model` for one (user, item), computed item by
    item; None where the algorithm has none."""
    alg = model.spec.algorithm
    u, i = model.uidx.get(user), model.iidx.get(item)
    known_item = item in model.item_means
    if alg in ("BaselineOnly", "SvdMf"):
        if u is None and not known_item:
            return None
        est = model.mu
        if u is not None:
            est += model.bu[u]
        if i is not None and known_item:
            est += model.bi[i]
        if alg == "SvdMf" and u is not None and i is not None and known_item:
            est += float(model.p[u] @ model.q[i])
        return est
    if alg == "CoClustering":
        if u is None and not known_item:
            return None
        if u is None:
            return model.item_means[item]
        if i is None or not known_item:
            return model.user_means[user]
        g, h = model.ug[u], model.ig[i]
        return (model.A[g, h] + (model.umean[u] - model.Ag[g])
                + (model.imean[i] - model.Ah[h]))
    if alg == "SlopeOne":
        if i is None or u is None:
            return None
        idx, vals = model._rows(u)
        c = model.counts[i, idx]
        mask = c > 0
        if not mask.any():
            return None
        c = c[mask]
        dev = model.dev_sum[i, idx][mask] / c
        return ((dev + vals[mask]) * c).sum() / c.sum()
    if alg == "KnnBasic":
        if u is None or i is None:
            return None
        lo, hi = model._rater_ptr[i], model._rater_ptr[i + 1]
        idx, vals = model._raters[lo:hi], model._rater_vals[lo:hi]
        sims = model.sim[u, idx]
        mask = sims > 0
        if not mask.any():
            return None
        sims, vals, idx = sims[mask], vals[mask], idx[mask]
        if sims.size > model.params["k"]:
            # top-k by similarity, ties toward the lower user index
            order = np.lexsort((idx, -sims))[:model.params["k"]]
            sims, vals = sims[order], vals[order]
        return float((sims * vals).sum() / sims.sum())
    if alg == "ContentBased":
        if i is None or u is None:
            return None
        pnorm = np.linalg.norm(model.profiles[u])
        ivec = model.features[i]
        inorm = np.linalg.norm(ivec)
        if pnorm == 0.0 or inorm == 0.0:
            return None
        return 1.0 + 4.0 * float(model.profiles[u] @ ivec) / (pnorm * inorm)
    assert alg == "WarpHybrid"
    if i is None or u is None:
        return None
    scores = model._reps @ model.U[u] + model.b  # the raw catalog scores
    lo, hi = float(scores.min()), float(scores.max())
    if hi <= lo:
        return 3.0
    return 1.0 + 4.0 * (warp_score(model, u, i) - lo) / (hi - lo)


def reference_similarities(model, train):
    """KnnBasic's cosine of every ordered pair of distinct users over their
    co-rated items, pair by pair (no minimum support)."""
    ratings: dict = {}
    for r in train:
        ratings.setdefault(r.user_id, {})[r.item_id] = float(r.rating)
    sim = np.zeros((len(model.user_ids),) * 2)
    for a, u in enumerate(model.user_ids):
        for b, v in enumerate(model.user_ids):
            common = sorted(ratings[u].keys() & ratings[v].keys())
            if a == b or not common:
                continue
            dot = sum(ratings[u][i] * ratings[v][i] for i in common)
            norm = math.sqrt(sum(ratings[u][i] ** 2 for i in common)
                             * sum(ratings[v][i] ** 2 for i in common))
            sim[a, b] = dot / norm
    return sim


def reference_rating(model, user, item):
    """(rating, fell back) for one (user, item): the reference estimate, or
    the fallback chain where it is undefined, not finite or the item is
    off the catalog, clamped to [1, 5]."""
    est = reference_estimate(model, user, item) if item in model.iidx else None
    if est is None or not math.isfinite(est):
        return min(5.0, max(1.0, model._fallback(user, item))), True
    return min(5.0, max(1.0, est)), False


def encode(model, train):
    """The encoded slice that `model` fits from: the (user index, catalog
    index, rating) arrays of `train`, in its order."""
    return (np.array([model.uidx[r.user_id] for r in train]),
            np.array([model.iidx[r.item_id] for r in train]),
            np.array([float(r.rating) for r in train]))


def reference_baseline(model, train):
    """BaselineOnly's per-rating SGD on numpy arrays: (bu, bi)."""
    lr, reg, mu = model.params["learn_rate"], model.params["reg"], model.global_mean
    bu, bi = np.zeros(len(model.user_ids)), np.zeros(len(model.item_ids))
    for _ in range(model.params["epochs"]):
        for r in sorted(train, key=lambda r: (r.user_id, r.item_id)):
            u, i = model.uidx[r.user_id], model.iidx[r.item_id]
            err = r.rating - (mu + bu[u] + bi[i])
            bu[u] += lr * (err - reg * bu[u])
            bi[i] += lr * (err - reg * bi[i])
    return bu, bi


def reference_svdmf(model, train):
    """SvdMf's per-rating SGD on numpy arrays: (bu, bi, p, q)."""
    prm = model.params
    lr, reg, mu = prm["learn_rate"], prm["reg"], model.global_mean
    rng = np.random.default_rng(model.seed)
    p = rng.normal(0.0, prm["init_std"], size=(len(model.user_ids), prm["factors"]))
    q = rng.normal(0.0, prm["init_std"], size=(len(model.item_ids), prm["factors"]))
    bu, bi = np.zeros(len(model.user_ids)), np.zeros(len(model.item_ids))
    for _ in range(prm["epochs"]):
        for r in sorted(train, key=lambda r: (r.user_id, r.item_id)):
            u, i = model.uidx[r.user_id], model.iidx[r.item_id]
            err = r.rating - (mu + bu[u] + bi[i] + p[u] @ q[i])
            bu[u] += lr * (err - reg * bu[u])
            bi[i] += lr * (err - reg * bi[i])
            pu = p[u].copy()
            p[u] += lr * (err * q[i] - reg * pu)
            q[i] += lr * (err * pu - reg * q[i])
    return bu, bi, p, q


def reference_coclustering(model, train):
    """CoClustering with one reassignment per user and per item:
    (A, Ag, Ah, ug, ig)."""
    ku, ki = model.params["user_clusters"], model.params["item_clusters"]
    nu, ni = len(model.user_ids), len(model.item_ids)
    rng = np.random.default_rng(model.seed)
    u_arr = np.array([model.uidx[r.user_id] for r in train])
    i_arr = np.array([model.iidx[r.item_id] for r in train])
    r_arr = np.array([float(r.rating) for r in train])
    order = np.lexsort((i_arr, u_arr))
    u_arr, i_arr, r_arr = u_arr[order], i_arr[order], r_arr[order]
    umean, imean = model.umean, model.imean
    ug = rng.integers(0, ku, size=nu)
    ig = rng.integers(0, ki, size=ni)
    by_user = [np.flatnonzero(u_arr == u) for u in range(nu)]
    by_item = [np.flatnonzero(i_arr == i) for i in range(ni)]
    for _ in range(model.params["epochs"]):
        A, Ag, Ah = model._averages(ku, ki, ug, ig, u_arr, i_arr, r_arr)
        new_ug = ug.copy()
        for u in range(nu):
            rows = by_user[u]
            if rows.size == 0:
                continue
            h = ig[i_arr[rows]]
            resid = r_arr[rows] - (umean[u] + imean[i_arr[rows]] - Ah[h])
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
        converged = np.array_equal(new_ug, ug) and np.array_equal(new_ig, ig)
        ug, ig = new_ug, new_ig
        if converged:
            break
    return (*model._averages(ku, ki, ug, ig, u_arr, i_arr, r_arr), ug, ig)


class TestBatchedFits:
    """The batched fits against the per-rating and per-user loops they
    replaced, array for array and bit for bit, on the shipped fixture."""

    @pytest.mark.parametrize("seed", [5, 8])
    def test_coclustering_matches_per_user_reassignment(self, seed, trh_slice):
        _, _, train = trh_slice
        model = fit(RecommenderSpec("CoClustering"), train, seed=seed)
        want = reference_coclustering(model, train)
        for name, ref in zip(("A", "Ag", "Ah", "ug", "ig"), want):
            assert np.array_equal(getattr(model, name), ref), name

    @pytest.mark.parametrize("seed", [5, 8])
    def test_sgd_fits_match_numpy_scalar_loops(self, seed, trh_slice):
        _, _, train = trh_slice
        base = fit(RecommenderSpec("BaselineOnly"), train, seed=seed)
        for name, ref in zip(("bu", "bi"), reference_baseline(base, train)):
            assert np.array_equal(getattr(base, name), ref), name
        svd = fit(RecommenderSpec("SvdMf", {"epochs": 4}), train, seed=seed)
        for name, ref in zip(("bu", "bi", "p", "q"), reference_svdmf(svd, train)):
            assert np.array_equal(getattr(svd, name), ref), name

    def test_svdmf_matches_per_rating_loop_at_default_epochs(self, trh_slice):
        _, _, train = trh_slice
        svd = fit(RecommenderSpec("SvdMf"), train, seed=5)
        assert svd.params["epochs"] == 30
        for name, ref in zip(("bu", "bi", "p", "q"), reference_svdmf(svd, train)):
            assert np.array_equal(getattr(svd, name), ref), name

    def test_sgd_waves_keep_each_user_and_item_in_order(self, trh_slice):
        from metahybrid.recommenders.collaborative import _sgd_waves
        _, _, train = trh_slice
        model = fit(RecommenderSpec("BaselineOnly", {"epochs": 0}), train, seed=5)
        waves = _sgd_waves(*encode(model, train))
        assert len(waves) < len(train)
        triples = [(model.uidx[r.user_id], model.iidx[r.item_id], float(r.rating))
                   for r in sorted(train, key=lambda r: (r.user_id, r.item_id))]
        scheduled = [t for wave in waves for t in zip(*(a.tolist() for a in wave))]
        assert sorted(scheduled) == sorted(triples)
        for users, items, _ in waves:
            assert len(set(users.tolist())) == len(users)
            assert len(set(items.tolist())) == len(items)
        for axis in (0, 1):  # users, then items
            want, got = {}, {}
            for t in triples:
                want.setdefault(t[axis], []).append(t)
            for t in scheduled:
                got.setdefault(t[axis], []).append(t)
            # one update per wave at most, so each user's (item's) updates
            # come in strictly increasing waves, in the loop's order
            assert got == want

    def test_sgd_waves_hand_case(self):
        from metahybrid.recommenders.collaborative import _sgd_waves
        train = rows([ev(1, 1, 5), ev(1, 2, 4), ev(2, 1, 3), ev(2, 2, 2), ev(3, 3, 1)])
        model = fit(RecommenderSpec("BaselineOnly", {"epochs": 0}), train, seed=0)
        waves = [list(zip(*(a.tolist() for a in wave)))
                 for wave in _sgd_waves(*encode(model, train))]
        # (2, 1) waits for (1, 1) only; (3, 3) shares nothing, so goes first
        assert waves == [[(0, 0, 5.0), (2, 2, 1.0)],
                         [(0, 1, 4.0), (1, 0, 3.0)],
                         [(1, 1, 2.0)]]


class TestScaledExactness:
    """At `make_fixture(1000, 1500)` the narrow matrices give every SlopeOne
    catalog estimate and every KnnBasic similarity of float64 and int64
    ones, bit for bit; the shipped fixture is too small to tell a sum in
    another order apart."""

    @pytest.fixture(scope="class")
    def scaled(self):
        dataset = make_fixture(1000, 1500)
        return dataset.ratings, dataset.items

    def test_slope_one_catalog_estimates(self, scaled):
        model = fit(RecommenderSpec("SlopeOne"), *scaled, seed=0)
        n = len(model.item_ids)
        dev_sum, counts = np.zeros((n, n)), np.zeros((n, n), dtype=np.int64)
        for u in range(len(model.user_ids)):
            idx, vals = model._rows(u)
            dev_sum[np.ix_(idx, idx)] += vals[:, None] - vals[None, :]
            counts[np.ix_(idx, idx)] += 1
        np.fill_diagonal(counts, 0)
        dev = np.divide(dev_sum, counts, out=dev_sum, where=counts > 0)
        block = model._estimate_block(np.arange(len(model.user_ids)))
        for uid, est, defined in zip(model.user_ids, *block[:2]):
            idx, vals = model._rows(model.uidx[uid])
            c = counts[:, idx]
            num = ((dev[:, idx] + vals) * c).sum(axis=1)
            den = c.sum(axis=1)
            want = np.divide(num, den, out=np.zeros(n), where=den > 0)
            assert est.tobytes() == want.tobytes(), uid
            assert np.array_equal(defined, den > 0)

    def test_knn_similarities(self, scaled):
        model = fit(RecommenderSpec("KnnBasic"), *scaled, seed=0)
        R = np.zeros((len(model.user_ids), len(model.item_ids)))
        R[model._raters, model._rater_items] = model._rater_vals
        M = (R > 0).astype(float)
        dot, sq = R @ R.T, np.square(R) @ M.T
        norm = np.sqrt(sq * sq.T)
        sim = np.divide(dot, norm, out=np.zeros_like(dot), where=norm > 0)
        np.fill_diagonal(sim, 0.0)  # min_support 1: no pair is weak
        assert model.sim.tobytes() == sim.tobytes()


class TestNumpyBehaviour:
    """The numpy behaviours that the batched fits, and the per-item
    references they are checked against, rely on for bit-identical results."""

    @pytest.mark.parametrize("scale", [1.0, 1e79])
    @pytest.mark.parametrize("d", [1, 7, 20, 64])
    def test_row_by_column_matmul_equals_per_row_dot(self, d, scale):
        rng = np.random.default_rng(d)
        p = rng.normal(size=(50, d)) * scale
        q = rng.normal(size=(50, d)) * scale
        got = np.matmul(p[:, None, :], q[:, :, None]).ravel()
        assert got.tolist() == [float(pu @ qi) for pu, qi in zip(p, q)]

    def test_axis0_reduce_adds_rows_in_order(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(10, 8, 30)) * 10.0 ** rng.integers(-5, 80, size=(10, 8, 1))
        expected = np.zeros((8, 30))
        for row in rows:
            expected += row
        assert np.array_equal(np.add.reduce(rows, 0), expected)

    def test_column_major_row_sums_add_in_order(self):
        # SlopeOne's catalog rows sum in sequence because its buffers keep
        # the column-major layout of a column gather; a row-major copy
        # sums pairwise
        rng = np.random.default_rng(3)
        values = rng.normal(size=(40, 300)) * 10.0 ** rng.integers(0, 12, size=(1, 300))
        gathered = values[:, rng.permutation(300)[:200]]
        assert gathered.flags.f_contiguous
        expected = np.zeros(40)
        for column in gathered.T:
            expected += column
        assert np.array_equal(gathered.sum(axis=1), expected)
        assert not np.array_equal(np.ascontiguousarray(gathered).sum(axis=1), expected)

    def test_segment_sums_match_per_run_sums(self):
        from metahybrid.data import segment_sums
        rng = np.random.default_rng(2)
        lengths = np.array([0, 1, 3, 8, 9, 17, 130, 3, 0, 300, 17])
        values = rng.normal(size=(lengths.sum(), 5)) * 10.0 ** rng.integers(0, 12, size=(1, 5))
        start = np.cumsum(lengths) - lengths
        sums = segment_sums(values, lengths)
        flat = segment_sums(values[:, 2], lengths)
        for j, (s, m) in enumerate(zip(start, lengths)):
            run = values[s:s + m]
            assert sums[j].tolist() == [np.ascontiguousarray(run[:, c]).sum()
                                        for c in range(5)]
            assert flat[j] == run[:, 2].sum()


class TestContracts:
    @pytest.mark.parametrize("alg", rec.ALGORITHMS)
    def test_clamped_predictions(self, alg, small_dataset):
        train = small_dataset.ratings.take(slice(0, 400))
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
        train = small_dataset.ratings.take(slice(0, 400))
        kwargs = {"items": small_dataset.items, "seed": 11}
        a = fit(RecommenderSpec(alg), train, **kwargs)
        b = fit(RecommenderSpec(alg), train, **kwargs)
        rng = np.random.default_rng(1)
        users = list(small_dataset.users)
        items = list(small_dataset.items)
        for _ in range(30):
            u = users[rng.integers(len(users))]
            i = items[rng.integers(len(items))]
            assert a.predict_rating(u, i) == b.predict_rating(u, i)

    @pytest.mark.parametrize("alg", ["BaselineOnly", "ContentBased", "WarpHybrid"])
    def test_pickle_with_dropped_state_loads(self, alg, small_dataset):
        # earlier versions also pickled rated_by_user, ContentBased's
        # feature_names and WarpHybrid's rating-scale cache
        train = small_dataset.ratings.take(slice(0, 200))
        model = fit(RecommenderSpec(alg, {"epochs": 2} if alg == "WarpHybrid" else {}),
                    train, items=small_dataset.items, seed=3)
        assert not {"rated_by_user", "feature_names"} & set(model.__dict__)
        old = pickle.loads(pickle.dumps(model))
        old.__dict__.update(rated_by_user={1: {2}}, feature_names=["genre:x"],
                            _rating_scale_cache={})
        loaded = pickle.loads(pickle.dumps(old))
        u, items = next(iter(train)).user_id, sorted(small_dataset.items)
        assert loaded.predict_ratings(u, items).tolist() == \
            model.predict_ratings(u, items).tolist()

    def test_models_fit_from_the_base_encoding(self):
        # the base class encodes the slice once; a model fits in `_fit`
        for cls in rec._MODEL_CLASSES.values():
            assert "__init__" not in vars(cls), cls.__name__
            assert "_fit" in vars(cls), cls.__name__

    def test_fallback_counted(self):
        model = fit(RecommenderSpec("SlopeOne"), rows([ev(1, 1, 4), ev(2, 2, 3)]), seed=0)
        before = model.fallback_count
        model.predict_rating("ghost-user", "ghost-item")
        assert model.fallback_count == before + 1


def test_svdmf_beats_baseline_on_rank2():
    train, test = rank2_dataset(seed=0)
    svd = fit(RecommenderSpec("SvdMf", {"epochs": 100, "learn_rate": 0.01}),
              rows(train), seed=7)
    base = fit(RecommenderSpec("BaselineOnly"), rows(train), seed=7)
    assert heldout_rmse(svd, test) < heldout_rmse(base, test)
