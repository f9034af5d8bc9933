import csv
import math
import os

import numpy as np
import pytest

from helpers import ratings_of
from metahybrid.data import RatingSlice, enrich_items, load_movielens
from metahybrid.evaluation import run_experiment
from metahybrid.forest import ForestParams, predict_label, predict_labels, predict_proba
from metahybrid.hybrid import (
    CandidateSet,
    MetaHybridModel,
    dispatch,
    generate_labels,
    oracle_select,
    preset_candidates,
    recommend,
    score_users,
    train_meta,
)
from metahybrid.metrics import (
    CUTOFFS,
    SCORE_COLUMNS,
    RelevanceConfig,
    ndcg_at,
    precision_recall_at,
    rmse,
)
from metahybrid.recommenders import FittedRecommender, RecommenderSpec
from metahybrid.splits import SplitPlan


class FakeRecommender:
    """Serves a fixed per-user ranking regardless of training data, through
    the block contract: a listed item scores by its place, any other
    catalog item NaN, which leaves it unranked."""

    recommend_top_n = FittedRecommender.recommend_top_n

    def __init__(self, rankings):
        self.rankings = rankings
        self.item_ids = sorted({i for ranked in rankings.values() for i in ranked})
        self.iidx = {iid: j for j, iid in enumerate(self.item_ids)}

    def score_block(self, users, reads):
        rank = np.full((len(users), len(self.item_ids)), np.nan)
        for r, user in enumerate(users):
            ranked = self.rankings.get(user, [])
            rank[r, [self.iidx[i] for i in ranked]] = -np.arange(len(ranked))
        return rank, rank

    def predict_rating(self, user, item):
        return np.nan  # an off-catalog holdout item's RMSE cell, which labels do not read


def slice_of(per_user: dict) -> RatingSlice:
    """Per-user rating events as a `RatingSlice`, users in ascending order."""
    users = sorted(per_user)
    rows = ratings_of([r for u in users for r in per_user[u]], user_ids=users)
    return RatingSlice(rows, users, [len(per_user[u]) for u in users])


def two_candidates():
    return CandidateSet(specs=[RecommenderSpec("SlopeOne"),
                               RecommenderSpec("KnnBasic")],
                        names=["SlopeOne", "KnnBasic"])


class TestCandidateSet:
    def test_needs_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            CandidateSet(specs=[RecommenderSpec("SlopeOne")], names=["SlopeOne"])

    def test_unique_names(self):
        with pytest.raises(ValueError, match="unique"):
            CandidateSet(specs=[RecommenderSpec("SlopeOne")] * 2,
                         names=["SlopeOne", "SlopeOne"])

    def test_presets(self):
        cf = preset_candidates("cf")
        assert cf.names == ["BaselineOnly", "CoClustering", "SlopeOne", "SvdMf"]
        mixed = preset_candidates("mixed")
        assert mixed.names == ["ContentBased", "KnnBasic", "WarpHybrid"]
        with pytest.raises(ValueError, match="unknown preset"):
            preset_candidates("all")


def _label_setup():
    candidates = two_candidates()
    # user 1: candidate A nails the holdout, B misses; user 2 reversed;
    # user 3 has an empty holdout; user 4 ties (both miss entirely)
    fitted = {
        "SlopeOne": FakeRecommender({1: ["h1", "x"], 2: ["x", "y"],
                                     4: ["x"], 3: ["x"]}),
        "KnnBasic": FakeRecommender({1: ["x", "y"], 2: ["h2", "x"],
                                     4: ["y"], 3: ["y"]}),
    }
    holdouts = slice_of({1: [(1, "h1", 5, 10)],
                         2: [(2, "h2", 4, 10)],
                         3: [],
                         4: [(4, "h4", 5, 10)]})
    contexts = np.arange(8, dtype=float).reshape(4, 2)
    return candidates, fitted, holdouts, contexts


class TestLabeling:
    def test_argmax_and_skip_and_tie(self):
        candidates, fitted, holdouts, contexts = _label_setup()
        labeled = generate_labels(candidates, fitted, [1, 2, 3, 4], slice_of({}), holdouts,
                                  n=10, relevance=RelevanceConfig())
        assert labeled.user_ids == [1, 2, 4]
        assert labeled.labels == ["SlopeOne", "KnnBasic", "SlopeOne"]
        assert labeled.skipped_users == [3]
        assert labeled.tied_users == [4]
        # the forest takes one context row per kept user
        params = ForestParams(n_estimators=2, min_samples_split=2, min_samples_leaf=1)
        assert train_meta(labeled, contexts[[0, 1, 3]], params).d == 2
        with pytest.raises(ValueError, match="aligned"):
            train_meta(labeled, contexts, params)

    def test_scores_consistent_with_labels(self):
        candidates, fitted, holdouts, contexts = _label_setup()
        labeled = generate_labels(candidates, fitted, [1, 2, 3, 4], slice_of({}), holdouts,
                                  n=10, relevance=RelevanceConfig())
        for lab, row in zip(labeled.labels, labeled.scores):
            assert row[candidates.names.index(lab)] == row.max()

    def test_train_items_excluded(self):
        candidates, fitted, holdouts, contexts = _label_setup()
        # excluding h1 from user 1 removes SlopeOne's hit; tie at 0 -> first
        labeled = generate_labels(candidates, fitted, [1],
                                  slice_of({1: [(1, "h1", 3, 9)]}),
                                  slice_of({1: list(holdouts[1])}), n=10,
                                  relevance=RelevanceConfig())
        assert labeled.labels == ["SlopeOne"]
        assert labeled.tied_users == [1]
        assert np.allclose(labeled.scores, 0.0)

    def test_missing_fitted_model_rejected(self):
        candidates, fitted, holdouts, contexts = _label_setup()
        del fitted["KnnBasic"]
        with pytest.raises(ValueError, match="no fitted model"):
            generate_labels(candidates, fitted, [1], slice_of({}), holdouts,
                            n=10, relevance=RelevanceConfig())

    def test_export_csv(self):
        candidates, fitted, holdouts, contexts = _label_setup()
        labeled = generate_labels(candidates, fitted, [1, 2, 3, 4], slice_of({}), holdouts,
                                  n=10, relevance=RelevanceConfig())
        lines = labeled.labels_csv().strip().split("\n")
        assert lines[0] == "user_id,label,ndcg_SlopeOne,ndcg_KnnBasic"
        assert len(lines) == 4

    def test_export_csv_round_trips(self):
        from metahybrid.hybrid import LabeledTrainingSet
        scores = np.array([[0.0, 1 / 3], [0.1, 1.0], [2.0 ** -40, 0.7071067811865476]])
        labeled = LabeledTrainingSet(user_ids=[1, 2, 3],
                                     labels=["a", "b", "a"], scores=scores,
                                     candidate_names=["a", "b"])
        rows = list(csv.reader(labeled.labels_csv().splitlines()))[1:]
        assert [r[:2] for r in rows] == [["1", "a"], ["2", "b"], ["3", "a"]]
        assert np.array_equal(np.array([[float(c) for c in r[2:]] for r in rows]), scores)


class TestScoreTable:
    """`score_users` against hand-computed P@k, R@k and nDCG@10 cells."""

    def _setup(self):
        candidates = two_candidates()
        fitted = {
            # user 1 has "t1" in inner-train, so it is excluded from the ranking
            "SlopeOne": FakeRecommender({1: ["x3", "x4", "x5", "x6", "x7", "h2"],
                                         3: ["h3"]}),
            "KnnBasic": FakeRecommender({1: ["t1", "h1", "x1", "h2", "x2"],
                                         3: ["h3", "y"]}),
        }
        inner_train = slice_of({1: [(1, "t1", 2, 1)]})
        inner_test = slice_of({1: [(1, "h1", 5, 8), (1, "h2", 3, 9)],
                               2: [],
                               3: [(3, "h3", 4, 9)]})
        return candidates, fitted, inner_train, inner_test

    def test_hand_computed_cells(self):
        candidates, fitted, inner_train, inner_test = self._setup()
        scored, table = score_users(fitted, candidates.names, [1, 2, 3], inner_train,
                                    inner_test, RelevanceConfig(), 10)
        assert scored.tolist() == [True, False, True]
        # the stubs rate nothing, so only the ranking columns are checked
        assert SCORE_COLUMNS == (
            "P@3", "R@3", "P@5", "R@5", "P@10", "R@10", "nDCG", "RMSE")
        ideal_1 = 31 + 7 / math.log2(3)        # holdout ratings 5 and 3, graded gain
        want = [
            # user 1: SlopeOne finds h2 (not relevant) at rank 6 of 6;
            # KnnBasic finds h1 at rank 1 and h2 at rank 3 of 4
            [[0, 0, 0, 0, 0, 0, (7 / math.log2(7)) / ideal_1],
             [1 / 3, 1, 1 / 4, 1, 1 / 4, 1, (31 + 7 / 2) / ideal_1]],
            # user 3: both rank h3 first, of 1 and of 2 items
            [[1, 1, 1, 1, 1, 1, 1], [1 / 2, 1, 1 / 2, 1, 1 / 2, 1, 1]],
        ]
        assert table.shape == (2, 2, 8)
        assert table[:, :, :-1] == pytest.approx(np.array(want), abs=1e-15)

    def test_labels_are_the_ndcg_oracle(self):
        candidates, fitted, inner_train, inner_test = self._setup()
        _, table = score_users(fitted, candidates.names, [1, 2, 3], inner_train,
                               inner_test, RelevanceConfig(), 10)
        labeled = generate_labels(candidates, fitted, [1, 2, 3],
                                  inner_train, inner_test, n=10, relevance=RelevanceConfig())
        ndcg = table[:, :, SCORE_COLUMNS.index("nDCG")]
        winners, _ = oracle_select(ndcg, candidates.names)
        assert labeled.labels == [candidates.names[w] for w in winners] \
            == ["KnnBasic", "SlopeOne"]
        assert np.array_equal(labeled.scores, ndcg)
        ties = [u for u, row in zip(labeled.user_ids, ndcg)
                if np.sum(row == row.max()) > 1]
        assert labeled.tied_users == ties == [3]
        assert labeled.skipped_users == [2]
        # the users whose context rows the forest takes
        assert labeled.user_ids == [1, 3]


FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")


@pytest.fixture(scope="module", params=["cf", "mixed"])
def preset_run(request):
    """`run_experiment` on the shipped fixture with a preset, as its config
    runs it: (candidates, artifacts)."""
    dataset = enrich_items(
        load_movielens(*(os.path.join(FIXTURES, f)
                         for f in ("ratings.dat", "users.dat", "movies.dat"))),
        os.path.join(FIXTURES, "metadata.csv"))
    candidates = preset_candidates(request.param)
    _, artifacts = run_experiment(dataset, candidates, SplitPlan(),
                                  ForestParams(n_estimators=100), master_seed=7)
    return candidates, artifacts


def reference_cells(model, uid, inner_train, inner_test, cutoff=10):
    """One user's (P@k, R@k per cutoff, nDCG, RMSE) cells from the one-user
    forms: `recommend_top_n` and `predict_ratings` with the metric
    functions."""
    test, train = inner_test[uid], inner_train.get(uid)
    holdout = {r.item_id: r.rating for r in test}
    relevant = {iid for iid, r in holdout.items() if r >= RelevanceConfig().threshold}
    exclude = {r.item_id for r in train} if train else set()
    ranked = model.recommend_top_n(uid, max(max(CUTOFFS), cutoff), exclude=exclude)
    cells = [v for k in CUTOFFS for v in precision_recall_at(ranked, relevant, k)]
    cells.append(ndcg_at(ranked, holdout, cutoff))
    test = test.take(np.argsort(test.item, kind="stable"))  # by item id
    predicted = model.predict_ratings(uid, [r.item_id for r in test]).tolist()
    return cells + [rmse(zip(test.rating.tolist(), predicted))]


def assert_table_is_reference(fitted, names, users, inner_train, inner_test, cutoff=10):
    """The block table equals the one-user reference bit for bit; returns
    the table."""
    scored, table = score_users(fitted, names, users, inner_train, inner_test,
                                RelevanceConfig(), cutoff)
    kept = [uid for uid, ok in zip(users, scored) if ok]
    assert kept == [uid for uid in users if uid in inner_test and len(inner_test[uid])]
    want = [[reference_cells(fitted[name], uid, inner_train, inner_test, cutoff)
             for name in names] for uid in kept]
    assert table.tolist() == want
    return table


class FixedScores(FittedRecommender):
    """Fixed estimates per catalog item, the same for every user, with
    users 1 and 2 in training."""

    def __init__(self, preds):
        train = [(u, i, 3, k + 1) for u in (1, 2) for k, i in enumerate(preds)]
        super().__init__(RecommenderSpec("SlopeOne"), ratings_of(train), {}, 0)
        self._preds = preds

    def _estimate_block(self, codes):
        est = np.tile([self._preds[i] for i in self.item_ids], (len(codes), 1))
        return est, np.ones(est.shape, dtype=bool), None


class TestBlockTable:
    """The block score table against the one-user reference, bit for bit."""

    def test_every_user_of_both_presets(self, preset_run):
        candidates, artifacts = preset_run
        split, fitted = artifacts["split"], artifacts["fitted_eval"]
        for users, train, test in ((split.train_users, split.train_inner_train,
                                    split.train_inner_test),
                                   (split.test_users, split.test_inner_train,
                                    split.test_inner_test)):
            assert_table_is_reference(fitted, candidates.names, users, train, test)

    def test_batch_dispatch_is_per_row_dispatch(self, preset_run):
        _, artifacts = preset_run
        forest, rows = artifacts["meta"].forest, artifacts["test_matrix"]
        labels = predict_labels(forest, rows)
        assert labels == [predict_label(forest, row)[0] for row in rows]
        assert labels == [artifacts["dispatched"][uid] for uid in artifacts["split"].test_users]
        for proba, row in zip(predict_proba(forest, rows), rows):
            assert np.array_equal(proba, predict_proba(forest, row))

    def test_short_prefix_tie_and_no_relevant_item(self):
        # b, c and d tie above e and f. User 1's inner-train leaves b, c, d
        # of the catalog, fewer than the Top-10; user 2 holds out one
        # item, rated below the relevance threshold
        fitted = {"Fixed": FixedScores({"a": 4.0, "b": 4.0, "c": 4.0, "d": 4.0,
                                        "e": 2.0, "f": 1.0})}
        inner_train = slice_of({1: [(1, i, 3, 1) for i in "aef"]})
        inner_test = slice_of({1: [(1, "d", 5, 2), (1, "x", 4, 3)],
                               2: [(2, "a", 2, 2)]})
        table = assert_table_is_reference(fitted, ["Fixed"], [1, 2], inner_train, inner_test)
        # user 1: b, c, d ranked, d third; x, relevant too, is off the catalog
        ideal = 31 + 15 / math.log2(3)
        rms = math.sqrt(((4.0 - 5) ** 2 + (3.0 - 4) ** 2) / 2)  # x takes user 1's mean
        assert table[0, 0].tolist() == [1 / 3, 1 / 2, 1 / 3, 1 / 2, 1 / 3, 1 / 2,
                                        (31 / 2) / ideal, rms]
        # user 2: a, first of the tie, is held out and not relevant
        assert table[1, 0].tolist() == [0.0] * 6 + [1.0, 2.0]

    @staticmethod
    def cold_user(artifacts, ratings) -> tuple:
        """A user outside the fitted models, holding out (catalog item,
        rating) pairs: (user id, inner-test slice)."""
        split = artifacts["split"]
        cold = max(split.train_users + split.test_users) + 1
        return cold, slice_of({cold: [(cold, i, r, k + 1)
                                      for k, (i, r) in enumerate(ratings)]})

    def test_unseen_user_takes_the_fallback_chain(self, preset_run):
        candidates, artifacts = preset_run
        catalog = artifacts["fitted_eval"][candidates.names[0]].item_ids
        cold, inner_test = self.cold_user(artifacts, [(catalog[3], 5), (catalog[40], 2),
                                                      (catalog[41], 4)])
        assert_table_is_reference(artifacts["fitted_eval"], candidates.names, [cold],
                                  slice_of({}), inner_test)

    def test_fallbacks_counted_once_per_pass(self, preset_run):
        # the pass rates the holdout too, so its three items add no count
        # of their own, as one more `predict_ratings` call did
        candidates, artifacts = preset_run
        fitted = artifacts["fitted_eval"]
        catalog = fitted[candidates.names[0]].item_ids
        cold, inner_test = self.cold_user(artifacts, [(catalog[3], 5), (catalog[40], 2),
                                                      (catalog[41], 4)])
        before = {name: model.fallback_count for name, model in fitted.items()}
        score_users(fitted, candidates.names, [cold], slice_of({}), inner_test,
                    RelevanceConfig(), 10)
        counts = {name: model.fallback_count - before[name] for name, model in fitted.items()}
        # no estimate for an unseen user, but where a model has one from the
        # item alone: the item biases and means of every rated item
        assert counts == {name: 0 if name in ("BaselineOnly", "CoClustering", "SvdMf")
                          else len(catalog) for name in candidates.names}

    @pytest.mark.parametrize("preset_run", ["mixed"], indirect=True)
    def test_warp_ranks_by_raw_score_and_rates_by_rescale(self, preset_run):
        _, artifacts = preset_run
        model = artifacts["fitted_eval"]["WarpHybrid"]
        # an unseen user ranks by popularity, b, and rates by the fallback
        # chain, each item's training mean; the top 3 of b are held out
        top = [model.item_ids[j] for j in np.argsort(-model.b, kind="stable")[:3]]
        cold, inner_test = self.cold_user(artifacts, [(i, 5) for i in top])
        table = assert_table_is_reference({"WarpHybrid": model}, ["WarpHybrid"], [cold],
                                          slice_of({}), inner_test)
        ratings, rank = model.score_block([cold], 1)
        assert rank[0].tolist() == model.b.tolist()
        assert ratings[0].tolist() == [model.item_means[i] for i in model.item_ids]
        assert table[0, 0, :2].tolist() == [1.0, 1.0]  # P@3 and R@3 by b
        by_rating = np.lexsort((np.arange(len(ratings[0])), -ratings[0]))[:3]
        assert model.recommend_top_n(cold, 3) == top != [model.item_ids[j] for j in by_rating]


class TestOracle:
    def test_hand_case(self):
        winners, mean = oracle_select(np.array([[0.2, 0.5], [0.4, 0.1]]), ["a", "b"])
        assert winners.tolist() == [1, 0]
        assert mean == pytest.approx(0.45, abs=1e-15)

    def test_tie_prefers_first_candidate(self):
        winners, _ = oracle_select(np.array([[0.3, 0.3]]), ["a", "b"])
        assert winners.tolist() == [0]

    def test_dominates_every_single_candidate(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            scores = rng.uniform(0, 1, size=(int(rng.integers(1, 30)), 4))
            _, mean = oracle_select(scores, list("abcd"))
            assert mean >= scores.mean(axis=0).max() - 1e-12

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            oracle_select(np.zeros((3, 2)), ["a", "b", "c"])

    def test_empty_mean_zero(self):
        _, mean = oracle_select(np.zeros((0, 2)), ["a", "b"])
        assert mean == 0.0


class TestMetaModel:
    def _planted_model(self):
        """Context column 0 decides the winner; forest learns the rule."""
        rng = np.random.default_rng(3)
        n = 200
        contexts = rng.uniform(0, 1, size=(n, 3))
        labels = ["SlopeOne" if c > 0.5 else "KnnBasic" for c in contexts[:, 0]]
        scores = np.zeros((n, 2))
        for i, lab in enumerate(labels):
            scores[i] = (0.9, 0.1) if lab == "SlopeOne" else (0.1, 0.9)
        candidates = two_candidates()
        from metahybrid.hybrid import LabeledTrainingSet
        labeled = LabeledTrainingSet(
            user_ids=list(range(n)), labels=labels,
            scores=scores, candidate_names=candidates.names)
        fitted = {"SlopeOne": FakeRecommender({0: ["s1", "s2"]}),
                  "KnnBasic": FakeRecommender({0: ["k1", "k2"]})}
        model = MetaHybridModel(
            candidates=candidates, fitted=fitted,
            forest=train_meta(labeled, contexts, ForestParams(n_estimators=40, seed=2)),
            schema=None, pca_genres=None, pca_keywords=None)
        return model, contexts, labels, scores

    def test_learns_planted_rule(self):
        model, contexts, labels, _ = self._planted_model()
        rng = np.random.default_rng(4)
        probe = rng.uniform(0, 1, size=(100, 3))
        # stay away from the decision boundary
        probe = probe[np.abs(probe[:, 0] - 0.5) > 0.1]
        want = ["SlopeOne" if c > 0.5 else "KnnBasic" for c in probe[:, 0]]
        got = [dispatch(model, row) for row in probe]
        accuracy = np.mean([w == g for w, g in zip(want, got)])
        assert accuracy >= 0.95

    def test_hybrid_matches_oracle_when_rule_is_learned(self):
        # dispatching by the learned rule recovers the oracle mean on
        # training users because the planted winner is deterministic
        model, contexts, labels, scores = self._planted_model()
        names = model.candidates.names
        picked = [names.index(dispatch(model, row)) for row in contexts]
        hybrid_mean = scores[np.arange(len(scores)), picked].mean()
        _, oracle_mean = oracle_select(scores, names)
        assert hybrid_mean >= 0.98 * oracle_mean

    def test_recommend_routes_to_dispatched_model(self):
        model, contexts, labels, _ = self._planted_model()
        vec = np.array([0.9, 0.5, 0.5])
        assert dispatch(model, vec) == "SlopeOne"
        assert recommend(model, 0, vec, 2) == ["s1", "s2"]
        vec = np.array([0.1, 0.5, 0.5])
        assert dispatch(model, vec) == "KnnBasic"
        assert recommend(model, 0, vec, 2, exclude={"k1"}) == ["k2"]

    def test_dispatch_deterministic(self):
        model, contexts, _, _ = self._planted_model()
        a = [dispatch(model, row) for row in contexts[:50]]
        b = [dispatch(model, row) for row in contexts[:50]]
        assert a == b

    def test_empty_labeled_rejected(self):
        from metahybrid.hybrid import LabeledTrainingSet
        candidates = two_candidates()
        labeled = LabeledTrainingSet(user_ids=[], labels=[], scores=np.zeros((0, 2)),
                                     candidate_names=candidates.names)
        with pytest.raises(ValueError, match="empty"):
            train_meta(labeled, np.zeros((0, 2)), ForestParams(n_estimators=2))

    def test_forest_labels_must_be_candidates(self):
        model, _, _, _ = self._planted_model()
        with pytest.raises(ValueError, match="subset"):
            MetaHybridModel(candidates=CandidateSet(
                specs=[RecommenderSpec("SvdMf"), RecommenderSpec("BaselineOnly")],
                names=["SvdMf", "BaselineOnly"]),
                fitted={}, forest=model.forest, schema=None,
                pca_genres=None, pca_keywords=None)
