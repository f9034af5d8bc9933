import csv
import math

import numpy as np
import pytest

from metahybrid.data import RatingEvent
from metahybrid.forest import ForestParams
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
from metahybrid.metrics import SCORE_COLUMNS, RelevanceConfig
from metahybrid.recommenders import RecommenderSpec


class FakeRecommender:
    """Serves a fixed per-user ranking regardless of training data."""

    def __init__(self, rankings):
        self.rankings = rankings

    def recommend_top_n(self, user_id, n, exclude=frozenset()):
        ranked = [i for i in self.rankings.get(user_id, []) if i not in exclude]
        return ranked[:n]


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
    holdouts = {1: [RatingEvent(1, "h1", 5, 10)],
                2: [RatingEvent(2, "h2", 4, 10)],
                3: [],
                4: [RatingEvent(4, "h4", 5, 10)]}
    contexts = np.arange(8, dtype=float).reshape(4, 2)
    return candidates, fitted, holdouts, contexts


class TestLabeling:
    def test_argmax_and_skip_and_tie(self):
        candidates, fitted, holdouts, contexts = _label_setup()
        labeled = generate_labels(candidates, fitted, [1, 2, 3, 4], contexts,
                                  {}, holdouts)
        assert labeled.user_ids == [1, 2, 4]
        assert labeled.labels == ["SlopeOne", "KnnBasic", "SlopeOne"]
        assert labeled.skipped_users == [3]
        assert labeled.tied_users == [4]
        # context rows follow the kept users
        assert np.array_equal(labeled.contexts, contexts[[0, 1, 3]])

    def test_scores_consistent_with_labels(self):
        candidates, fitted, holdouts, contexts = _label_setup()
        labeled = generate_labels(candidates, fitted, [1, 2, 3, 4], contexts,
                                  {}, holdouts)
        for lab, row in zip(labeled.labels, labeled.scores):
            assert row[candidates.names.index(lab)] == row.max()

    def test_train_items_excluded(self):
        candidates, fitted, holdouts, contexts = _label_setup()
        # excluding h1 from user 1 removes SlopeOne's hit; tie at 0 -> first
        labeled = generate_labels(candidates, fitted, [1], contexts[:1],
                                  {1: [RatingEvent(1, "h1", 3, 9)]}, {1: holdouts[1]})
        assert labeled.labels == ["SlopeOne"]
        assert labeled.tied_users == [1]
        assert np.allclose(labeled.scores, 0.0)

    def test_missing_fitted_model_rejected(self):
        candidates, fitted, holdouts, contexts = _label_setup()
        del fitted["KnnBasic"]
        with pytest.raises(ValueError, match="no fitted model"):
            generate_labels(candidates, fitted, [1], contexts[:1], {}, holdouts)

    def test_export_csv(self):
        candidates, fitted, holdouts, contexts = _label_setup()
        labeled = generate_labels(candidates, fitted, [1, 2, 3, 4], contexts,
                                  {}, holdouts)
        lines = labeled.labels_csv().strip().split("\n")
        assert lines[0] == "user_id,label,ndcg_SlopeOne,ndcg_KnnBasic"
        assert len(lines) == 4

    def test_export_csv_round_trips(self):
        from metahybrid.hybrid import LabeledTrainingSet
        scores = np.array([[0.0, 1 / 3], [0.1, 1.0], [2.0 ** -40, 0.7071067811865476]])
        labeled = LabeledTrainingSet(user_ids=[1, 2, 3], contexts=np.zeros((3, 1)),
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
        inner_train = {1: [RatingEvent(1, "t1", 2, 1)]}
        inner_test = {1: [RatingEvent(1, "h1", 5, 8), RatingEvent(1, "h2", 3, 9)],
                      2: [],
                      3: [RatingEvent(3, "h3", 4, 9)]}
        return candidates, fitted, inner_train, inner_test

    def test_hand_computed_cells(self):
        candidates, fitted, inner_train, inner_test = self._setup()
        scored, table = score_users(fitted, candidates.names, [1, 2, 3], inner_train,
                                    inner_test, RelevanceConfig(), 10)
        assert scored.tolist() == [True, False, True]
        # the table holds every score column but RMSE, which the evaluate step adds
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
        assert table.shape == (2, 2, 7)
        assert table == pytest.approx(np.array(want), abs=1e-15)

    def test_labels_are_the_ndcg_oracle(self):
        candidates, fitted, inner_train, inner_test = self._setup()
        _, table = score_users(fitted, candidates.names, [1, 2, 3], inner_train,
                               inner_test, RelevanceConfig(), 10)
        labeled = generate_labels(candidates, fitted, [1, 2, 3], np.eye(3),
                                  inner_train, inner_test)
        ndcg = table[:, :, -1]
        winners, _ = oracle_select(ndcg, candidates.names)
        assert labeled.labels == [candidates.names[w] for w in winners] \
            == ["KnnBasic", "SlopeOne"]
        assert np.array_equal(labeled.scores, ndcg)
        ties = [u for u, row in zip(labeled.user_ids, ndcg)
                if np.sum(row == row.max()) > 1]
        assert labeled.tied_users == ties == [3]
        assert labeled.skipped_users == [2]
        assert np.array_equal(labeled.contexts, np.eye(3)[[0, 2]])


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
            user_ids=list(range(n)), contexts=contexts, labels=labels,
            scores=scores, candidate_names=candidates.names)
        fitted = {"SlopeOne": FakeRecommender({0: ["s1", "s2"]}),
                  "KnnBasic": FakeRecommender({0: ["k1", "k2"]})}
        model = MetaHybridModel(
            candidates=candidates, fitted=fitted,
            forest=train_meta(labeled, ForestParams(n_estimators=40, seed=2)),
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
        labeled = LabeledTrainingSet(user_ids=[], contexts=np.zeros((0, 2)),
                                     labels=[], scores=np.zeros((0, 2)),
                                     candidate_names=candidates.names)
        with pytest.raises(ValueError, match="empty"):
            train_meta(labeled, ForestParams(n_estimators=2))

    def test_forest_labels_must_be_candidates(self):
        model, _, _, _ = self._planted_model()
        with pytest.raises(ValueError, match="subset"):
            MetaHybridModel(candidates=CandidateSet(
                specs=[RecommenderSpec("SvdMf"), RecommenderSpec("BaselineOnly")],
                names=["SvdMf", "BaselineOnly"]),
                fitted={}, forest=model.forest, schema=None,
                pca_genres=None, pca_keywords=None)
