import numpy as np
import pytest

from metahybrid.forest import (
    ForestParams,
    _TreeBuilder,
    feature_importances,
    gini,
    oob_error,
    predict_label,
    predict_many,
    predict_proba,
    train_forest,
)


def planted_data(n=120, seed=0, noise_cols=4):
    """Label decided by whether column 0 exceeds 0.5; other columns are noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 1 + noise_cols))
    y = ["high" if v > 0.5 else "low" for v in X[:, 0]]
    return X, y


class TestGini:
    def test_pure_node_zero(self):
        assert gini([7, 0, 0]) == 0.0
        assert gini([0, 0, 0]) == 0.0

    def test_even_binary_half(self):
        assert gini([5, 5]) == 0.5

    def test_three_way_uniform(self):
        assert gini([4, 4, 4]) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_hand_case(self):
        # [2, 6]: 1 - (1/16 + 9/16) = 3/8
        assert gini([2, 6]) == pytest.approx(0.375, abs=1e-15)


class TestParams:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ForestParams(n_estimators=0)
        with pytest.raises(ValueError):
            ForestParams(min_samples_split=1)
        with pytest.raises(ValueError):
            ForestParams(min_samples_leaf=0)
        with pytest.raises(ValueError):
            ForestParams(criterion="entropy")
        with pytest.raises(ValueError):
            ForestParams(class_weight="weird")

    def test_mtry_is_ceil_sqrt(self):
        p = ForestParams()
        assert p.n_features_per_split(106) == 11
        assert p.n_features_per_split(100) == 10
        assert p.n_features_per_split(2) == 2
        assert ForestParams(max_features=3).n_features_per_split(10) == 3

    def test_roundtrip_and_unknown_keys(self):
        p = ForestParams(n_estimators=7, max_depth=3)
        assert ForestParams.from_dict(p.to_dict()) == p
        with pytest.raises(ValueError, match="unknown forest params"):
            ForestParams.from_dict({"trees": 5})


class TestTraining:
    def test_single_label_always_predicted(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        model = train_forest(X, ["only"] * 20, ForestParams(n_estimators=10, seed=1))
        for row in X:
            label, proba = predict_label(model, row)
            assert label == "only"
            assert proba["only"] == pytest.approx(1.0)

    def test_separable_data_perfect_on_train(self):
        X, y = planted_data(seed=2, noise_cols=0)
        model = train_forest(X, y, ForestParams(n_estimators=30, seed=3))
        assert predict_many(model, X) == y

    def test_probabilities_sum_to_one(self):
        X, y = planted_data(seed=3)
        model = train_forest(X, y, ForestParams(n_estimators=25, seed=4))
        rng = np.random.default_rng(0)
        for _ in range(40):
            p = predict_proba(model, rng.uniform(0, 1, size=X.shape[1]))
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p >= 0)

    def test_oob_error_small_on_planted_rule(self):
        X, y = planted_data(n=200, seed=4)
        model = train_forest(X, y, ForestParams(n_estimators=60, seed=5))
        assert oob_error(model, X, y) < 0.10

    def test_deterministic(self):
        X, y = planted_data(seed=5)
        p = ForestParams(n_estimators=15, seed=6)
        a = train_forest(X, y, p)
        b = train_forest(X.copy(), list(y), p)
        assert np.array_equal(a.importances_, b.importances_)
        rng = np.random.default_rng(2)
        for _ in range(30):
            x = rng.uniform(0, 1, size=X.shape[1])
            assert np.array_equal(predict_proba(a, x), predict_proba(b, x))

    def test_seed_changes_forest(self):
        X, y = planted_data(seed=6)
        a = train_forest(X, y, ForestParams(n_estimators=15, seed=1))
        b = train_forest(X, y, ForestParams(n_estimators=15, seed=2))
        assert not all(np.array_equal(i, j) for i, j in
                       zip(a.bootstrap_indices, b.bootstrap_indices))

    def test_monotone_transform_invariance_of_structure(self):
        # squaring a non-negative feature preserves value order, so every
        # tree picks the same splits and partitions its bootstrap sample
        # identically; only the numeric thresholds move
        X, y = planted_data(n=150, seed=7, noise_cols=2)
        p = ForestParams(n_estimators=20, seed=8)
        a = train_forest(X, y, p)
        X2 = X.copy()
        X2[:, 0] = X2[:, 0] ** 2
        b = train_forest(X2, y, p)

        def shape(node, out):
            out.append((node.feature, node.n_samples,
                        tuple(node.class_counts.tolist())))
            if node.feature is not None:
                shape(node.left, out)
                shape(node.right, out)
            return out

        assert np.array_equal(a.importances_, b.importances_)
        for ta, tb in zip(a.trees, b.trees):
            assert shape(ta, []) == shape(tb, [])

    def test_class_weight_balanced_shifts_minority(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, size=(90, 2))
        y = ["min" if i < 9 else "maj" for i in range(90)]
        p_plain = train_forest(X, y, ForestParams(n_estimators=40, seed=3))
        p_bal = train_forest(X, y, ForestParams(n_estimators=40, seed=3,
                                                class_weight="balanced"))
        mean_plain = np.mean([predict_proba(p_plain, x)[p_plain.labels.index("min")]
                              for x in X])
        mean_bal = np.mean([predict_proba(p_bal, x)[p_bal.labels.index("min")]
                            for x in X])
        assert mean_bal > mean_plain

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_forest(np.zeros((0, 2)), [], ForestParams(n_estimators=2))


def brute_force_split(X, y, w, idx, feats, min_leaf, n_classes):
    """Per-threshold scan: every boundary of every feature, one gini call
    each; a later candidate wins only on a gain larger by more than 1e-15,
    or on an equal gain with a smaller (feature, threshold)."""
    counts = np.zeros(n_classes)
    np.add.at(counts, y[idx], w[idx])
    node_gini, total_w = gini(counts), counts.sum()
    best = None
    for feat in feats:
        order = np.argsort(X[idx, feat], kind="mergesort")
        xs, ys, ws = X[idx, feat][order], y[idx][order], w[idx][order]
        for b in range(len(idx) - 1):
            nl, nr = b + 1, len(idx) - b - 1
            if xs[b] == xs[b + 1] or nl < min_leaf or nr < min_leaf:
                continue
            left = np.zeros(n_classes)
            np.add.at(left, ys[:nl], ws[:nl])
            wl = left.sum()
            gain = node_gini - (wl * gini(left) + (total_w - wl) * gini(counts - left)) / total_w
            thr = (xs[b] + xs[b + 1]) / 2.0
            if best is None or gain > best[0] + 1e-15 or (
                    abs(gain - best[0]) <= 1e-15 and (feat, thr) < (best[1], best[2])):
                best = (gain, feat, thr)
    return None if best is None or best[0] <= 0.0 else best


class TestSplitSearch:
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(21)
        nodes = splits = 0
        for trial in range(240):
            n = int(rng.integers(2, 60))
            d = int(rng.integers(1, 9))
            n_classes = int(rng.integers(2, 5))
            X = rng.normal(size=(n, d))
            if trial % 2:  # few distinct values: duplicates everywhere
                X = rng.integers(0, 3, size=(n, d)).astype(float)
            X[:, rng.integers(d)] = 0.5  # one constant column
            y = rng.integers(0, n_classes, size=n)
            params = ForestParams(min_samples_leaf=int(rng.integers(1, 4)),
                                  max_features=int(rng.integers(1, d + 1)),
                                  class_weight="balanced" if trial % 3 == 0 else None)
            w = np.ones(n)
            if params.class_weight == "balanced":
                freq = np.bincount(y, minlength=n_classes)
                w = n / (n_classes * np.maximum(freq[y], 1))
            idx = rng.integers(0, n, size=n)  # a bootstrap sample, repeats included
            seed = int(rng.integers(1 << 30))
            builder = _TreeBuilder(params, n_classes, np.random.default_rng(seed), w)
            builder.X, builder.y = X, y
            counts = builder._class_counts(idx)
            split = builder._best_split(idx, counts, gini(counts))
            feats = np.sort(np.random.default_rng(seed).choice(
                d, size=params.n_features_per_split(d), replace=False))
            expected = brute_force_split(X, y, w, idx, feats,
                                         params.min_samples_leaf, n_classes)
            nodes += 1
            if expected is None:
                assert split is None
                continue
            splits += 1
            feat, thr, gain, left, right = split
            assert (gain, feat, thr) == expected
            mask = X[idx, feat] <= thr
            assert np.array_equal(left, idx[mask])
            assert np.array_equal(right, idx[~mask])
        assert nodes >= 200 and splits >= 100


class TestImportances:
    def test_constant_feature_gets_zero(self):
        X, y = planted_data(n=150, seed=10, noise_cols=2)
        X = np.hstack([X, np.full((len(X), 1), 3.3)])
        model = train_forest(X, y, ForestParams(n_estimators=30, seed=11))
        assert model.importances_[-1] == 0.0

    def test_single_informative_feature_takes_all(self):
        X, y = planted_data(n=150, seed=11, noise_cols=0)
        model = train_forest(X, y, ForestParams(n_estimators=20, seed=12))
        assert model.importances_ == pytest.approx([1.0])

    def test_normalized_and_signal_dominates(self):
        X, y = planted_data(n=200, seed=12, noise_cols=5)
        model = train_forest(X, y, ForestParams(n_estimators=50, seed=13))
        assert model.importances_.sum() == pytest.approx(1.0, abs=1e-9)
        assert model.importances_[0] == max(model.importances_)

    def test_grouped_report(self):
        X, y = planted_data(n=100, seed=13, noise_cols=3)
        model = train_forest(X, y, ForestParams(n_estimators=10, seed=14))
        names = ["signal", "n1", "n2", "n3"]
        groups = ["signal", "noise", "noise", "noise"]
        report = feature_importances(model, names, groups)
        assert set(report["per_column"]) == set(names)
        assert report["per_attribute"]["signal"] + \
            report["per_attribute"]["noise"] == pytest.approx(1.0, abs=1e-9)
        vals = list(report["per_column"].values())
        assert vals == sorted(vals, reverse=True)
