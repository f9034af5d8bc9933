import dataclasses
import functools
import os
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from metahybrid import evaluation
from metahybrid import forest as forest_mod
from metahybrid.config import load_config
from metahybrid.data import enrich_items, load_movielens
from metahybrid.forest import (
    _CHUNK,
    ForestModel,
    ForestParams,
    TreeNode,
    _best_splits,
    _class_counts,
    _partition,
    _samples_of,
    _tree_draws,
    feature_importances,
    gini,
    oob_error,
    predict_label,
    predict_proba,
    train_forest,
)
from metahybrid.pipeline import StageError

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")


class ReferenceTreeBuilder:
    """The recursive one-node-at-a-time builder that the lockstep builder
    replaced, kept as the definition of the trees it must grow."""

    def __init__(self, params, n_classes, rng, sample_weight):
        self.params = params
        self.n_classes = n_classes
        self.rng = rng
        self.w = sample_weight

    def build(self, X, y, idx):
        self.X, self.y = X, y
        self.n_root = len(idx)
        self.importances = np.zeros(X.shape[1])
        return self._grow(idx, depth=0)

    def _class_counts(self, idx):
        counts = np.zeros(self.n_classes)
        np.add.at(counts, self.y[idx], self.w[idx])
        return counts

    def _grow(self, idx, depth):
        counts = self._class_counts(idx)
        node_gini = gini(counts)
        node = TreeNode(class_counts=counts)
        p = self.params
        if (len(idx) < p.min_samples_split or node_gini == 0.0
                or (p.max_depth is not None and depth >= p.max_depth)):
            return node
        split = self._best_split(idx, counts, node_gini)
        if split is None:
            return node
        feat, thr, gain, left_idx, right_idx = split
        self.importances[feat] += (len(idx) / self.n_root) * gain
        node.feature = feat
        node.threshold = thr
        node.left = self._grow(left_idx, depth + 1)
        node.right = self._grow(right_idx, depth + 1)
        return node

    def _best_split(self, idx, counts, node_gini):
        d = self.X.shape[1]
        mtry = self.params.n_features_per_split(d)
        feats = np.sort(self.rng.choice(d, size=mtry, replace=False))
        n = len(idx)
        min_leaf = self.params.min_samples_leaf
        after = np.arange(min_leaf - 1, n - min_leaf)
        if after.size == 0:
            return None
        x = self.X[np.ix_(idx, feats)]
        order = np.argsort(x, axis=0, kind="mergesort")
        xs = np.take_along_axis(x, order, axis=0)
        onehot = np.zeros((n, mtry, self.n_classes))
        onehot[np.arange(n)[:, None], np.arange(mtry), self.y[idx][order]] = self.w[idx][order]
        cum = np.cumsum(onehot, axis=0)
        f, b = np.nonzero((xs[after] != xs[after + 1]).T)
        if f.size == 0:
            return None
        b = after[b]
        left = cum[b, f]
        total_w = counts.sum()
        wl = left.sum(axis=1)
        wr = total_w - wl
        gains = node_gini - (wl * gini(left) + wr * gini(counts - left)) / total_w
        best = 0
        while True:
            later = np.flatnonzero(gains[best + 1:] > gains[best] + 1e-15)
            if later.size == 0:
                break
            best += 1 + int(later[0])
        gain = gains[best]
        if gain <= 0.0:
            return None
        feat, col = feats[f[best]], f[best]
        thr = (xs[b[best], col] + xs[b[best] + 1, col]) / 2.0
        mask = self.X[idx, feat] <= thr
        return feat, thr, gain, idx[mask], idx[~mask]


def reference_draws(params, n):
    """Each tree's generator and bootstrap sample, drawn as the recursive
    builder drew them."""
    for child_seed in np.random.SeedSequence(params.seed).spawn(params.n_estimators):
        rng = np.random.default_rng(child_seed)
        yield rng, rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)


def reference_forest(X, y, params):
    """`train_forest` grown one tree at a time by `ReferenceTreeBuilder`."""
    X = np.asarray(X, dtype=float)
    labels = sorted(set(y))
    y_codes = np.array([labels.index(lab) for lab in y], dtype=np.int64)
    n, d = X.shape
    weights = np.ones(n)
    if params.class_weight == "balanced":
        freq = np.bincount(y_codes, minlength=len(labels))
        weights = n / (len(labels) * freq[y_codes])
    trees, imp = [], np.zeros(d)
    for rng, idx in reference_draws(params, n):
        builder = ReferenceTreeBuilder(params, len(labels), rng, weights)
        trees.append(builder.build(X, y_codes, idx))
        total = builder.importances.sum()
        if total > 0:
            imp += builder.importances / total
    imp_total = imp.sum()
    return SimpleNamespace(trees=trees,
                           importances=imp / imp_total if imp_total > 0 else imp)


def reference_leaf_frequencies(node, x):
    """The per-row walk of linked `TreeNode`s that the array walk replaced:
    class frequencies of the leaf that `x` reaches from `node`."""
    while node.feature is not None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.class_counts / node.class_counts.sum()


def reference_proba(trees, x):
    """`predict_proba` as the node walk computed it, tree by tree."""
    acc = np.zeros(len(trees[0].class_counts))
    for tree in trees:
        acc += reference_leaf_frequencies(tree, x)
    return acc / len(trees)


def reference_oob_error(model, X, y):
    """`oob_error` as the node walk computed it, row by row and tree by tree."""
    votes = np.zeros((len(X), len(model.labels)))
    covered = np.zeros(len(X), dtype=bool)
    for tree, (_, idx) in zip(model.trees, reference_draws(model.params, len(X))):
        out_of_bag = np.ones(len(X), dtype=bool)
        out_of_bag[idx] = False
        for row in np.flatnonzero(out_of_bag):
            votes[row] += reference_leaf_frequencies(tree, X[row])
        covered |= out_of_bag
    truth = np.array([model.labels.index(lab) for lab in y])
    return float((votes.argmax(axis=1)[covered] != truth[covered]).mean())


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
        with pytest.raises(TypeError, match="criterion"):  # Gini is the only criterion
            ForestParams(criterion="gini")
        with pytest.raises(ValueError):
            ForestParams(class_weight="weird")

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_estimators": "5"}, "n_estimators must be an int"),
        ({"n_estimators": True}, "n_estimators must be an int"),
        ({"min_samples_split": "3"}, "min_samples_split must be an int"),
        ({"min_samples_leaf": 2.5}, "min_samples_leaf must be an int"),
        ({"max_depth": 0}, "max_depth must be None or an int >= 1"),
        ({"max_depth": -2}, "max_depth must be None or an int >= 1"),
        ({"max_depth": 3.0}, "max_depth must be None or an int >= 1"),
        ({"bootstrap": "no"}, "bootstrap must be true or false"),
        ({"bootstrap": 1}, "bootstrap must be true or false"),
    ])
    def test_bad_types_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ForestParams(**kwargs)

    def test_mtry_is_ceil_sqrt(self):
        p = ForestParams()
        assert p.n_features_per_split(106) == 11
        assert p.n_features_per_split(100) == 10
        assert p.n_features_per_split(2) == 2
        assert ForestParams(max_features=3).n_features_per_split(10) == 3

    @pytest.mark.parametrize("value", ["log2", "banana", 0, -3, True, 2.0, None])
    def test_bad_max_features_rejected(self, value):
        with pytest.raises(ValueError, match="max_features must be 'sqrt' or an int >= 1"):
            ForestParams(max_features=value)


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
        assert [predict_label(model, row)[0] for row in X] == y

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

    def test_oob_error_votes_trees_out_of_bag(self):
        X, y = planted_data(n=60, seed=14)
        model = train_forest(X, y, ForestParams(n_estimators=15, seed=15))
        assert oob_error(model, X, y) == reference_oob_error(model, X, y)

    def test_comparing_forests_does_not_raise(self):
        X, y = planted_data(n=40, seed=5)
        a, b = (train_forest(X, y, ForestParams(n_estimators=3, seed=6)) for _ in range(2))
        assert a == a and a != b

    def test_deterministic(self):
        X, y = planted_data(seed=5)
        p = ForestParams(n_estimators=15, seed=6)
        a = train_forest(X, y, p)
        b = train_forest(X.copy(), list(y), p)
        assert np.array_equal(a.importances, b.importances)
        rng = np.random.default_rng(2)
        for _ in range(30):
            x = rng.uniform(0, 1, size=X.shape[1])
            assert np.array_equal(predict_proba(a, x), predict_proba(b, x))

    def test_seed_changes_forest(self):
        X, y = planted_data(seed=6)
        a = train_forest(X, y, ForestParams(n_estimators=15, seed=1))
        b = train_forest(X, y, ForestParams(n_estimators=15, seed=2))
        assert pickle.dumps(a.trees) != pickle.dumps(b.trees)

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
            out.append((node.feature, tuple(node.class_counts.tolist())))
            if node.feature is not None:
                shape(node.left, out)
                shape(node.right, out)
            return out

        assert np.array_equal(a.importances, b.importances)
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


def random_node(rng):
    """A random split-search case: data with duplicate and constant columns,
    per-class weights (balanced on every third case), a bootstrap sample."""
    n = int(rng.integers(2, 60))
    d = int(rng.integers(1, 9))
    n_classes = int(rng.integers(2, 5))
    X = rng.normal(size=(n, d))
    if rng.integers(2):  # few distinct values: duplicates everywhere
        X = rng.integers(0, 3, size=(n, d)).astype(float)
    X[:, rng.integers(d)] = 0.5  # one constant column
    y = rng.integers(0, n_classes, size=n)
    class_w = np.ones(n_classes)
    if rng.integers(3) == 0:
        class_w = n / (n_classes * np.maximum(np.bincount(y, minlength=n_classes), 1))
    idx = rng.integers(0, n, size=n)  # a bootstrap sample, repeats included
    return X, y, class_w, idx


def search_one(samples, min_leaf, idx, feats, chunk=_CHUNK):
    counts, node_gini = _class_counts(samples, [idx])
    feature, threshold, gain = _best_splits(samples, min_leaf, [idx], feats[None],
                                            counts, node_gini, chunk)
    return (None if feature[0] < 0 else
            (gain[0], feature[0], threshold[0]))


class TestSplitSearch:
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(21)
        nodes = splits = 0
        for trial in range(240):
            X, y, class_w, idx = random_node(rng)
            n, d = X.shape
            min_leaf = int(rng.integers(1, 4))
            feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            samples = _samples_of(X, y, class_w)
            split = search_one(samples, min_leaf, idx, feats)
            expected = brute_force_split(X, y, class_w[y], idx, feats, min_leaf,
                                         len(class_w))
            nodes += 1
            if expected is None:
                assert split is None
                continue
            splits += 1
            assert split == expected
            gain, feat, thr = split
            left, right = _partition(samples, [idx], np.array([feat]), np.array([thr]))
            mask = X[idx, feat] <= thr
            assert np.array_equal(left, idx[mask])
            assert np.array_equal(right, idx[~mask])
        assert nodes >= 200 and splits >= 100

    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    def test_mixed_size_batch_matches_one_node_calls(self, class_weight):
        # 240 nodes of 2 to 90 samples in one call, in chunks of at most 250
        # elements (a node above that is a chunk of its own): padding and chunk
        # edges must not leak between nodes
        rng = np.random.default_rng(22)
        n, d, n_classes, mtry, min_leaf = 90, 7, 3, 3, 2
        X = rng.normal(size=(n, d))
        X[:, 1] = rng.integers(0, 3, size=n)  # duplicates
        X[:, 2] = X[:, 1]                     # a duplicate column
        X[:, 4] = -1.25                       # a constant column
        y = rng.integers(0, n_classes, size=n)
        class_w = np.ones(n_classes)
        if class_weight == "balanced":
            class_w = n / (n_classes * np.bincount(y, minlength=n_classes))
        samples = _samples_of(X, y, class_w)
        idxs = [rng.integers(0, n, size=int(rng.integers(2, n + 1))) for _ in range(240)]
        feats = np.sort(np.array([rng.choice(d, size=mtry, replace=False) for _ in idxs]),
                        axis=1)
        counts, node_gini = _class_counts(samples, idxs)
        feature, threshold, gain = _best_splits(samples, min_leaf, idxs, feats,
                                                counts, node_gini, chunk=250)
        splits = 0
        for k, idx in enumerate(idxs):
            expected = brute_force_split(X, y, class_w[y], idx, feats[k], min_leaf,
                                         n_classes)
            assert expected == search_one(samples, min_leaf, idx, feats[k])
            if expected is None:
                assert feature[k] == -1
            else:
                splits += 1
                assert (gain[k], feature[k], threshold[k]) == expected
        assert splits >= 150


class TestImportances:
    def test_constant_feature_gets_zero(self):
        X, y = planted_data(n=150, seed=10, noise_cols=2)
        X = np.hstack([X, np.full((len(X), 1), 3.3)])
        model = train_forest(X, y, ForestParams(n_estimators=30, seed=11))
        assert model.importances[-1] == 0.0

    def test_single_informative_feature_takes_all(self):
        X, y = planted_data(n=150, seed=11, noise_cols=0)
        model = train_forest(X, y, ForestParams(n_estimators=20, seed=12))
        assert model.importances == pytest.approx([1.0])

    def test_normalized_and_signal_dominates(self):
        X, y = planted_data(n=200, seed=12, noise_cols=5)
        model = train_forest(X, y, ForestParams(n_estimators=50, seed=13))
        assert model.importances.sum() == pytest.approx(1.0, abs=1e-9)
        assert model.importances[0] == max(model.importances)

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


@functools.lru_cache(maxsize=None)
def fixture_run(preset):
    """The labeled TRh contexts, the selection forest and the TEh contexts
    that `run-all` on the shipped fixture config dispatches."""
    cfg = load_config(os.path.join(FIXTURES, "fixture.cfg"), {"preset": preset})
    dataset = enrich_items(
        load_movielens(*(os.path.join(FIXTURES, f)
                         for f in ("ratings.dat", "users.dat", "movies.dat"))),
        os.path.join(FIXTURES, "metadata.csv"))
    split = evaluation.split_step(dataset, cfg.split, cfg.seed)
    candidates = cfg.candidate_set()
    fitted = evaluation.fit_step(dataset, split, candidates, cfg.seed)
    bundle, matrix = evaluation.label_step(dataset, split, candidates, fitted, cfg.context,
                                           cfg.relevance, cfg.label_cutoff)
    test_contexts, _, _, _ = evaluation.build_contexts(
        split.test_users, split.test_inner_train, dataset, bundle["schema"],
        bundle["pca_genres"], bundle["pca_keywords"])
    # the label step's matrix rows of the labeled users, with their labels
    labeled = bundle["labeled"]
    rows = [split.train_users.index(uid) for uid in labeled.user_ids]
    return SimpleNamespace(
        labeled=SimpleNamespace(contexts=matrix[rows], labels=labeled.labels),
        test_contexts=test_contexts,
        forest=evaluation.train_meta_step(dataset, split, bundle, cfg.forest, cfg.seed))


def labeled_contexts(preset):
    """(preset, labeled contexts, forest params) of `run-all` on the shipped
    fixture config: the selection forest's training set."""
    run = fixture_run(preset)
    return preset, run.labeled, run.forest.params


@pytest.fixture(params=["cf", "mixed"])
def fixture_contexts(request):
    return labeled_contexts(request.param)


def assert_same_forest(a, b):
    assert pickle.dumps(a.trees) == pickle.dumps(b.trees)
    assert np.array_equal(a.importances, b.importances)


class TestLockstepBuilder:
    """The lockstep builder grows, node for node, the trees of the recursive
    one-node-at-a-time builder it replaced."""

    def test_fixture_forest_matches_recursive_builder(self, fixture_contexts):
        preset, labeled, params = fixture_contexts
        forest = train_forest(labeled.contexts, labeled.labels, params)
        assert params.n_estimators == 100
        assert len(forest.feature) == {"cf": 5126, "mixed": 4734}[preset]
        assert_same_forest(forest, reference_forest(labeled.contexts, labeled.labels, params))

    @pytest.mark.parametrize("params", [
        ForestParams(n_estimators=12, seed=3, class_weight="balanced"),
        ForestParams(n_estimators=12, seed=4, max_depth=3),
        ForestParams(n_estimators=12, seed=5, bootstrap=False),
        ForestParams(n_estimators=12, seed=6, min_samples_leaf=1, min_samples_split=2),
        ForestParams(n_estimators=12, seed=7, min_samples_leaf=3, max_features=4,
                     class_weight="balanced"),
        ForestParams(n_estimators=12, seed=8, max_features=1, max_depth=5),
    ], ids=["balanced", "depth3", "no-bootstrap", "leaf1", "leaf3-mtry4", "mtry1"])
    def test_random_data_matches_recursive_builder(self, params):
        rng = np.random.default_rng(params.seed)
        X = rng.normal(size=(150, 9))
        X[:, 1] = rng.integers(0, 4, size=150)  # duplicates
        X[:, 2] = X[:, 1]                       # a duplicate column
        X[:, 5] = 0.0                           # a constant column
        X[::7, 6] = -0.0                        # signed zeros tie with 0.0
        X[1::7, 6] = 0.0
        y = [["a", "b", "c", "d"][k] for k in
             (X[:, 0] > 0) + 2 * (rng.random(150) < 0.3)]
        assert_same_forest(train_forest(X, y, params), reference_forest(X, y, params))

    def test_many_classes_match_recursive_builder(self):
        # 11 classes of up to 300 samples need 9-bit count fields, so the
        # counts take two int64 words, and Gini row sums are 11 wide
        rng = np.random.default_rng(9)
        X = rng.normal(size=(300, 6))
        X[:, 2] = rng.integers(0, 5, size=300)
        y = [f"c{k}" for k in rng.integers(0, 11, size=300)]
        for weight in (None, "balanced"):
            params = ForestParams(n_estimators=6, seed=10, class_weight=weight)
            assert_same_forest(train_forest(X, y, params), reference_forest(X, y, params))

    def test_memory_bounded(self):
        # the padded split search holds at most _CHUNK elements per array
        _, labeled, params = labeled_contexts("cf")
        train_forest(labeled.contexts, labeled.labels, ForestParams(n_estimators=2))
        tracemalloc.start()
        try:
            train_forest(labeled.contexts, labeled.labels, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_pickle_round_trip(self, fixture_contexts):
        _, labeled, params = fixture_contexts
        forest = train_forest(labeled.contexts, labeled.labels, params)
        blob = pickle.dumps(forest)
        loaded = pickle.loads(blob)
        for row in labeled.contexts:
            assert np.array_equal(predict_proba(loaded, row), predict_proba(forest, row))
        assert pickle.dumps(loaded) == blob
        assert_same_forest(loaded, forest)
        assert oob_error(loaded, labeled.contexts, labeled.labels) == \
            oob_error(forest, labeled.contexts, labeled.labels)

    def test_weight_table_built_once_and_not_pickled(self, monkeypatch):
        X, y = planted_data(n=60, seed=2)
        forest = train_forest(X, y, ForestParams(n_estimators=5, seed=2,
                                                 class_weight="balanced"))
        blob = pickle.dumps(forest)
        calls = []
        real = forest_mod._partial_sums
        monkeypatch.setattr(forest_mod, "_partial_sums",
                            lambda *args: calls.append(args) or real(*args))
        for row in X[:5]:
            predict_proba(forest, row)
        oob_error(forest, X, y)
        assert len(calls) == 1
        assert set(forest.__getstate__()) == {f.name for f in dataclasses.fields(ForestModel)}
        assert pickle.dumps(forest) == blob

    def test_old_pickle_rejected(self, read_older_artifact):
        X, y = planted_data(n=40, seed=1)
        forest = train_forest(X, y, ForestParams(n_estimators=2, seed=1))
        # the linked trees, as pickled before the flat node arrays
        old = {"trees": forest.trees, "labels": forest.labels, "d": forest.d,
               "params": forest.params, "importances_": forest.importances,
               "bootstrap_indices": []}
        with pytest.raises(StageError, match="rerun every stage from ingest"):
            read_older_artifact(ForestModel, old)

    def test_flat_pickle_with_stored_bootstraps_rejected(self, read_older_artifact):
        # the flat layout that also stored left children, sample counts and
        # bootstrap samples
        X, y = planted_data(n=40, seed=1)
        state = vars(train_forest(X, y, ForestParams(n_estimators=2, seed=1)))
        assert set(state) == {"labels", "d", "params", "roots", "feature", "threshold",
                              "right", "class_counts", "class_weight", "importances"}
        n_nodes = len(state["feature"])
        older = dict(state, left=np.zeros(n_nodes, dtype=np.int64),
                     n_samples=np.zeros(n_nodes, dtype=np.int64),
                     bootstrap=np.zeros((2, 40), dtype=np.int64))
        with pytest.raises(StageError, match="rerun every stage from ingest"):
            read_older_artifact(ForestModel, older)

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_tree_draws_match_reference(self, bootstrap):
        params = ForestParams(n_estimators=12, seed=3, bootstrap=bootstrap)
        rngs, boots = _tree_draws(params, 50)
        expected = list(reference_draws(params, 50))
        assert len(rngs) == len(boots) == len(expected) == 12
        for rng, idx, (ref_rng, ref_idx) in zip(rngs, boots, expected):
            assert np.array_equal(idx, ref_idx)
            # the generators go on in step, so the trees grow from the same draws
            assert np.array_equal(rng.random(4), ref_rng.random(4))


class TestArrayWalk:
    """`predict_proba` and `oob_error` walk the flat node arrays, all rows and
    trees at once; they give, bit for bit, what the per-row walk of the
    linked `TreeNode`s gives."""

    def test_fixture_dispatch_matches_node_walk(self, fixture_contexts):
        run = fixture_run(fixture_contexts[0])
        trees = run.forest.trees
        assert len(run.test_contexts) > 0
        for row in run.test_contexts:
            assert np.array_equal(predict_proba(run.forest, row), reference_proba(trees, row))

    def test_crafted_rows_match_node_walk(self):
        # column 0 holds -1 and 1 only, so its splits fall at 0.0; a root that
        # splits on it meets the row of -0.0
        rng = np.random.default_rng(31)
        X = rng.normal(size=(120, 4))
        X[:, 0] = rng.choice([-1.0, 1.0], size=120)
        y = ["a" if v > 0 else "b" for v in X[:, 0] + 0.5 * X[:, 1]]
        forest = train_forest(X, y, ForestParams(n_estimators=20, seed=32))
        on_column_0 = forest.roots[forest.feature[forest.roots] == 0]
        assert on_column_0.size and (forest.threshold[on_column_0] == 0.0).all()
        rows = [np.array([-0.0, 0.0, 0.0, 0.0]), np.full(4, np.nan)]
        for k in np.flatnonzero(forest.feature >= 0)[:60]:
            on_threshold = rng.normal(size=4)
            on_threshold[forest.feature[k]] = forest.threshold[k]
            missing = on_threshold.copy()
            missing[forest.feature[k]] = np.nan
            rows += [on_threshold, missing]
        trees = forest.trees
        for row in rows:
            assert np.array_equal(predict_proba(forest, row), reference_proba(trees, row))

    def test_oob_error_matches_node_walk(self):
        run = fixture_run("cf")
        X, y = run.labeled.contexts, run.labeled.labels
        assert oob_error(run.forest, X, y) == reference_oob_error(run.forest, X, y)


class TestNarrowCounts:
    """The forest keeps int32 node indexes and each node's class sample
    counts in the narrowest unsigned type, and weighs the counts on read;
    `predict_proba` and `oob_error` give, bit for bit, what the float
    weighted counts of the recursive builder give."""

    @pytest.mark.parametrize("preset, class_weight",
                             [("cf", None), ("mixed", None), ("cf", "balanced")])
    def test_matches_float_counts(self, preset, class_weight):
        run = fixture_run(preset)
        X, y = run.labeled.contexts, run.labeled.labels
        forest = run.forest
        if class_weight is not None:
            params = dataclasses.replace(forest.params, n_estimators=30,
                                         class_weight=class_weight)
            forest = train_forest(X, y, params)
            assert len(set(forest.class_weight.tolist())) > 1
        assert len(X) == 140 and forest.class_counts.dtype == np.uint8
        assert {a.dtype for a in (forest.roots, forest.feature, forest.right)} == {
            np.dtype(np.int32)}
        reference = reference_forest(X, y, forest.params)
        for row in list(run.test_contexts) + list(X):
            assert np.array_equal(predict_proba(forest, row),
                                  reference_proba(reference.trees, row))
        float_counts = SimpleNamespace(trees=reference.trees, labels=forest.labels,
                                       params=forest.params)
        assert oob_error(forest, X, y) == reference_oob_error(float_counts, X, y)
        assert_same_forest(forest, reference)

    def test_float_counts_rejected(self, read_older_artifact):
        # the layout before the narrow counts: float weighted counts, no weights
        X, y = planted_data(n=40, seed=1)
        forest = train_forest(X, y, ForestParams(n_estimators=2, seed=1,
                                                 class_weight="balanced"))
        older = {k: v for k, v in vars(forest).items() if k != "class_weight"}
        older["class_counts"] = forest.weighted_counts()
        with pytest.raises(StageError, match="rerun every stage from ingest"):
            read_older_artifact(ForestModel, older)


class TestSplitOnlyPickle:
    """The pickle keeps `feature` in the narrowest signed type and a
    threshold and a right child for split nodes only; a load scatters them
    back into the arrays growth wrote, so a loaded forest predicts, and
    re-pickles, as the built one does."""

    def assert_loads_as_built(self, forest, X, y):
        blob = pickle.dumps(forest)
        loaded = pickle.loads(blob)
        for name in ("roots", "feature", "threshold", "right", "class_counts",
                     "class_weight", "importances"):
            built, got = getattr(forest, name), getattr(loaded, name)
            assert got.dtype == built.dtype and got.tobytes() == built.tobytes(), name
        for row in X:
            assert np.array_equal(predict_proba(loaded, row), predict_proba(forest, row))
        assert oob_error(loaded, X, y) == oob_error(forest, X, y)
        assert pickle.dumps(loaded.trees) == pickle.dumps(forest.trees)
        assert pickle.dumps(loaded) == blob
        return forest.__getstate__()

    @pytest.mark.parametrize("preset", ["cf", "mixed"])
    def test_fixture_forest(self, preset):
        run = fixture_run(preset)
        X, y = run.labeled.contexts, run.labeled.labels
        # train-meta's rebuilt contexts are the label step's matrix rows
        assert pickle.dumps(run.forest) == pickle.dumps(
            train_forest(X, y, run.forest.params))
        state = self.assert_loads_as_built(run.forest, X, y)
        split = run.forest.feature >= 0
        assert (run.forest.d, state["feature"].dtype, state["right"].dtype) == (
            110, np.int8, np.uint16)
        assert np.array_equal(state["feature"], run.forest.feature)
        assert np.array_equal(state["threshold"], run.forest.threshold[split])
        assert np.array_equal(state["right"], run.forest.right[split])
        assert (run.forest.threshold[~split] == 0.0).all()
        assert (run.forest.right[~split] == -1).all()

    def test_wide_rows_keep_int16_features(self):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(80, 130))
        y = ["a" if v > 0 else "b" for v in X[:, 129] + 0.3 * X[:, 128]]
        forest = train_forest(X, y, ForestParams(n_estimators=20, seed=42))
        assert (forest.feature >= 128).any()
        state = self.assert_loads_as_built(forest, X, y)
        assert state["feature"].dtype == np.int16

    def test_single_leaf_trees(self):
        # one "b" row: a tree whose bootstrap sample misses it is one leaf
        rng = np.random.default_rng(43)
        X = rng.normal(size=(10, 3))
        y = ["a"] * 9 + ["b"]
        forest = train_forest(X, y, ForestParams(n_estimators=20, seed=44,
                                                 min_samples_leaf=1))
        leaf_roots = forest.feature[forest.roots] < 0
        assert leaf_roots.any() and not leaf_roots.all()
        self.assert_loads_as_built(forest, X, y)

    def test_forest_of_leaves(self):
        # constant features: no split has a positive gain, so every tree is its root
        X = np.ones((12, 2))
        y = ["a", "b"] * 6
        forest = train_forest(X, y, ForestParams(n_estimators=5, seed=45))
        assert len(forest.feature) == 5
        state = self.assert_loads_as_built(forest, X, y)
        assert state["threshold"].size == state["right"].size == 0
