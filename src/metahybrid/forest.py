"""Random-forest classifier built from scratch: CART trees with Gini
splits, bootstrap resampling, per-node feature subsampling, soft-vote
probabilities, and mean-impurity-decrease feature importances."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .data import format_float

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 500
    max_depth: int | None = None
    min_samples_split: int = 3
    min_samples_leaf: int = 2
    max_features: str = "sqrt"       # ceil(sqrt(d)); or an explicit int
    criterion: str = "gini"
    bootstrap: bool = True
    class_weight: str | None = None  # None or "balanced"
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.criterion != "gini":
            raise ValueError("only the gini criterion is supported")
        if self.class_weight not in (None, "balanced"):
            raise ValueError("class_weight must be None or 'balanced'")

    def n_features_per_split(self, d: int) -> int:
        if isinstance(self.max_features, int):
            return min(self.max_features, d)
        return min(d, math.ceil(math.sqrt(d)))

    def to_dict(self) -> dict:
        return {"n_estimators": self.n_estimators, "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features, "criterion": self.criterion,
                "bootstrap": self.bootstrap, "class_weight": self.class_weight,
                "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "ForestParams":
        extra = set(d) - set(cls().to_dict())
        if extra:
            raise ValueError(f"unknown forest params {sorted(extra)}")
        return cls(**d)


def gini(counts):
    """Gini impurity of a class-count (or class-weight) vector, or of each
    row of a matrix of them."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum(axis=-1, keepdims=True)
    p = counts / np.where(total > 0, total, 1.0)
    impurity = np.where(total[..., 0] > 0, 1.0 - (p * p).sum(axis=-1), 0.0)
    return float(impurity) if impurity.ndim == 0 else impurity


@dataclass
class TreeNode:
    # leaf when feature is None
    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    class_counts: np.ndarray | None = None
    n_samples: int = 0


class _TreeBuilder:
    def __init__(self, params: ForestParams, n_classes: int, rng, sample_weight):
        self.params = params
        self.n_classes = n_classes
        self.rng = rng
        self.w = sample_weight
        self.importances = None  # set by build()

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
        node = TreeNode(class_counts=counts, n_samples=len(idx))
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
        """Best Gini split over `mtry` sampled features, or None.

        Every threshold of every sampled feature is scored at once from the
        cumulative class counts of the feature-sorted samples. Candidates
        come feature by feature, thresholds ascending; a later one replaces
        the best only when its gain is larger by more than 1e-15 (so among
        near-equal gains the smallest (feature, threshold) wins).
        """
        d = self.X.shape[1]
        mtry = self.params.n_features_per_split(d)
        feats = np.sort(self.rng.choice(d, size=mtry, replace=False))
        n = len(idx)
        min_leaf = self.params.min_samples_leaf
        # a split after sorted position b leaves b + 1 samples on the left
        after = np.arange(min_leaf - 1, n - min_leaf)
        if after.size == 0:
            return None
        x = self.X[np.ix_(idx, feats)]
        order = np.argsort(x, axis=0, kind="mergesort")
        xs = np.take_along_axis(x, order, axis=0)
        # cumulative weighted class counts from the left, per feature
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


@dataclass
class ForestModel:
    trees: list
    labels: list                       # class vocabulary (recommender names)
    d: int
    params: ForestParams
    bootstrap_indices: list = field(default_factory=list)
    importances_: np.ndarray | None = None

    def __post_init__(self):
        if len(self.trees) != self.params.n_estimators:
            raise ValueError("tree count does not match n_estimators")


def train_forest(X, y, params: ForestParams) -> ForestModel:
    """Grow `n_estimators` CART trees on bootstrap resamples of (X, y)."""
    X = np.asarray(X, dtype=float)
    y = list(y)
    if len(X) != len(y) or len(y) == 0:
        raise ValueError("X and y must be non-empty and aligned")
    if len(X) < params.min_samples_split:
        raise ValueError("fewer samples than min_samples_split")
    labels = sorted(set(y))
    label_idx = {lab: j for j, lab in enumerate(labels)}
    y_codes = np.array([label_idx[lab] for lab in y], dtype=np.int64)
    n, d = X.shape

    if len(labels) > 1 and all(np.unique(X[:, j]).size == 1 for j in range(d)):
        log.warning("all features constant with multiple labels; trees reduce to priors")

    weights = np.ones(n)
    if params.class_weight == "balanced":
        freq = np.bincount(y_codes, minlength=len(labels))
        weights = n / (len(labels) * freq[y_codes])

    ss = np.random.SeedSequence(params.seed)
    child_seeds = ss.spawn(params.n_estimators)
    trees, boots, imp = [], [], np.zeros(d)
    for t in range(params.n_estimators):
        rng = np.random.default_rng(child_seeds[t])
        if params.bootstrap:
            idx = rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        builder = _TreeBuilder(params, len(labels), rng, weights)
        trees.append(builder.build(X, y_codes, np.asarray(idx)))
        boots.append(np.asarray(idx))
        total = builder.importances.sum()
        if total > 0:
            imp += builder.importances / total
    imp_total = imp.sum()
    importances = imp / imp_total if imp_total > 0 else imp
    return ForestModel(trees=trees, labels=labels, d=d, params=params,
                       bootstrap_indices=boots, importances_=importances)


def _leaf(node: TreeNode, x) -> TreeNode:
    while node.feature is not None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def predict_proba(model: ForestModel, x) -> np.ndarray:
    """Mean of per-tree leaf class frequencies (soft voting)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.d:
        raise ValueError(f"expected {model.d} features, got {x.shape[-1]}")
    acc = np.zeros(len(model.labels))
    for tree in model.trees:
        counts = _leaf(tree, x).class_counts
        total = counts.sum()
        if total > 0:
            acc += counts / total
    return acc / len(model.trees)


def predict_label(model: ForestModel, x):
    """(label, probability map); ties break toward the earlier vocabulary entry."""
    proba = predict_proba(model, x)
    j = int(np.argmax(proba))  # argmax takes the first maximum
    return model.labels[j], dict(zip(model.labels, proba.tolist()))


def predict_many(model: ForestModel, X) -> list:
    return [predict_label(model, row)[0] for row in np.asarray(X, dtype=float)]


def feature_importances(model: ForestModel, feature_names=None,
                        groups=None) -> dict:
    """Normalized mean-impurity-decrease importances, descending.

    With `groups` (source attribute per column), a second map sums the
    one-hot/PCA block columns per source attribute.
    """
    imp = model.importances_
    names = feature_names if feature_names is not None else [
        f"feature_{j}" for j in range(model.d)]
    per_column = dict(sorted(zip(names, imp.tolist()), key=lambda kv: -kv[1]))
    result = {"per_column": per_column}
    if groups is not None:
        summed: dict = {}
        for g, v in zip(groups, imp):
            summed[g] = summed.get(g, 0.0) + float(v)
        result["per_attribute"] = dict(sorted(summed.items(), key=lambda kv: -kv[1]))
    return result


def oob_error(model: ForestModel, X, y) -> float:
    """Out-of-bag misclassification rate on the training data."""
    X = np.asarray(X, dtype=float)
    label_idx = {lab: j for j, lab in enumerate(model.labels)}
    votes = np.zeros((len(X), len(model.labels)))
    covered = np.zeros(len(X), dtype=bool)
    for tree, idx in zip(model.trees, model.bootstrap_indices):
        in_bag = np.zeros(len(X), dtype=bool)
        in_bag[idx] = True
        for row in np.flatnonzero(~in_bag):
            counts = _leaf(tree, X[row]).class_counts
            total = counts.sum()
            if total > 0:
                votes[row] += counts / total
                covered[row] = True
    if not covered.any():
        return float("nan")
    pred = votes.argmax(axis=1)
    truth = np.array([label_idx[lab] for lab in y])
    return float((pred[covered] != truth[covered]).mean())


def export_importances(path, importances: dict):
    """Two-column CSV report of per-column importances."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("feature,importance\n")
        for name, value in importances["per_column"].items():
            fh.write(f"{name},{format_float(value)}\n")
        if "per_attribute" in importances:
            fh.write("\nattribute,importance\n")
            for name, value in importances["per_attribute"].items():
                fh.write(f"{name},{format_float(value)}\n")
