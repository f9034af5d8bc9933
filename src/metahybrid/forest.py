"""Random-forest classifier built from scratch: CART trees with Gini
splits, bootstrap resampling, per-node feature subsampling, soft-vote
probabilities, and mean-impurity-decrease feature importances.

The trees grow in lockstep (`_grow_trees`): each step takes the next node of
every tree and scores all of them in one padded split search, in chunks of
at most `_CHUNK` elements. Each tree keeps its own generator and depth-first
order, so the forest is the one a recursive one-tree-at-a-time build grows,
node for node. A pickled `ForestModel` holds flat node arrays, and loading
rebuilds the `TreeNode`s. No bootstrap sample is stored: `_tree_draws`
redraws each tree's from the seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import format_float

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 500
    max_depth: int | None = None
    min_samples_split: int = 3
    min_samples_leaf: int = 2
    max_features: str | int = "sqrt"  # ceil(sqrt(d)); or an explicit int >= 1
    criterion: str = "gini"
    bootstrap: bool = True
    class_weight: str | None = None  # None or "balanced"
    seed: int = 0

    def __post_init__(self):
        for name in ("n_estimators", "min_samples_split", "min_samples_leaf"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.max_depth is not None and not (
                type(self.max_depth) is int and self.max_depth >= 1):
            raise ValueError("max_depth must be None or an int >= 1")
        if type(self.bootstrap) is not bool:
            raise ValueError("bootstrap must be true or false")
        if self.max_features != "sqrt" and not (
                type(self.max_features) is int and self.max_features >= 1):
            raise ValueError("max_features must be 'sqrt' or an int >= 1")
        if self.criterion != "gini":
            raise ValueError("only the gini criterion is supported")
        if self.class_weight not in (None, "balanced"):
            raise ValueError("class_weight must be None or 'balanced'")

    def n_features_per_split(self, d: int) -> int:
        if self.max_features == "sqrt":
            return min(d, math.ceil(math.sqrt(d)))
        return min(self.max_features, d)


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


_CHUNK = 1 << 14  # padded (nodes x features x samples) elements per split-search call


def _class_counts(samples, idxs):
    """Weighted class counts of each index set, each summed in index order,
    and their Gini impurities."""
    n_classes = len(samples.class_w)
    cat = np.concatenate(idxs)
    key = np.repeat(np.arange(len(idxs)) * n_classes, [len(idx) for idx in idxs])
    key += samples.y[cat]
    counts = np.bincount(key, weights=samples.class_w[samples.y[cat]],
                         minlength=len(idxs) * n_classes).reshape(len(idxs), n_classes)
    return counts, gini(counts)


def _value_ranks(X):
    """Dense rank of every value within its column, as a (feature, sample)
    array. Equal values share a rank (0.0 and -0.0, and all NaNs, which rank
    last), so ordering a node's samples by (rank, position) is the stable
    sort of their values."""
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    new = (xs[1:] != xs[:-1]) & ~(np.isnan(xs[1:]) & np.isnan(xs[:-1]))
    dense = np.zeros(X.shape, dtype=np.int64)
    np.cumsum(new, axis=0, out=dense[1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=0)
    return np.ascontiguousarray(ranks.T)


class _Samples(NamedTuple):
    """The training rows as the split search reads them."""
    columns: np.ndarray  # X transposed: one row per feature
    ranks: np.ndarray    # _value_ranks(X)
    y: np.ndarray        # class codes
    class_w: np.ndarray  # the weight of each class's samples


def _samples_of(X, y, class_w) -> _Samples:
    return _Samples(np.ascontiguousarray(X.T), _value_ranks(X), y, class_w)


def _best_splits(samples, min_leaf, idxs, feats, counts, node_gini, chunk=_CHUNK):
    """Best Gini split of each node over its sampled features.

    Node k holds the samples `idxs[k]`, its sampled features `feats[k]` and
    its class counts `counts[k]`. Returns (feature, threshold, gain) arrays,
    with feature -1 where a node has no split of positive gain. Nodes are
    scored in chunks of similar sample counts, each padded to its largest
    node and holding at most `chunk` (node, feature, sample) elements.
    """
    m, mtry = feats.shape
    feature = np.full(m, -1, dtype=np.int64)
    threshold, gain = np.zeros(m), np.zeros(m)
    sizes = np.array([len(idx) for idx in idxs])
    # all of a class's samples weigh the same, so its weight summed over k
    # of them, in any order, is the k-th partial sum of that weight
    partial = np.zeros((len(samples.class_w), sizes.max() + 1))
    np.cumsum(np.repeat(samples.class_w[:, None], sizes.max(), axis=1), axis=1,
              out=partial[:, 1:])
    order = np.argsort(sizes, kind="stable")
    start = 0
    while start < m:
        stop = start + 1
        while stop < m and (stop + 1 - start) * mtry * sizes[order[stop]] <= chunk:
            stop += 1
        part = order[start:stop]
        feature[part], threshold[part], gain[part] = _score_chunk(
            samples, partial, min_leaf, [idxs[k] for k in part], feats[part],
            counts[part], node_gini[part])
        start = stop
    return feature, threshold, gain


def _score_chunk(samples, partial, min_leaf, idxs, feats, counts, node_gini):
    """`_best_splits` for one padded chunk.

    Every threshold of every sampled feature is scored at once from the
    cumulative class counts of the feature-sorted samples. Candidates come
    feature by feature, thresholds ascending; a later one replaces the best
    only when its gain is larger by more than 1e-15 (so among near-equal
    gains the smallest (feature, threshold) wins).
    """
    columns, ranks, y, _ = samples
    n = columns.shape[1]
    m, mtry = feats.shape
    n_classes = len(partial)
    sizes = np.array([len(idx) for idx in idxs])
    width = int(sizes.max())
    real = np.arange(width) < sizes[:, None]
    members = np.zeros((m, width), dtype=np.intp)
    members[real] = np.concatenate(idxs)
    # (feature, sample) cells of each node, as flat indexes into `columns`
    cells = feats[:, :, None] * n + members[:, None, :]  # (node, feature, position)
    # sort each (node, feature) row by (value rank, position), padding last;
    # the keys are distinct, so any sort gives the stable order
    bits = width.bit_length()                              # 1 << bits > width
    key = np.take(ranks, cells)
    np.copyto(key, n, where=~real[:, None, :])
    key <<= bits
    key += np.arange(width)
    key.sort(axis=2)
    key &= (1 << bits) - 1
    key += width * np.arange(m * mtry).reshape(m, mtry, 1)
    cells = np.take(cells, key)
    xs = np.take(columns, cells)
    # cumulative class counts from the left, each class in a `bits`-wide
    # field, `per_word` fields to an int64 word
    per_word = min(n_classes, 62 // bits)
    word, shift = np.divmod(np.arange(n_classes), per_word)
    shift *= bits
    code = np.zeros((n, word[-1] + 1), dtype=np.int64)
    code[np.arange(n), word[y]] = 1 << shift[y]
    cum = np.cumsum(np.take(code, cells - feats[:, :, None] * n, axis=0), axis=2)
    # a split after sorted position b leaves b + 1 samples on the left;
    # q indexes the (node, feature, b) grid of candidate splits
    after = np.arange(width - 1)
    allowed = (after >= min_leaf - 1) & (after < sizes[:, None] - min_leaf)
    q = np.flatnonzero((xs[:, :, :-1] != xs[:, :, 1:]) & allowed[:, None, :])
    feature = np.full(m, -1, dtype=np.int64)
    threshold, gain = np.zeros(m), np.zeros(m)
    if q.size == 0:
        return feature, threshold, gain
    row = q // (width - 1)                                 # node * mtry + feature
    node = row // mtry
    packed = np.take(cum.reshape(-1, cum.shape[-1]), q + row, axis=0)
    # C-ordered like the old `cum[b, f]`: numpy sums a contiguous row of 8
    # or more pairwise, and a strided one in sequence
    fields = np.take(packed, word, axis=1) >> shift & (1 << bits) - 1
    left = partial[np.arange(n_classes), fields]
    total_w = counts.sum(axis=1)[node]
    wl = left.sum(axis=1)
    wr = total_w - wl
    gains = np.full(m * mtry * (width - 1), -np.inf)
    gains[q] = node_gini[node] - (wl * gini(left) + wr * gini(counts[node] - left)) / total_w
    gains = gains.reshape(m, -1)                           # each node's scan order
    # The sequential scan passes through every candidate that beats all
    # earlier ones by more than 1e-15, so take it up at the last of those;
    # from there, jump to the first later candidate that beats the best by
    # more than 1e-15 until none does.
    earlier = np.full_like(gains, -np.inf)
    np.maximum.accumulate(gains[:, :-1], axis=1, out=earlier[:, 1:])
    position = np.arange(gains.shape[1])
    best = np.where(gains > earlier + 1e-15, position, 0).max(axis=1)
    every = np.arange(m)
    while True:
        later = (position > best[:, None]) & (gains > gains[every, best][:, None] + 1e-15)
        jump = later.any(axis=1)
        if not jump.any():
            break
        best[jump] = later[jump].argmax(axis=1)
    best_gain = gains[every, best]
    split = np.flatnonzero(best_gain > 0.0)
    col, b = np.divmod(best[split], width - 1)
    feature[split] = feats[split, col]
    threshold[split] = (xs[split, col, b] + xs[split, col, b + 1]) / 2.0
    gain[split] = best_gain[split]
    return feature, threshold, gain


def _partition(samples, idxs, feature, threshold):
    """Left (feature value <= threshold) and right sample indices of each
    split node, each in index order: [left_0, right_0, left_1, ...]."""
    sizes = [len(idx) for idx in idxs]
    cat = np.concatenate(idxs)
    node = np.repeat(np.arange(len(idxs)), sizes)
    value = np.take(samples.columns, feature[node] * samples.columns.shape[1] + cat)
    child = 2 * node + ~(value <= threshold[node])
    order = np.argsort(child, kind="stable")
    bounds = np.cumsum(np.bincount(child, minlength=2 * len(idxs)))[:-1]
    # copies, so that a child waiting on a stack does not keep the step's array
    return [part.copy() for part in np.split(cat[order], bounds)]


def _grow_trees(samples, params, rngs, boots):
    """Grow one CART tree per bootstrap sample, all trees in lockstep.

    Each tree is grown depth first from its own stack and draws each node's
    features from its own generator, so its draws come in the order of a
    recursive build. A step pops, from every tree, the next node that the
    stopping rule lets split, and scores all of them in one `_best_splits`;
    the partitions and the children's class counts are batched too.
    Returns the roots and the per-tree importance rows.
    """
    d = len(samples.columns)
    mtry = params.n_features_per_split(d)
    importances = np.zeros((len(boots), d))
    n_root = len(boots[0])
    counts, ginis = _class_counts(samples, boots)
    roots = [TreeNode(class_counts=c) for c in counts]
    stacks = [[(root, idx, g, 0)] for root, idx, g in zip(roots, boots, ginis)]
    live = list(range(len(boots)))
    while live:
        step = []
        for t in live:
            stack = stacks[t]
            while stack:
                node, idx, node_gini, depth = stack.pop()
                if (len(idx) < params.min_samples_split or node_gini == 0.0
                        or (params.max_depth is not None and depth >= params.max_depth)):
                    continue
                step.append((t, node, idx, node_gini, depth,
                             rngs[t].choice(d, size=mtry, replace=False)))
                break
        if not step:
            break
        tree, nodes, idxs, node_gini, depths, feats = zip(*step)
        feature, threshold, gain = _best_splits(
            samples, params.min_samples_leaf, idxs,
            np.sort(np.array(feats), axis=1), np.array([n.class_counts for n in nodes]),
            np.array(node_gini))
        split = np.flatnonzero(feature >= 0)
        sizes = np.array([len(idx) for idx in idxs])
        importances[np.array(tree)[split], feature[split]] += (
            sizes[split] / n_root) * gain[split]
        if split.size:
            children = _partition(samples, [idxs[k] for k in split], feature[split],
                                  threshold[split])
            child_counts, child_gini = _class_counts(samples, children)
        for j, k in enumerate(split):
            node = nodes[k]
            node.feature, node.threshold = feature[k], threshold[k]
            node.left = TreeNode(class_counts=child_counts[2 * j])
            node.right = TreeNode(class_counts=child_counts[2 * j + 1])
            stacks[tree[k]] += [(node.right, children[2 * j + 1], child_gini[2 * j + 1],
                                 depths[k] + 1),
                                (node.left, children[2 * j], child_gini[2 * j],
                                 depths[k] + 1)]
        live = [t for t in live if stacks[t]]
    return roots, importances


_STATE_KEYS = {"labels", "d", "params", "roots", "feature", "threshold", "right",
               "class_counts", "importances"}


@dataclass
class ForestModel:
    trees: list
    labels: list                       # class vocabulary (recommender names)
    d: int
    params: ForestParams
    importances_: np.ndarray | None = None

    def __post_init__(self):
        if len(self.trees) != self.params.n_estimators:
            raise ValueError("tree count does not match n_estimators")

    def __getstate__(self):
        """Flat node arrays, each tree's nodes in depth-first order (so the
        left child of split node k is node k + 1), trees one after another."""
        feature, threshold, right, counts, roots = [], [], [], [], []
        for tree in self.trees:
            roots.append(len(feature))
            stack = [(tree, -1)]  # (node, index of the parent whose right child it is)
            while stack:
                node, parent = stack.pop()
                if parent >= 0:
                    right[parent] = len(feature)
                threshold.append(node.threshold)
                counts.append(node.class_counts)
                right.append(-1)
                if node.feature is None:
                    feature.append(-1)
                else:
                    feature.append(node.feature)
                    stack += [(node.right, len(feature) - 1), (node.left, -1)]
        return {
            "labels": self.labels, "d": self.d, "params": self.params,
            "roots": np.array(roots, dtype=np.int64),
            "feature": np.array(feature, dtype=np.int64),
            "threshold": np.array(threshold, dtype=np.float64),
            "right": np.array(right, dtype=np.int64),
            "class_counts": np.concatenate(counts).reshape(len(counts), -1),
            "importances": self.importances_,
        }

    def __setstate__(self, state):
        if set(state) != _STATE_KEYS:
            raise ValueError("meta.pkl holds a forest pickled by an older version; "
                             "rerun train-meta")
        # an unpickled array carries its own copy of its dtype; a view takes the
        # builtin one, so the rebuilt nodes pickle to the bytes of built ones
        nodes = [TreeNode(class_counts=c) for c in state["class_counts"].view(np.float64)]
        feature, threshold, right = state["feature"], state["threshold"], state["right"].tolist()
        for k in np.flatnonzero(feature >= 0).tolist():
            node = nodes[k]
            node.feature, node.threshold = feature[k], threshold[k]
            node.left, node.right = nodes[k + 1], nodes[right[k]]
        self.trees = [nodes[k] for k in state["roots"].tolist()]
        self.labels, self.d, self.params = state["labels"], state["d"], state["params"]
        imp = state["importances"]
        self.importances_ = None if imp is None else imp.view(np.float64)


def _tree_draws(params: ForestParams, n: int):
    """Each tree's generator, spawned from `params.seed`, and the bootstrap
    sample of n rows that is its first draw (all rows in order without
    bootstrap). Growing a tree continues from its generator."""
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(params.seed).spawn(params.n_estimators)]
    boots = [rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
             for rng in rngs]
    return rngs, boots


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

    class_w = np.ones(len(labels))
    if params.class_weight == "balanced":
        class_w = n / (len(labels) * np.bincount(y_codes, minlength=len(labels)))

    samples = _samples_of(X, y_codes, class_w)
    trees, tree_imp = _grow_trees(samples, params, *_tree_draws(params, n))
    imp = np.zeros(d)
    for row in tree_imp:
        total = row.sum()
        if total > 0:
            imp += row / total
    imp_total = imp.sum()
    importances = imp / imp_total if imp_total > 0 else imp
    return ForestModel(trees=trees, labels=labels, d=d, params=params,
                       importances_=importances)


def _leaf_frequencies(node: TreeNode, x) -> np.ndarray:
    """Class frequencies of the leaf that `x` reaches from `node`; every leaf
    holds at least one sample, of positive weight."""
    while node.feature is not None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.class_counts / node.class_counts.sum()


def predict_proba(model: ForestModel, x) -> np.ndarray:
    """Mean of per-tree leaf class frequencies (soft voting)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.d:
        raise ValueError(f"expected {model.d} features, got {x.shape[-1]}")
    acc = np.zeros(len(model.labels))
    for tree in model.trees:
        acc += _leaf_frequencies(tree, x)
    return acc / len(model.trees)


def predict_label(model: ForestModel, x):
    """(label, probability map); ties break toward the earlier vocabulary entry."""
    proba = predict_proba(model, x)
    j = int(np.argmax(proba))  # argmax takes the first maximum
    return model.labels[j], dict(zip(model.labels, proba.tolist()))


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
    """Out-of-bag misclassification rate on the training data: (X, y) must be
    the rows the forest was grown on, in order, since each tree's bootstrap
    sample is redrawn from the seed."""
    X = np.asarray(X, dtype=float)
    label_idx = {lab: j for j, lab in enumerate(model.labels)}
    votes = np.zeros((len(X), len(model.labels)))
    covered = np.zeros(len(X), dtype=bool)
    for tree, idx in zip(model.trees, _tree_draws(model.params, len(X))[1]):
        out_of_bag = np.ones(len(X), dtype=bool)
        out_of_bag[idx] = False
        for row in np.flatnonzero(out_of_bag):
            votes[row] += _leaf_frequencies(tree, X[row])
        covered |= out_of_bag
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
