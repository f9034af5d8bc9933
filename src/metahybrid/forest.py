"""Random-forest classifier built from scratch: CART trees with Gini
splits, bootstrap resampling, per-node feature subsampling, soft-vote
probabilities, and mean-impurity-decrease feature importances.

The trees grow in lockstep (`_grow_trees`): each step takes the next node of
every tree and scores all of them in one padded split search, in chunks of
at most `_CHUNK` elements. Each tree keeps its own generator and depth-first
order, so the forest is the one a recursive one-tree-at-a-time build grows,
node for node. Growth writes flat node arrays (`ForestModel`), prediction
walks them for all rows and trees at once (`_leaf_frequencies`), and the
pickle stores them as they are: node indexes as int32 and each node's
class counts as sample counts in the narrowest unsigned type, weighed on
read. No bootstrap sample is stored: `_tree_draws` redraws each tree's
from the seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import built_state, format_float

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 500
    max_depth: int | None = None
    min_samples_split: int = 3
    min_samples_leaf: int = 2
    max_features: str | int = "sqrt"  # ceil(sqrt(d)); or an explicit int >= 1
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


def _partial_sums(class_w, m) -> np.ndarray:
    """(class, k) table of each class's weight summed over k = 0..m samples.
    All of a class's samples weigh the same, so their weight summed one by
    one, in any order, is the k-th partial sum of that weight."""
    partial = np.zeros((len(class_w), m + 1))
    np.cumsum(np.repeat(class_w[:, None], m, axis=1), axis=1, out=partial[:, 1:])
    return partial


def _weigh(partial, counts) -> np.ndarray:
    """The weighted class counts of (..., class) sample counts."""
    return partial[np.arange(len(partial)), counts]


def _class_counts(samples, idxs):
    """Class sample counts of each index set, and the Gini impurities of
    their weighted counts."""
    n_classes = len(samples.partial)
    key = np.repeat(np.arange(len(idxs)) * n_classes, [len(idx) for idx in idxs])
    key += samples.y[np.concatenate(idxs)]
    counts = np.bincount(key, minlength=len(idxs) * n_classes).reshape(len(idxs), n_classes)
    return counts, gini(_weigh(samples.partial, counts))


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
    partial: np.ndarray  # _partial_sums of the class weights, up to every row


def _samples_of(X, y, class_w) -> _Samples:
    return _Samples(np.ascontiguousarray(X.T), _value_ranks(X), y,
                    _partial_sums(class_w, len(y)))


def _best_splits(samples, min_leaf, idxs, feats, counts, node_gini, chunk=_CHUNK):
    """Best Gini split of each node over its sampled features.

    Node k holds the samples `idxs[k]`, its sampled features `feats[k]` and
    its class sample counts `counts[k]`. Returns (feature, threshold, gain)
    arrays, with feature -1 where a node has no split of positive gain. Nodes are
    scored in chunks of similar sample counts, each padded to its largest
    node and holding at most `chunk` (node, feature, sample) elements.
    """
    m, mtry = feats.shape
    feature = np.full(m, -1, dtype=np.int64)
    threshold, gain = np.zeros(m), np.zeros(m)
    sizes = np.array([len(idx) for idx in idxs])
    counts = _weigh(samples.partial, counts)
    order = np.argsort(sizes, kind="stable")
    start = 0
    while start < m:
        stop = start + 1
        while stop < m and (stop + 1 - start) * mtry * sizes[order[stop]] <= chunk:
            stop += 1
        part = order[start:stop]
        feature[part], threshold[part], gain[part] = _score_chunk(
            samples, min_leaf, [idxs[k] for k in part], feats[part],
            counts[part], node_gini[part])
        start = stop
    return feature, threshold, gain


def _score_chunk(samples, min_leaf, idxs, feats, counts, node_gini):
    """`_best_splits` for one padded chunk, of weighted class counts `counts`.

    Every threshold of every sampled feature is scored at once from the
    cumulative class counts of the feature-sorted samples. Candidates come
    feature by feature, thresholds ascending; a later one replaces the best
    only when its gain is larger by more than 1e-15 (so among near-equal
    gains the smallest (feature, threshold) wins).
    """
    columns, ranks, y, partial = samples
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
    left = _weigh(partial, fields)
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
    the partitions and the children's class counts are batched too. A node
    is numbered when it is popped, so each tree's nodes come in depth-first
    order and the left child of split node k is node k + 1.
    Returns the flat node arrays of `ForestModel` (`roots`, `feature`,
    `threshold`, `right`, `class_counts`), trees one after another, and the
    per-tree importance rows.
    """
    d = len(samples.columns)
    mtry = params.n_features_per_split(d)
    importances = np.zeros((len(boots), d))
    n_root = len(boots[0])
    counts, ginis = _class_counts(samples, boots)
    nodes = [[] for _ in boots]  # each tree's [feature, threshold, right, class counts]
    # (samples, class counts, gini, depth, the node whose right child it is or -1)
    stacks = [[(idx, c, g, 0, -1)] for idx, c, g in zip(boots, counts, ginis)]
    live = list(range(len(boots)))
    while live:
        step = []
        for t in live:
            stack, numbered = stacks[t], nodes[t]
            while stack:
                idx, node_counts, node_gini, depth, parent = stack.pop()
                if parent >= 0:
                    numbered[parent][2] = len(numbered)
                numbered.append([-1, 0.0, -1, node_counts])
                if (len(idx) < params.min_samples_split or node_gini == 0.0
                        or (params.max_depth is not None and depth >= params.max_depth)):
                    continue
                step.append((t, len(numbered) - 1, idx, node_counts, node_gini, depth,
                             rngs[t].choice(d, size=mtry, replace=False)))
                break
        if not step:
            break
        tree, number, idxs, node_counts, node_gini, depths, feats = zip(*step)
        feature, threshold, gain = _best_splits(
            samples, params.min_samples_leaf, idxs, np.sort(np.array(feats), axis=1),
            np.array(node_counts), np.array(node_gini))
        split = np.flatnonzero(feature >= 0)
        sizes = np.array([len(idx) for idx in idxs])
        importances[np.array(tree)[split], feature[split]] += (
            sizes[split] / n_root) * gain[split]
        if split.size:
            children = _partition(samples, [idxs[k] for k in split], feature[split],
                                  threshold[split])
            child_counts, child_gini = _class_counts(samples, children)
        for j, k in enumerate(split):
            nodes[tree[k]][number[k]][:2] = feature[k], threshold[k]
            stacks[tree[k]] += [(children[2 * j + 1], child_counts[2 * j + 1],
                                 child_gini[2 * j + 1], depths[k] + 1, number[k]),
                                (children[2 * j], child_counts[2 * j], child_gini[2 * j],
                                 depths[k] + 1, -1)]
        live = [t for t in live if stacks[t]]
    sizes = [len(tree) for tree in nodes]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.int32)
    feature, threshold, right, class_counts = zip(*(node for tree in nodes for node in tree))
    right = np.array(right, dtype=np.int32)
    right = np.where(right >= 0, right + np.repeat(roots, sizes), np.int32(-1))
    return (roots, np.array(feature, dtype=np.int32), np.array(threshold, dtype=np.float64),
            right, np.array(class_counts, dtype=np.min_scalar_type(n_root))), importances


@dataclass(eq=False)  # its fields are arrays; `==` is identity
class ForestModel:
    """A trained forest as flat node arrays, in the manner of scikit-learn's
    array `Tree`. Each tree's nodes come in depth-first order, so the left
    child of split node k is node k + 1, and the trees come one after
    another. Its fields are its pickled state: node indexes are int32, and
    each node keeps its class sample counts, in the narrowest unsigned type
    that holds the training row count, beside the one weight per class;
    `weighted_counts` weighs them as growth summed them."""
    labels: list                # class vocabulary (recommender names)
    d: int                      # features per row
    params: ForestParams
    roots: np.ndarray           # each tree's root node
    feature: np.ndarray         # split feature, -1 at a leaf
    threshold: np.ndarray       # rows with value <= threshold go left; 0.0 at a leaf
    right: np.ndarray           # right child, -1 at a leaf
    class_counts: np.ndarray    # (node, class) training sample counts
    class_weight: np.ndarray    # the weight of one sample of each class
    importances: np.ndarray     # normalized mean impurity decrease per feature

    def __post_init__(self):
        if len(self.roots) != self.params.n_estimators:
            raise ValueError("tree count does not match n_estimators")

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        if (set(state) != {f.name for f in fields(self)}
                or state["class_counts"].dtype.kind != "u"):
            raise ValueError("meta.pkl holds a forest pickled by an older version; "
                             "rerun train-meta")
        self.__dict__.update(built_state(state))

    @cached_property
    def _partial(self) -> np.ndarray:
        """`_partial_sums` up to the largest node count, built on first use
        and not pickled; a cumulative sum's prefix does not depend on its length."""
        return _partial_sums(self.class_weight, int(self.class_counts.max(initial=0)))

    def weighted_counts(self, nodes=slice(None)) -> np.ndarray:
        """(node, class) weighted training counts of `nodes`, bit for bit the
        sums that growth took."""
        return _weigh(self._partial, self.class_counts[nodes])

    @property
    def trees(self) -> list:
        """Each tree's root as linked `TreeNode`s, built from the arrays on
        every read. The benchmark's tracer counts nodes through it and the
        tests walk it as the reference; it goes once ROADMAP item 4 has the
        tracer read the node count from the arrays."""
        nodes = [TreeNode(class_counts=c) for c in self.weighted_counts()]
        feature = self.feature.astype(np.int64)  # int64 scalars, as the nodes always held
        for k in np.flatnonzero(feature >= 0).tolist():
            node = nodes[k]
            node.feature, node.threshold = feature[k], self.threshold[k]
            node.left, node.right = nodes[k + 1], nodes[self.right[k]]
        return [nodes[k] for k in self.roots.tolist()]


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
    arrays, tree_imp = _grow_trees(samples, params, *_tree_draws(params, n))
    imp = np.zeros(d)
    for row in tree_imp:
        total = row.sum()
        if total > 0:
            imp += row / total
    imp_total = imp.sum()
    importances = imp / imp_total if imp_total > 0 else imp
    return ForestModel(labels, d, params, *arrays, class_w, importances)


def _leaf_frequencies(model: ForestModel, X) -> np.ndarray:
    """(row, tree, class) frequencies of the leaf that each row of X reaches
    in each tree. All rows and trees descend together, one level a step; a
    row goes left where its value is <= the threshold, so NaN goes right.
    Every leaf holds at least one sample, of positive weight."""
    # numpy widens an int32 index array on every use; widen the pickled ones once
    feature, right = model.feature.astype(np.intp), model.right.astype(np.intp)
    node = np.tile(model.roots.astype(np.intp), len(X))
    row = np.repeat(np.arange(len(X)), len(model.roots))
    inner = np.flatnonzero(feature[node] >= 0)
    while inner.size:
        k = node[inner]
        left = X[row[inner], feature[k]] <= model.threshold[k]
        node[inner] = np.where(left, k + 1, right[k])
        inner = inner[feature[node[inner]] >= 0]
    counts = model.weighted_counts(node).reshape(len(X), len(model.roots), -1)
    return counts / counts.sum(axis=2, keepdims=True)


def _sum_trees(frequencies) -> np.ndarray:
    """Sum over the tree axis (-2), adding the trees one by one in order, as
    the per-row walk did; `np.sum` may add them pairwise, in other bits."""
    return np.add.accumulate(frequencies, axis=-2)[..., -1, :]


def predict_proba(model: ForestModel, x) -> np.ndarray:
    """Mean of per-tree leaf class frequencies (soft voting) for one row."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.d:
        raise ValueError(f"expected {model.d} features, got {x.shape[-1]}")
    return _sum_trees(_leaf_frequencies(model, x[None])[0]) / len(model.roots)


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
    imp = model.importances
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
    out_of_bag = np.ones((len(X), len(model.roots)), dtype=bool)
    out_of_bag[np.array(_tree_draws(model.params, len(X))[1]),
               np.arange(len(model.roots))[:, None]] = False
    # an in-bag tree adds 0.0, which leaves the sum of the others unchanged
    votes = _sum_trees(np.where(out_of_bag[:, :, None], _leaf_frequencies(model, X), 0.0))
    covered = out_of_bag.any(axis=1)
    if not covered.any():
        return float("nan")
    pred = votes.argmax(axis=1)
    truth = np.array([label_idx[lab] for lab in y])
    return float((pred[covered] != truth[covered]).mean())


def importances_csv(importances: dict) -> str:
    """Two-column CSV report of per-column importances, then per attribute."""
    lines = ["feature,importance"]
    lines += [f"{name},{format_float(v)}" for name, v in importances["per_column"].items()]
    if "per_attribute" in importances:
        lines += ["", "attribute,importance"]
        lines += [f"{name},{format_float(v)}"
                  for name, v in importances["per_attribute"].items()]
    return "\n".join(lines) + "\n"
