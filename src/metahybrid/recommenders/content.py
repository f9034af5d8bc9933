"""Content-based predictor: cosine between a rating-weighted user profile
and one-hot genre/keyword item vectors."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..data import item_columns, runs
from .base import FittedRecommender


def feature_columns(items: dict) -> tuple:
    """`data.ItemColumns`' genre and keyword columns as (ptr, cols, width);
    raises if the catalog carries no features at all."""
    columns = item_columns(items or {})
    if not columns.cols.size:
        raise ValueError("item catalog has no genre/keyword features")
    return columns.ptr, columns.cols, len(columns.genres) + len(columns.keywords)


def feature_matrix(ptr, cols, width, normalize: bool = True):
    """The dense item x feature matrix of `feature_columns` output, with
    L2-normalized rows if `normalize`."""
    mat = np.zeros((len(ptr) - 1, width))
    mat[np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)), cols] = 1.0
    if normalize:
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = np.where(norms > 0, mat / np.where(norms > 0, norms, 1.0), 0.0)
    return mat


class ContentBasedModel(FittedRecommender):
    """r_hat = 1 + 4 * cosine(user profile, item vector).

    The profile is the rating-weighted centroid of the user's rated item
    vectors; nonnegative features keep the cosine in [0,1], so the affine
    map covers the 1-5 scale. `profiles` holds one row per user of
    `user_ids`.
    """

    # the pickle keeps each item's feature columns, not the dense matrix
    _derived = FittedRecommender._derived + ("features", "_item_norms", "_profile_norms")

    def _fit(self, users, cols, ratings, items):
        self._feature_ptr, self._feature_cols, self._n_features = feature_columns(items)
        self._build_derived()
        # each row's (rating x feature) products at its item's nonzero
        # features, summed by one unbuffered add in the slice's order, so
        # every profile sum keeps its chronological order within the user
        ptr, counts = self._feature_ptr, np.diff(self._feature_ptr)[cols]
        feats = self._feature_cols[runs(ptr[cols], counts)]  # each row's features
        profiles = np.zeros((len(self.user_ids), self._n_features))
        np.add.at(profiles, (np.repeat(users, counts), feats),
                  np.repeat(ratings, counts) * self.features[np.repeat(cols, counts), feats])
        self.profiles = profiles

    def _build_derived(self):
        """The normalized `features` matrix and its row norms (one row-norm
        pass, which may differ from a per-item norm in the last bit)."""
        self.features = feature_matrix(self._feature_ptr, self._feature_cols,
                                       self._n_features)
        self._item_norms = np.linalg.norm(self.features, axis=1)

    @cached_property
    def _profile_norms(self) -> np.ndarray:
        """Each profile's norm, built on first use as the 1-D norm of its row."""
        return np.array([np.linalg.norm(p) for p in self.profiles])

    def _estimate_block(self, codes):
        # one gemv per user, which may differ from a per-item dot, and from
        # one block gemm, in the last bit
        pnorms = np.where(codes >= 0, self._profile_norms[codes], 0.0)
        dots = np.zeros((len(codes), len(self.item_ids)))
        for r in np.flatnonzero(pnorms != 0.0).tolist():
            dots[r] = self.features @ self.profiles[codes[r]]
        defined = (pnorms != 0.0)[:, None] & (self._item_norms != 0.0)
        cos = np.divide(dots, pnorms[:, None] * self._item_norms,
                        out=np.zeros(dots.shape), where=defined)
        return 1.0 + 4.0 * cos, defined, None
