"""Per-user context model: raw attributes of a whole user list from their
inner-train rows, the catalog's one encoding (`data.ItemColumns`) and
demography, in one pass of array operations (`extract_raw`); PCA
reduction of the genre and keyword histograms; and one matrix row per user
laid out by the one column table `ContextSchema.blocks()`, which the column
names and the importance groups read too. Preferred hours and weekdays
are UTC."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import (Dataset, ItemColumns, RatingSlice, UserRecord, format_float, runs,
                   segment_sums)

log = logging.getLogger(__name__)

# MovieLens 1M age-band and occupation codes; unseen codes fall into "unknown"
ML_AGE_BANDS = (1, 18, 25, 35, 45, 50, 56)
ML_OCCUPATIONS = tuple(range(21))
GENDERS = ("M", "F")
REGIONS = tuple("0123456789")             # first postal digit


@dataclass
class ContextConfig:
    """The config's `context` section, read by `build_schema`."""

    include_age: bool = True
    max_keywords: int = 2000
    genre_components: int = 10
    keyword_components: int = 15

    def __post_init__(self):
        if type(self.include_age) is not bool:
            raise ValueError("include_age must be true or false")
        for name in ("max_keywords", "genre_components", "keyword_components"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be an int >= 0")


def extract_raw(user_ids, inner_train: RatingSlice, dataset: Dataset,
                schema: ContextSchema) -> dict:
    """Every user's raw context attributes from their `inner_train` rows, in
    one pass: a dict of arrays keyed as the blocks, one row per user.

    Preferred hour and weekday: the most frequent, the smaller on ties, -1
    without ratings. Histograms: a share of all the user's genre (keyword)
    occurrences per term of the schema; entropy and unique count span every
    catalog genre. A category is a position in its block, the last unknown.
    Raises `ValueError` for a user that `inner_train` holds no entry for.
    """
    missing = [uid for uid in user_ids if uid not in inner_train]
    if missing:
        raise ValueError(f"user {missing[0]!r} has no entry in the inner-train slice")
    spans = np.array([inner_train.span(uid) for uid in user_ids], dtype=np.int64).reshape(-1, 2)
    n_users, n_ratings = len(spans), spans[:, 1] - spans[:, 0]
    user = np.arange(n_users).repeat(n_ratings)       # of each gathered row
    rows = runs(spans[:, 0], n_ratings)
    ratings, catalog = inner_train.rows, dataset.item_columns
    stamp = ratings.timestamp[rows]
    item = ratings.item[rows]                          # catalog row, -1 if none
    if ratings.item_ids != catalog.item_ids:
        index = {iid: j for j, iid in enumerate(catalog.item_ids)}
        item = np.array([index.get(i, -1) for i in ratings.item_ids], dtype=np.int64)[item]
    known = item >= 0
    rated, item = user[known], item[known]

    # every rated item's genre and keyword columns, whose they are, and each
    # user's count of genre and of keyword occurrences
    starts = catalog.ptr[item]
    lengths = catalog.ptr[item + 1] - starts
    cols = catalog.cols[runs(starts, lengths)]
    owner = rated.repeat(lengths)
    totals = np.bincount(owner * 2 + (cols >= len(catalog.genres)), minlength=n_users * 2)

    def shares(genres, keywords):  # of the genre (keyword) occurrences per term
        width = len(genres) + len(keywords)
        pos = catalog.positions(genres, keywords)[cols]
        keep = pos >= 0
        counts = np.bincount(owner[keep] * width + pos[keep], minlength=n_users * width)
        total = totals.reshape(n_users, 2).repeat([len(genres), len(keywords)], axis=1)
        return np.divide(counts.reshape(n_users, width), total,
                         out=np.zeros((n_users, width)), where=total > 0)

    histograms = shares(schema.genres, schema.keywords)
    n_genres = len(schema.genres)
    genres = (histograms[:, :n_genres] if schema.genres == catalog.genres
              else shares(catalog.genres, ()))
    present = genres > 0
    # p log p after a 0.0, summed one genre after another (`accumulate`) in
    # sorted-genre order, with math.log, as the per-user sum took them
    terms = np.zeros((n_users, 1 + len(catalog.genres)))
    p = genres[present]
    terms[:, 1:][present] = p * np.array(list(map(math.log, p.tolist())))
    entropy = np.add.accumulate(terms, axis=1)[:, -1]
    year = catalog.year[item]
    year_mean, year_n = _means(rated, year, n_users)
    dev = (year - year_mean[rated])[~np.isnan(year)]   # in np.var's pairwise sums
    people = [dataset.users.get(uid) or UserRecord(uid) for uid in user_ids]
    return {
        "n_ratings": n_ratings,
        "rating_histogram": np.bincount(user * 5 + ratings.rating[rows] - 1,
                                        minlength=n_users * 5).reshape(n_users, 5)
        / np.maximum(n_ratings, 1)[:, None],
        "preferred_hour": _modes(user, stamp // 3600 % 24, 24, n_users),
        "preferred_dow": _modes(user, (stamp // 86400 + 3) % 7, 7, n_users),  # day 0: Thursday
        "genre_histogram": histograms[:, :n_genres].copy(),  # C-contiguous, for the PCA
        "keyword_histogram": histograms[:, n_genres:].copy(),
        # a user with one genre has entropy -0.0, one without genres 0.0
        "genre_entropy": np.where(present.any(axis=1), -entropy, 0.0),
        "n_unique_genres": present.sum(axis=1),
        "year_variance": np.divide(segment_sums(dev * dev, year_n), year_n,
                                   out=np.zeros(n_users), where=year_n > 0),
        "mean_runtime": _means(rated, catalog.runtime[item], n_users)[0],
        "gender": _positions([u.gender for u in people], GENDERS),
        "age": _positions([u.age_band for u in people], schema.age_bands),
        "occupation": _positions([u.occupation for u in people], schema.occupations),
        "region": _positions([u.location[0] if u.location else None for u in people],
                             REGIONS),
    }


def _means(owner, values, n_users) -> tuple:
    """Each user's mean of the non-NaN `values` (whole numbers, so exact
    sums in any order), 0.0 without any, and their count."""
    has = ~np.isnan(values)
    n = np.bincount(owner[has], minlength=n_users)
    sums = np.bincount(owner[has], weights=values[has], minlength=n_users)
    return np.divide(sums, n, out=np.zeros(n_users), where=n > 0), n


def _modes(user, values, width, n_users) -> np.ndarray:
    """Each user's most frequent value of 0..width-1, the smaller on ties;
    -1 for a user without values."""
    counts = np.bincount(user * width + values, minlength=n_users * width).reshape(n_users, width)
    return np.where(counts.any(axis=1), counts.argmax(axis=1), -1)


def _positions(values, universe) -> np.ndarray:
    """Each value's position in `universe`, `len(universe)` for none of it."""
    index = {u: k for k, u in enumerate(universe)}
    return np.array([index.get(v, len(universe)) for v in values], dtype=np.int64)


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray                # (k, d), orthonormal rows
    explained_variance_ratio: np.ndarray  # (k,), non-increasing
    d: int
    k: int


def fit_pca(matrix: np.ndarray, k: int) -> PcaModel:
    """PCA via eigendecomposition of the mean-centered covariance.

    Components are sorted by descending eigenvalue; the largest-magnitude
    loading of each component is made positive so signs are reproducible.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2:
        raise ValueError("matrix must be 2-D")
    n, d = X.shape
    if n < k or d < k:
        raise ValueError(f"need at least k={k} rows and columns, got {n}x{d}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains non-finite values")
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = Xc.T @ Xc / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    comps = eigvecs[:, order].T[:k].copy()
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1
    total = eigvals.sum()
    ratios = eigvals[:k] / total if total > 0 else np.zeros(k)
    rank = int(np.linalg.matrix_rank(Xc)) if k > min(n - 1, d) else None
    if rank is not None and k > rank:
        log.warning("PCA k=%d exceeds data rank %d; trailing components explain 0", k, rank)
    return PcaModel(mean=mean, components=comps,
                    explained_variance_ratio=ratios, d=d, k=k)


def transform_pca(model: PcaModel, row: np.ndarray) -> np.ndarray:
    row = np.asarray(row, dtype=float)
    if row.shape[-1] != model.d:
        raise ValueError(f"expected dimension {model.d}, got {row.shape[-1]}")
    return (row - model.mean) @ model.components.T


@dataclass
class ContextSchema:
    """The context vector's layout, built once per experiment from the
    catalog and demography: vocabularies, category universes, PCA widths
    and the catalog's longest runtime, which divides each user's mean
    runtime.
    """

    genres: tuple
    keywords: tuple                       # capped at max_keywords most frequent
    age_bands: tuple = ML_AGE_BANDS
    occupations: tuple = ML_OCCUPATIONS
    include_age: bool = True
    genre_components: int = 10
    keyword_components: int = 15
    max_runtime: int = 0                  # minutes; 0 when no item has a runtime

    def blocks(self) -> list:
        """(source attribute, column names) per block, in column order."""
        def onehot(prefix, universe):  # one column per category, then unknown
            return [f"{prefix}_{u}" for u in universe] + [f"{prefix}_unknown"]

        blocks = [(name, [name]) for name in ("n_ratings", "year_variance", "genre_entropy",
                                              "n_unique_genres", "mean_runtime_norm")]
        blocks += [("rating_histogram", [f"rating_frac_{v}" for v in range(1, 6)]),
                   ("preferred_hour", [f"hour_{h}" for h in range(24)]),
                   ("preferred_dow", [f"dow_{d}" for d in range(7)]),
                   ("gender", onehot("gender", GENDERS))]
        if self.include_age:
            blocks.append(("age", onehot("age", self.age_bands)))
        blocks += [("occupation", onehot("occupation", self.occupations)),
                   ("region", onehot("region", REGIONS)),
                   ("genre_pca", [f"genre_pc_{j + 1}" for j in range(self.genre_components)]),
                   ("keyword_pca",
                    [f"keyword_pc_{j + 1}" for j in range(self.keyword_components)])]
        return blocks

    def feature_names(self) -> list:
        names = [name for _, columns in self.blocks() for name in columns]
        if len(set(names)) != len(names):
            raise ValueError("feature-name collision in context schema")
        return names

    def feature_groups(self) -> list:
        """Source attribute per column, for summed importances."""
        return [attribute for attribute, columns in self.blocks() for _ in columns]


def build_schema(columns: ItemColumns, users: dict | None = None,
                 config: ContextConfig = ContextConfig()) -> ContextSchema:
    """The context layout of a catalog's `data.ItemColumns` and the users."""
    genres, n_genres = columns.genres, len(columns.genres)
    counts = np.bincount(columns.cols[columns.cols >= n_genres] - n_genres,
                         minlength=len(columns.keywords))
    top = np.argsort(-counts, kind="stable")[:config.max_keywords]  # ties: alphabetical
    keywords = tuple(columns.keywords[j] for j in sorted(top.tolist()))
    age_bands, occupations = ML_AGE_BANDS, ML_OCCUPATIONS
    if users:
        seen_ages = sorted({u.age_band for u in users.values() if u.age_band is not None})
        if seen_ages and not set(seen_ages).issubset(ML_AGE_BANDS):
            age_bands = tuple(seen_ages)
        seen_occ = sorted({u.occupation for u in users.values() if u.occupation is not None})
        if seen_occ and not set(seen_occ).issubset(ML_OCCUPATIONS):
            occupations = tuple(seen_occ)
    gc = min(config.genre_components, len(genres))
    kc = min(config.keyword_components, len(keywords))
    if gc < config.genre_components:
        log.warning("genre universe (%d) smaller than requested components; using %d",
                    len(genres), gc)
    if kc < config.keyword_components:
        log.warning("keyword universe (%d) smaller than requested components; using %d",
                    len(keywords), kc)
    runtimes = columns.runtime[~np.isnan(columns.runtime)]
    return ContextSchema(genres=genres, keywords=keywords, age_bands=age_bands,
                         occupations=occupations, include_age=config.include_age,
                         genre_components=gc, keyword_components=kc,
                         max_runtime=int(runtimes.max()) if runtimes.size else 0)


def fit_histogram_pcas(raw: dict, schema: ContextSchema):
    """Fit the genre/keyword PCA models on (training) users' histograms."""
    g, k = schema.genre_components, schema.keyword_components
    return (fit_pca(raw["genre_histogram"], g) if g else None,
            fit_pca(raw["keyword_histogram"], k) if k else None)


# the blocks that `extract_raw` gives as codes, one column per code
_CATEGORIES = ("preferred_hour", "preferred_dow", "gender", "age", "occupation", "region")


def assemble_matrix(raw: dict, pca_genres, pca_keywords, schema: ContextSchema):
    """Stack the `extract_raw` arrays into the matrix laid out by
    `schema.blocks()`, the categories one-hot."""
    n_users = len(raw["n_ratings"])

    def project(pca, hist):  # row by row, as a single user's row is
        return (np.array([transform_pca(pca, row) for row in hist]).reshape(n_users, pca.k)
                if pca is not None else np.zeros((n_users, 0)))

    values = dict(raw, genre_pca=project(pca_genres, raw["genre_histogram"]),
                  keyword_pca=project(pca_keywords, raw["keyword_histogram"]),
                  mean_runtime_norm=(raw["mean_runtime"] / schema.max_runtime
                                     if schema.max_runtime else np.zeros(n_users)))
    matrix = np.concatenate([values[attribute][:, None] == np.arange(len(columns))
                             if attribute in _CATEGORIES
                             else values[attribute].reshape(n_users, len(columns))
                             for attribute, columns in schema.blocks()], axis=1, dtype=float)
    return matrix, schema.feature_names()


def matrix_csv(matrix: np.ndarray, names, user_ids) -> str:
    """The assembled matrix as headered CSV, for offline inspection."""
    lines = ["user_id," + ",".join(names)]
    for uid, row in zip(user_ids, matrix):
        lines.append(str(uid) + "," + ",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"
