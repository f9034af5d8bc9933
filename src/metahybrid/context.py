"""Per-user context model: raw feature extraction, PCA reduction of the
genre/keyword histograms, and assembly into a fixed-order numeric matrix."""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .data import format_float

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# MovieLens 1M age-band codes; unseen codes fall into "unknown"
ML_AGE_BANDS = (1, 18, 25, 35, 45, 50, 56)


@dataclass
class RawContextFeatures:
    user_id: object
    n_ratings: int
    rating_histogram: np.ndarray          # 5 fractions, sums to 1 when n_ratings > 0
    year_variance: float
    genre_entropy: float                  # nats, over the genre histogram
    preferred_hour: int | None            # 0..23, None for an empty slice
    preferred_dow: int | None             # 0=Monday .. 6=Sunday
    n_unique_categories: int
    genre_histogram: dict                 # genre -> fraction of genre occurrences
    keyword_histogram: dict
    mean_runtime_norm: float              # mean runtime / catalog max, in [0,1]
    gender: str
    age_band: int | None
    occupation: int | None
    location_region: str                  # first postal digit or "unknown"


def extract_raw(user_id, ratings, catalog: dict, demography=None) -> RawContextFeatures:
    """Compute the raw context attributes from one user's rating slice.

    An empty slice yields the zero profile: zero histograms and counts,
    no preferred hour/day, demographic categories as recorded.
    """
    ratings = list(ratings)
    for r in ratings:
        if r.user_id != user_id:
            raise ValueError(f"rating slice contains foreign user {r.user_id!r}")

    n = len(ratings)
    hist = np.zeros(5)
    genre_counts: Counter = Counter()
    keyword_counts: Counter = Counter()
    years, runtimes, hours, dows = [], [], [], []
    for r in ratings:
        hist[r.rating - 1] += 1
        ts = datetime.fromtimestamp(r.timestamp, tz=timezone.utc)
        hours.append(ts.hour)
        dows.append(ts.weekday())
        it = catalog.get(r.item_id)
        if it is None:
            continue
        genre_counts.update(it.genres)
        keyword_counts.update(it.keywords)
        if it.year is not None:
            years.append(it.year)
        if it.runtime_minutes is not None:
            runtimes.append(it.runtime_minutes)

    if n > 0:
        hist = hist / n
    genre_total = sum(genre_counts.values())
    genre_hist = {g: c / genre_total for g, c in genre_counts.items()} if genre_total else {}
    kw_total = sum(keyword_counts.values())
    kw_hist = {k: c / kw_total for k, c in keyword_counts.items()} if kw_total else {}
    # summed in genre order: the histogram's own order follows string hashing
    entropy = -sum(genre_hist[g] * math.log(genre_hist[g])
                   for g in sorted(genre_hist) if genre_hist[g] > 0)

    max_runtime = max((it.runtime_minutes for it in catalog.values()
                       if it.runtime_minutes is not None), default=0)
    mean_rt = (sum(runtimes) / len(runtimes) / max_runtime
               if runtimes and max_runtime else 0.0)

    gender, age, occupation, region = "unknown", None, None, "unknown"
    if demography is not None:
        gender = demography.gender
        age = demography.age_band
        occupation = demography.occupation
        if demography.location and demography.location[0].isdigit():
            region = demography.location[0]

    return RawContextFeatures(
        user_id=user_id,
        n_ratings=n,
        rating_histogram=hist,
        year_variance=float(np.var(years)) if years else 0.0,
        genre_entropy=entropy,
        preferred_hour=_mode(hours),
        preferred_dow=_mode(dows),
        n_unique_categories=len(genre_counts),
        genre_histogram=genre_hist,
        keyword_histogram=kw_hist,
        mean_runtime_norm=mean_rt,
        gender=gender,
        age_band=age,
        occupation=occupation,
        location_region=region,
    )


def _mode(values):
    if not values:
        return None
    counts = Counter(values)
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


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
    """Fixed feature universe: categorical vocabularies and PCA widths.

    Built once per experiment from the catalog and demography tables so
    the assembled columns are stable across runs.
    """

    genres: tuple
    keywords: tuple                       # capped at max_keywords most frequent
    age_bands: tuple = ML_AGE_BANDS
    occupations: tuple = tuple(range(21))
    include_age: bool = True
    genre_components: int = 10
    keyword_components: int = 15
    version: int = SCHEMA_VERSION

    SCALARS = ("n_ratings", "year_variance", "genre_entropy",
               "n_unique_genres", "mean_runtime_norm")

    def feature_names(self) -> list:
        names = list(self.SCALARS)
        names += [f"rating_frac_{v}" for v in range(1, 6)]
        names += [f"hour_{h}" for h in range(24)]
        names += [f"dow_{d}" for d in range(7)]
        names += ["gender_M", "gender_F", "gender_unknown"]
        if self.include_age:
            names += [f"age_{a}" for a in self.age_bands] + ["age_unknown"]
        names += [f"occupation_{o}" for o in self.occupations] + ["occupation_unknown"]
        names += [f"region_{d}" for d in range(10)] + ["region_unknown"]
        names += [f"genre_pc_{j + 1}" for j in range(self.genre_components)]
        names += [f"keyword_pc_{j + 1}" for j in range(self.keyword_components)]
        if len(set(names)) != len(names):
            raise ValueError("feature-name collision in context schema")
        return names

    def feature_groups(self) -> list:
        """Source-attribute group per column, for summed importances."""
        groups = list(self.SCALARS)
        groups += ["rating_histogram"] * 5
        groups += ["preferred_hour"] * 24
        groups += ["preferred_dow"] * 7
        groups += ["gender"] * 3
        if self.include_age:
            groups += ["age"] * (len(self.age_bands) + 1)
        groups += ["occupation"] * (len(self.occupations) + 1)
        groups += ["region"] * 11
        groups += ["genre_pca"] * self.genre_components
        groups += ["keyword_pca"] * self.keyword_components
        return groups


def build_schema(catalog: dict, users: dict | None = None, include_age: bool = True,
                 max_keywords: int = 2000, genre_components: int = 10,
                 keyword_components: int = 15) -> ContextSchema:
    genres = tuple(sorted({g for it in catalog.values() for g in it.genres}))
    kw_counts: Counter = Counter()
    for it in catalog.values():
        kw_counts.update(it.keywords)
    top = sorted(kw_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_keywords]
    keywords = tuple(sorted(k for k, _ in top))
    age_bands = ML_AGE_BANDS
    occupations = tuple(range(21))
    if users:
        seen_ages = sorted({u.age_band for u in users.values() if u.age_band is not None})
        if seen_ages and not set(seen_ages).issubset(ML_AGE_BANDS):
            age_bands = tuple(seen_ages)
        seen_occ = sorted({u.occupation for u in users.values() if u.occupation is not None})
        if seen_occ and not set(seen_occ).issubset(set(range(21))):
            occupations = tuple(seen_occ)
    gc = min(genre_components, len(genres)) if genres else 0
    kc = min(keyword_components, len(keywords)) if keywords else 0
    if gc < genre_components:
        log.warning("genre universe (%d) smaller than requested components; using %d",
                    len(genres), gc)
    if kc < keyword_components:
        log.warning("keyword universe (%d) smaller than requested components; using %d",
                    len(keywords), kc)
    return ContextSchema(genres=genres, keywords=keywords, age_bands=age_bands,
                         occupations=occupations, include_age=include_age,
                         genre_components=gc, keyword_components=kc)


def histogram_row(hist: dict, vocabulary) -> np.ndarray:
    row = np.zeros(len(vocabulary))
    for j, key in enumerate(vocabulary):
        row[j] = hist.get(key, 0.0)
    return row


def fit_histogram_pcas(raws, schema: ContextSchema):
    """Fit the genre/keyword PCA models on (training) users' histograms."""
    genre_m = np.array([histogram_row(r.genre_histogram, schema.genres) for r in raws])
    kw_m = np.array([histogram_row(r.keyword_histogram, schema.keywords) for r in raws])
    pca_g = fit_pca(genre_m, schema.genre_components) if schema.genre_components else None
    pca_k = fit_pca(kw_m, schema.keyword_components) if schema.keyword_components else None
    return pca_g, pca_k


def assemble_matrix(raws, pca_genres, pca_keywords, schema: ContextSchema):
    """Stack raw features into the fixed-order numeric matrix.

    Column order: scalars, rating histogram, hour/day one-hots,
    demographic one-hots, genre-PCA values, keyword-PCA values.
    """
    names = schema.feature_names()
    rows = []
    for raw in raws:
        row = [float(raw.n_ratings), raw.year_variance, raw.genre_entropy,
               float(raw.n_unique_categories), raw.mean_runtime_norm]
        row.extend(raw.rating_histogram.tolist())
        row.extend(_onehot(raw.preferred_hour, range(24)))
        row.extend(_onehot(raw.preferred_dow, range(7)))
        row.extend(_onehot_cat(raw.gender, ("M", "F")))
        if schema.include_age:
            row.extend(_onehot_cat(raw.age_band, schema.age_bands))
        row.extend(_onehot_cat(raw.occupation, schema.occupations))
        row.extend(_onehot_cat(raw.location_region, tuple(str(d) for d in range(10))))
        if pca_genres is not None:
            row.extend(transform_pca(pca_genres,
                                     histogram_row(raw.genre_histogram, schema.genres)).tolist())
        if pca_keywords is not None:
            row.extend(transform_pca(pca_keywords,
                                     histogram_row(raw.keyword_histogram, schema.keywords)).tolist())
        rows.append(row)
    matrix = np.array(rows, dtype=float) if rows else np.zeros((0, len(names)))
    if matrix.shape[1] != len(names):
        raise ValueError(f"assembled {matrix.shape[1]} columns, schema names {len(names)}")
    return matrix, names


def _onehot(value, universe) -> list:
    return [1.0 if value == u else 0.0 for u in universe]


def _onehot_cat(value, universe) -> list:
    """One-hot over a category universe plus a trailing unknown column."""
    row = [1.0 if value == u else 0.0 for u in universe]
    row.append(1.0 if not any(row) else 0.0)
    return row


def export_matrix(path, matrix: np.ndarray, names, user_ids):
    """Write the assembled matrix as headered CSV for offline inspection."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id," + ",".join(names) + "\n")
        for uid, row in zip(user_ids, matrix):
            fh.write(str(uid) + "," + ",".join(format_float(v) for v in row) + "\n")
