"""Per-user context model: raw attributes from a user's inner-train slice
and demography (`extract_raw`), PCA reduction of the genre and keyword
histograms, and one matrix row per user laid out by the one column table
`ContextSchema.blocks()`, which the column names and the importance groups
read too. Preferred hours and weekdays are UTC."""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import Ratings, format_float

log = logging.getLogger(__name__)

SCHEMA_VERSION = 2

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
    mean_runtime: float                   # minutes, over rated items with a runtime
    gender: str
    age_band: int | None
    occupation: int | None
    location_region: str                  # first postal digit or "unknown"


def extract_raw(user_id, ratings: Ratings, catalog: dict,
                demography=None) -> RawContextFeatures:
    """Compute the raw context attributes from one user's rating rows.

    An empty slice yields the zero profile: zero histograms and counts,
    no preferred hour/day, demographic categories as recorded.
    """
    for code in np.unique(ratings.user).tolist():
        if ratings.user_ids[code] != user_id:
            raise ValueError(f"rating slice contains foreign user {ratings.user_ids[code]!r}")
    n = len(ratings)
    hist = np.bincount(ratings.rating - 1, minlength=5) / max(n, 1)
    hours = (ratings.timestamp // 3600 % 24).tolist()           # UTC
    dows = ((ratings.timestamp // 86400 + 3) % 7).tolist()      # day 0 was a Thursday
    rated = [it for it in map(catalog.get, ratings.item_list()) if it is not None]
    genres = [g for it in rated for g in it.genres]
    keywords = [k for it in rated for k in it.keywords]
    years = [it.year for it in rated if it.year is not None]
    runtimes = [it.runtime_minutes for it in rated if it.runtime_minutes is not None]

    genre_hist = {g: c / len(genres) for g, c in Counter(genres).items()}
    kw_hist = {k: c / len(keywords) for k, c in Counter(keywords).items()}
    # summed in genre order: the histogram's own order follows string hashing
    entropy = -sum(genre_hist[g] * math.log(genre_hist[g])
                   for g in sorted(genre_hist) if genre_hist[g] > 0)

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
        n_unique_categories=len(genre_hist),
        genre_histogram=genre_hist,
        keyword_histogram=kw_hist,
        mean_runtime=sum(runtimes) / len(runtimes) if runtimes else 0.0,
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
    """The context vector's layout, built once per experiment from the
    catalog and demography: vocabularies, category universes, PCA widths
    and the catalog's longest runtime, which divides each user's mean
    runtime. The evaluate stage rejects a schema of another `version`.
    """

    genres: tuple
    keywords: tuple                       # capped at max_keywords most frequent
    age_bands: tuple = ML_AGE_BANDS
    occupations: tuple = ML_OCCUPATIONS
    include_age: bool = True
    genre_components: int = 10
    keyword_components: int = 15
    max_runtime: int = 0                  # minutes; 0 when no item has a runtime
    version: int = SCHEMA_VERSION

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


def build_schema(catalog: dict, users: dict | None = None,
                 config: ContextConfig = ContextConfig()) -> ContextSchema:
    genres = tuple(sorted({g for it in catalog.values() for g in it.genres}))
    kw_counts = Counter(k for it in catalog.values() for k in it.keywords)
    top = sorted(kw_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:config.max_keywords]
    keywords = tuple(sorted(k for k, _ in top))
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
    return ContextSchema(genres=genres, keywords=keywords, age_bands=age_bands,
                         occupations=occupations, include_age=config.include_age,
                         genre_components=gc, keyword_components=kc,
                         max_runtime=max((it.runtime_minutes for it in catalog.values()
                                          if it.runtime_minutes is not None), default=0))


def histogram_row(hist: dict, vocabulary) -> np.ndarray:
    return np.array([hist.get(key, 0.0) for key in vocabulary], dtype=float)


def fit_histogram_pcas(raws, schema: ContextSchema):
    """Fit the genre/keyword PCA models on (training) users' histograms."""
    genre_m = np.array([histogram_row(r.genre_histogram, schema.genres) for r in raws])
    kw_m = np.array([histogram_row(r.keyword_histogram, schema.keywords) for r in raws])
    pca_g = fit_pca(genre_m, schema.genre_components) if schema.genre_components else None
    pca_k = fit_pca(kw_m, schema.keyword_components) if schema.keyword_components else None
    return pca_g, pca_k


def assemble_matrix(raws, pca_genres, pca_keywords, schema: ContextSchema):
    """Stack raw features into the matrix laid out by `schema.blocks()`."""
    names = schema.feature_names()
    blocks = schema.blocks()
    rows = []
    for raw in raws:
        values = _block_values(raw, pca_genres, pca_keywords, schema)
        rows.append([v for attribute, _ in blocks for v in values[attribute]])
    matrix = np.array(rows, dtype=float) if rows else np.zeros((0, len(names)))
    if matrix.shape[1] != len(names):
        raise ValueError(f"assembled {matrix.shape[1]} columns, schema names {len(names)}")
    return matrix, names


def _block_values(raw: RawContextFeatures, pca_genres, pca_keywords,
                  schema: ContextSchema) -> dict:
    """One user's values per block, keyed by the blocks' source attributes."""
    return {
        "n_ratings": [float(raw.n_ratings)],
        "year_variance": [raw.year_variance],
        "genre_entropy": [raw.genre_entropy],
        "n_unique_genres": [float(raw.n_unique_categories)],
        "mean_runtime_norm": [raw.mean_runtime / schema.max_runtime
                              if schema.max_runtime else 0.0],
        "rating_histogram": raw.rating_histogram.tolist(),
        "preferred_hour": _onehot(raw.preferred_hour, range(24)),
        "preferred_dow": _onehot(raw.preferred_dow, range(7)),
        "gender": _onehot(raw.gender, GENDERS, unknown=True),
        "age": _onehot(raw.age_band, schema.age_bands, unknown=True),
        "occupation": _onehot(raw.occupation, schema.occupations, unknown=True),
        "region": _onehot(raw.location_region, REGIONS, unknown=True),
        "genre_pca": _project(pca_genres, raw.genre_histogram, schema.genres),
        "keyword_pca": _project(pca_keywords, raw.keyword_histogram, schema.keywords),
    }


def _onehot(value, universe, unknown: bool = False) -> list:
    """One-hot over `universe`, then with `unknown` a column for none of it."""
    row = [1.0 if value == u else 0.0 for u in universe]
    if unknown:
        row.append(0.0 if any(row) else 1.0)
    return row


def _project(pca, hist: dict, vocabulary) -> list:
    return [] if pca is None else transform_pca(pca, histogram_row(hist, vocabulary)).tolist()


def matrix_csv(matrix: np.ndarray, names, user_ids) -> str:
    """The assembled matrix as headered CSV, for offline inspection."""
    lines = ["user_id," + ",".join(names)]
    for uid, row in zip(user_ids, matrix):
        lines.append(str(uid) + "," + ",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"
