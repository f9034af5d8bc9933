"""The context build: `extract_raw` for a whole user list, the PCA models,
the assembled matrix, and, in `TestPerUserReference`, the per-user
extraction and row-by-row assembly that the batch form replaced, kept as
the reference the batch matrix must equal bit for bit."""

import csv
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np
import pytest

from metahybrid import evaluation
from metahybrid.context import (
    GENDERS,
    ML_AGE_BANDS,
    REGIONS,
    ContextConfig,
    ContextSchema,
    assemble_matrix,
    build_schema,
    extract_raw,
    fit_histogram_pcas,
    fit_pca,
    matrix_csv,
    transform_pca,
)
from helpers import ratings_of
from metahybrid.data import (
    Dataset,
    ItemRecord,
    RatingSlice,
    UserRecord,
    enrich_items,
    item_columns,
    load_generic_ratings,
    load_movielens,
)
from metahybrid.fixtures import make_fixture
from metahybrid.splits import SplitPlan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 2001-01-01 was a Monday; 978300000 is 2001-01-01 00:40 UTC
MONDAY_20 = 978379200      # 2001-01-01 20:00 UTC
TUESDAY_20 = 978465600     # 2001-01-02 20:00 UTC
TUESDAY_09 = 978426000     # 2001-01-02 09:00 UTC


CATALOG = {
    1: ItemRecord(1, year=1990, genres=frozenset({"Drama"}),
                  keywords=frozenset({"war"}), runtime_minutes=100),
    2: ItemRecord(2, year=2000, genres=frozenset({"Drama", "Comedy"}),
                  keywords=frozenset({"war", "love"}), runtime_minutes=200),
}


def slice_of(histories: dict, item_ids=None) -> RatingSlice:
    """Users' rating rows (user id -> (user, item, rating, timestamp) rows,
    in row order) as one slice, coded by the item table `item_ids` (by
    default the rated items)."""
    events = [e for evs in histories.values() for e in evs]
    return RatingSlice(ratings_of(events, item_ids=item_ids), list(histories),
                       [len(evs) for evs in histories.values()])


def extract(histories: dict, catalog=CATALOG, people=None, schema=None) -> dict:
    """`extract_raw` of every user of `histories`, over `catalog`, whose
    sorted ids are the slice's item table."""
    inner = slice_of(histories, sorted(catalog))
    schema = schema or build_schema(item_columns(catalog))
    return extract_raw(list(histories), inner, Dataset(inner.rows, catalog, people or {}),
                       schema)


def _events(uid=7):
    return [(uid, 1, 5, TUESDAY_20), (uid, 2, 5, TUESDAY_09), (uid, 1, 5, MONDAY_20)]


class TestExtractRaw:
    def test_rating_histogram(self):
        raw = extract({7: _events()})
        assert raw["n_ratings"].tolist() == [3]
        assert np.allclose(raw["rating_histogram"], [[0, 0, 0, 0, 1]])

    def test_genre_histogram_and_entropy(self):
        # occurrences: Drama 3 (items 1,1,2), Comedy 1 -> fractions 3/4, 1/4
        raw = extract({7: _events()})
        assert raw["genre_histogram"].tolist() == [[0.25, 0.75]]  # Comedy, Drama
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert raw["genre_entropy"][0] == pytest.approx(expected, abs=1e-12)
        assert raw["n_unique_genres"].tolist() == [2]

    def test_two_thirds_entropy_hand_value(self):
        events = [(7, 1, 4, MONDAY_20), (7, 1, 4, TUESDAY_20)]
        cat = {1: ItemRecord(1, genres=frozenset({"Drama"})),
               2: ItemRecord(2, genres=frozenset({"Comedy"}))}
        events.append((7, 2, 4, TUESDAY_09))
        raw = extract({7: events}, cat)
        # Drama 2/3, Comedy 1/3: ln 3 - (2/3) ln 2 = 0.6365... nats
        assert raw["genre_entropy"][0] == pytest.approx(0.636514168, abs=1e-8)

    def test_preferred_hour_and_day(self):
        raw = extract({7: _events()})
        assert raw["preferred_hour"].tolist() == [20]   # 20:00 twice, 09:00 once
        assert raw["preferred_dow"].tolist() == [1]     # Tuesday twice, Monday once

    def test_hour_and_weekday_match_datetime(self):
        # every timestamp of the shipped fixture, the first seconds and day
        # boundary of the epoch, a leap day and a date past 2038, one user each
        with open(os.path.join(ROOT, "fixtures", "ratings.dat"), encoding="utf-8") as fh:
            stamps = {int(line.split("::")[3]) for line in fh if line.strip()}
        assert len(stamps) > 1000
        leap_day = int(datetime(2024, 2, 29, 13, 30, tzinfo=timezone.utc).timestamp())
        stamps = sorted(stamps | {1, 86399, 86400, leap_day, 2 ** 33})
        raw = extract({k: [(k, 1, 3, ts)] for k, ts in enumerate(stamps)})
        for ts, hour, dow in zip(stamps, raw["preferred_hour"].tolist(),
                                 raw["preferred_dow"].tolist()):
            expected = datetime.fromtimestamp(ts, tz=timezone.utc)
            assert (hour, dow) == (expected.hour, expected.weekday()), ts

    def test_mode_tie_prefers_smaller_value(self):
        events = [(7, 1, 3, MONDAY_20), (7, 2, 3, TUESDAY_20)]
        assert extract({7: events})["preferred_dow"].tolist() == [0]

    def test_year_variance_and_runtime(self):
        raw = extract({7: _events(), 8: []})
        assert raw["year_variance"][0] == pytest.approx(np.var([1990, 2000, 1990]))
        assert raw["mean_runtime"][0] == pytest.approx((100 + 200 + 100) / 3)
        # the schema holds the catalog's longest runtime, which divides the mean
        schema = build_schema(item_columns(CATALOG))
        assert schema.max_runtime == 200 and type(schema.max_runtime) is int
        matrix, names = assemble_matrix(raw, *fit_histogram_pcas(raw, schema), schema)
        assert matrix[:, names.index("mean_runtime_norm")] == pytest.approx(
            [(100 + 200 + 100) / 3 / 200, 0.0])

    def test_empty_slice_zero_profile(self):
        raw = extract({7: []})
        assert raw["n_ratings"].tolist() == [0]
        assert np.allclose(raw["rating_histogram"], 0)
        assert raw["preferred_hour"].tolist() == raw["preferred_dow"].tolist() == [-1]
        assert not raw["genre_histogram"].any() and not raw["keyword_histogram"].any()
        assert raw["genre_entropy"].tolist() == [0.0]
        assert raw["year_variance"].tolist() == raw["mean_runtime"].tolist() == [0.0]

    def test_demography_passthrough(self):
        people = {7: UserRecord(7, gender="F", age_band=25, occupation=4, location="48067")}
        raw = extract({7: [], 8: []}, people=people)
        assert raw["gender"].tolist() == [GENDERS.index("F"), len(GENDERS)]
        assert raw["age"].tolist() == [ML_AGE_BANDS.index(25), len(ML_AGE_BANDS)]
        assert raw["occupation"].tolist() == [4, 21]
        assert raw["region"].tolist() == [REGIONS.index("4"), len(REGIONS)]

    def test_unknown_user_rejected(self):
        inner = slice_of({7: _events()})
        dataset = Dataset(inner.rows, CATALOG, {})
        with pytest.raises(ValueError, match="user 8 "):
            extract_raw([7, 8], inner, dataset, build_schema(item_columns(CATALOG)))
        with pytest.raises(ValueError, match="user 8 "):
            evaluation.build_contexts([8], inner, dataset,
                                      build_schema(item_columns(CATALOG)), fit_pcas=True)

    def test_slice_off_the_catalog_table_rejected(self):
        # the slice's table lacks item 2, so its codes are not catalog rows
        inner = slice_of({7: [(7, 1, 3, MONDAY_20)]})
        with pytest.raises(ValueError, match="item table is not the dataset's item catalog"):
            extract_raw([7], inner, Dataset(inner.rows, CATALOG, {}),
                        build_schema(item_columns(CATALOG)))

    def test_entropy_independent_of_hash_seed(self):
        # the shipped fixture's users, each seed in a fresh interpreter
        script = (
            "import os\n"
            "from metahybrid.context import build_schema, extract_raw\n"
            "from metahybrid.data import load_movielens\n"
            "ds = load_movielens(*(os.path.join('fixtures', f) for f in "
            "('ratings.dat', 'users.dat', 'movies.dat')))\n"
            "by_user = ds.ratings_by_user()\n"
            "raw = extract_raw(by_user.users, by_user, ds, build_schema(ds.item_columns))\n"
            "for uid, h in zip(by_user.users, raw['genre_entropy'].tolist()):\n"
            "    print(uid, h.hex())\n")
        outputs = []
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src")] + sys.path))
            outputs.append(subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                                          check=True, capture_output=True, text=True).stdout)
        assert outputs[0].count("\n") == 200
        assert outputs[0] == outputs[1] == outputs[2]

    def test_duplicate_slice_scales_counts_only(self):
        # doubling the multiset doubles n_ratings but leaves fractions alone
        raw = extract({7: _events(), 8: _events(8) * 2})
        assert raw["n_ratings"].tolist() == [3, 6]
        for key in ("rating_histogram", "genre_histogram", "keyword_histogram",
                    "genre_entropy"):
            assert np.allclose(raw[key][1], raw[key][0])


def pca_brute(X, k):
    """Naive reference: full SVD of the centered matrix."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    _, s, vt = np.linalg.svd(X - mean, full_matrices=False)
    comps = vt[:k]
    var = s ** 2 / max(X.shape[0] - 1, 1)
    total = np.var(X - mean, axis=0, ddof=1).sum()
    full = var / total if total > 0 else np.zeros_like(var)
    return mean, comps, full[:k], full


class TestPca:
    def test_collinear_data_one_component(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=50)
        X = np.outer(t, [3.0, -4.0]) + np.array([1.0, 2.0])
        model = fit_pca(X, 1)
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)
        # component proportional to (3,-4)/5 with positive dominant loading
        assert np.allclose(np.abs(model.components[0]), [0.6, 0.8], atol=1e-10)
        assert model.components[0][1] > 0

    def test_isotropic_ratios_near_uniform(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4000, 5))
        model = fit_pca(X, 5)
        assert np.allclose(model.explained_variance_ratio, 0.2, atol=0.02)
        assert model.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_maps_to_origin(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 6))
        model = fit_pca(X, 3)
        assert np.all(np.abs(transform_pca(model, X.mean(axis=0))) <= 1e-12)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 8)) @ rng.normal(size=(8, 8))
        model = fit_pca(X, 5)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(5), atol=1e-8)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(8, 30))
            d = int(rng.integers(3, 10))
            k = int(rng.integers(1, min(n, d) + 1))
            X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
            model = fit_pca(X, k)
            mean, comps, ratios, full = pca_brute(X, k)
            assert np.allclose(model.mean, mean, atol=1e-10)
            assert np.allclose(model.explained_variance_ratio, ratios, atol=1e-8)
            padded = np.concatenate([[np.inf], full, [-np.inf]])
            for j, (a, b) in enumerate(zip(model.components, comps)):
                # axes are only well-defined away from degenerate eigenvalues
                gap = min(padded[j] - padded[j + 1], padded[j + 1] - padded[j + 2])
                if ratios[j] > 1e-8 and gap > 1e-3:
                    assert abs(abs(a @ b) - 1.0) <= 1e-6

    def test_projection_matches_brute_force(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 7))
        model = fit_pca(X, 4)
        for row in X[:10]:
            manual = np.array([(row - model.mean) @ c for c in model.components])
            assert np.allclose(transform_pca(model, row), manual, atol=1e-12)

    def test_k_larger_than_data_rejected(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((3, 2)), 3)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 4))
        a = fit_pca(X, 3)
        b = fit_pca(X.copy(), 3)
        assert np.array_equal(a.components, b.components)
        for row in a.components:
            assert row[int(np.argmax(np.abs(row)))] > 0


class TestSchemaAndAssembly:
    def _schema(self):
        return ContextSchema(genres=("Comedy", "Drama"), keywords=("love", "war"),
                             genre_components=2, keyword_components=2)

    def test_onehot_block_widths(self):
        schema = self._schema()
        names = schema.feature_names()
        assert sum(n.startswith("hour_") for n in names) == 24
        assert sum(n.startswith("dow_") for n in names) == 7
        assert sum(n.startswith("gender_") for n in names) == 3
        assert sum(n.startswith("age_") for n in names) == 8
        assert sum(n.startswith("occupation_") for n in names) == 22
        assert sum(n.startswith("region_") for n in names) == 11
        assert len(names) == len(set(names))

    def test_groups_align_with_names(self):
        schema = self._schema()
        assert len(schema.feature_groups()) == len(schema.feature_names())

    def test_age_flag_removes_block(self):
        schema = ContextSchema(genres=("Drama",), keywords=("war",),
                               include_age=False, genre_components=1,
                               keyword_components=1)
        names = schema.feature_names()
        assert not any(n.startswith("age_") for n in names)

    def test_build_schema_caps_components(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="metahybrid.context"):
            schema = build_schema(item_columns(CATALOG))
        assert schema.genre_components == 2   # only two genres exist
        assert schema.keyword_components == 2
        assert any("components" in m for m in caplog.messages)

    def test_keyword_cap(self):
        catalog = {i: ItemRecord(i, keywords=frozenset({f"k{i}"}),
                                 genres=frozenset({"Drama"}))
                   for i in range(3000)}
        schema = build_schema(item_columns(catalog))
        assert len(schema.keywords) == 2000

    def test_assembled_matrix_matches_names(self):
        schema = self._schema()
        demo = UserRecord(7, gender="M", age_band=25, occupation=3, location="55117")
        raw = extract({7: _events(), 8: [], 9: [(9, 2, 2, MONDAY_20)]},
                      people={7: demo}, schema=schema)
        pca_g, pca_k = fit_histogram_pcas(raw, schema)
        matrix, names = assemble_matrix(raw, pca_g, pca_k, schema)
        assert matrix.shape == (3, len(names))
        cols = {n: j for j, n in enumerate(names)}
        assert matrix[0, cols["n_ratings"]] == 3.0
        assert matrix[0, cols["hour_20"]] == 1.0
        assert matrix[0, cols["dow_1"]] == 1.0
        assert matrix[0, cols["gender_M"]] == 1.0
        assert matrix[0, cols["age_25"]] == 1.0
        assert matrix[0, cols["occupation_3"]] == 1.0
        assert matrix[0, cols["region_5"]] == 1.0
        # unknown demography routes to the trailing unknown columns
        assert matrix[1, cols["gender_unknown"]] == 1.0
        assert matrix[1, cols["age_unknown"]] == 1.0
        assert matrix[1, cols["occupation_unknown"]] == 1.0
        assert matrix[1, cols["region_unknown"]] == 1.0
        # empty slice has no preferred hour or day
        assert matrix[1, [cols[f"hour_{h}"] for h in range(24)]].sum() == 0.0
        assert matrix[1, [cols[f"dow_{d}"] for d in range(7)]].sum() == 0.0

    def test_pca_columns_match_manual_projection(self):
        schema = self._schema()
        raw = extract({7: _events(), 8: [(8, 2, 4, MONDAY_20)], 9: []},
                      schema=schema)
        pca_g, pca_k = fit_histogram_pcas(raw, schema)
        matrix, names = assemble_matrix(raw, pca_g, pca_k, schema)
        g0 = names.index("genre_pc_1")
        for row_idx, h in enumerate(raw["genre_histogram"]):
            expected = transform_pca(pca_g, h)
            assert np.allclose(matrix[row_idx, g0:g0 + 2], expected, atol=1e-12)

    def test_export_round_trips(self):
        rng = np.random.default_rng(3)
        matrix = np.vstack([rng.normal(size=6), [0.0, 1.0, 1 / 3, 1e-300, -2.5e17, 0.1]])
        names = [f"c{j}" for j in range(6)]
        rows = list(csv.reader(matrix_csv(matrix, names, ["u1", "u2"]).splitlines()))
        assert rows[0] == ["user_id"] + names
        assert [r[0] for r in rows[1:]] == ["u1", "u2"]
        back = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
        assert np.array_equal(back, matrix)

    def test_column_order_stable(self):
        schema = self._schema()
        pca_g, pca_k = fit_histogram_pcas(
            extract({7: _events(), 8: _events(8), 9: _events(9)}, schema=schema), schema)
        raw = extract({7: _events()}, schema=schema)
        m1, n1 = assemble_matrix(raw, pca_g, pca_k, schema)
        m2, n2 = assemble_matrix(raw, pca_g, pca_k, schema)
        assert n1 == n2
        assert np.array_equal(m1, m2)


# -- the per-user reference: each user's attributes as dict histograms, and
# the matrix assembled one row at a time, as `build_contexts` built them
# before its batch form

def reference_raw(ratings, catalog, demography=None):
    n = len(ratings)
    hist = np.bincount(ratings.rating - 1, minlength=5) / max(n, 1)
    hours = (ratings.timestamp // 3600 % 24).tolist()
    dows = ((ratings.timestamp // 86400 + 3) % 7).tolist()
    rated = [it for it in map(catalog.get, [r.item_id for r in ratings]) if it is not None]
    genres = [g for it in rated for g in it.genres]
    keywords = [k for it in rated for k in it.keywords]
    years = [it.year for it in rated if it.year is not None]
    runtimes = [it.runtime_minutes for it in rated if it.runtime_minutes is not None]
    genre_hist = {g: c / len(genres) for g, c in Counter(genres).items()}
    kw_hist = {k: c / len(keywords) for k, c in Counter(keywords).items()}
    entropy = -sum(genre_hist[g] * math.log(genre_hist[g])
                   for g in sorted(genre_hist) if genre_hist[g] > 0)
    gender, age, occupation, region = "unknown", None, None, "unknown"
    if demography is not None:
        gender, age, occupation = demography.gender, demography.age_band, demography.occupation
        if demography.location and demography.location[0].isdigit():
            region = demography.location[0]
    return SimpleNamespace(
        n_ratings=n, rating_histogram=hist,
        year_variance=float(np.var(years)) if years else 0.0, genre_entropy=entropy,
        preferred_hour=reference_mode(hours), preferred_dow=reference_mode(dows),
        n_unique_categories=len(genre_hist), genre_histogram=genre_hist,
        keyword_histogram=kw_hist,
        mean_runtime=sum(runtimes) / len(runtimes) if runtimes else 0.0,
        gender=gender, age_band=age, occupation=occupation, location_region=region)


def reference_mode(values):
    if not values:
        return None
    return max(Counter(values).items(), key=lambda kv: (kv[1], -kv[0]))[0]


def histogram_row(hist, vocabulary):
    return np.array([hist.get(key, 0.0) for key in vocabulary], dtype=float)


def reference_pcas(raws, schema):
    genre_m = np.array([histogram_row(r.genre_histogram, schema.genres) for r in raws])
    kw_m = np.array([histogram_row(r.keyword_histogram, schema.keywords) for r in raws])
    return (fit_pca(genre_m, schema.genre_components) if schema.genre_components else None,
            fit_pca(kw_m, schema.keyword_components) if schema.keyword_components else None)


def reference_matrix(raws, pca_genres, pca_keywords, schema):
    def onehot(value, universe, unknown=False):
        row = [1.0 if value == u else 0.0 for u in universe]
        if unknown:
            row.append(0.0 if any(row) else 1.0)
        return row

    def project(pca, hist, vocabulary):
        return ([] if pca is None
                else transform_pca(pca, histogram_row(hist, vocabulary)).tolist())

    rows = []
    for raw in raws:
        values = {
            "n_ratings": [float(raw.n_ratings)],
            "year_variance": [raw.year_variance],
            "genre_entropy": [raw.genre_entropy],
            "n_unique_genres": [float(raw.n_unique_categories)],
            "mean_runtime_norm": [raw.mean_runtime / schema.max_runtime
                                  if schema.max_runtime else 0.0],
            "rating_histogram": raw.rating_histogram.tolist(),
            "preferred_hour": onehot(raw.preferred_hour, range(24)),
            "preferred_dow": onehot(raw.preferred_dow, range(7)),
            "gender": onehot(raw.gender, GENDERS, unknown=True),
            "age": onehot(raw.age_band, schema.age_bands, unknown=True),
            "occupation": onehot(raw.occupation, schema.occupations, unknown=True),
            "region": onehot(raw.location_region, REGIONS, unknown=True),
            "genre_pca": project(pca_genres, raw.genre_histogram, schema.genres),
            "keyword_pca": project(pca_keywords, raw.keyword_histogram, schema.keywords),
        }
        rows.append([v for attribute, _ in schema.blocks() for v in values[attribute]])
    names = schema.feature_names()
    return np.array(rows, dtype=float) if rows else np.zeros((0, len(names)))


def reference_schema(catalog, users, config):
    """`build_schema`'s schema with the genres, keywords and longest runtime
    read from the catalog's records, item by item."""
    genres = tuple(sorted({g for it in catalog.values() for g in it.genres}))
    kw_counts = Counter(k for it in catalog.values() for k in it.keywords)
    top = sorted(kw_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:config.max_keywords]
    schema = build_schema(item_columns(catalog), users, config)
    schema.genres, schema.keywords = genres, tuple(sorted(k for k, _ in top))
    schema.max_runtime = max((it.runtime_minutes for it in catalog.values()
                              if it.runtime_minutes is not None), default=0)
    return schema


def assert_batch_matches_reference(user_ids, inner, dataset, schema, pcas=None):
    """`build_contexts` of `user_ids` equals the per-user reference bit for
    bit (so -0.0 counts), fitting the PCA models when `pcas` is None.
    Returns the PCA models."""
    raws = [reference_raw(inner[uid], dataset.items, dataset.users.get(uid))
            for uid in user_ids]
    expected_pcas = reference_pcas(raws, schema) if pcas is None else pcas
    expected = reference_matrix(raws, *expected_pcas, schema)
    matrix, names, *got_pcas = evaluation.build_contexts(
        user_ids, inner, dataset, schema, *(pcas or (None, None)), fit_pcas=pcas is None)
    assert names == schema.feature_names()
    assert matrix.shape == expected.shape
    assert matrix.tobytes() == expected.tobytes()
    assert pickle.dumps(got_pcas) == pickle.dumps(list(expected_pcas))
    return got_pcas


def assert_split_matches_reference(dataset, config=ContextConfig()):
    """The TRh contexts (fitting the PCA models) and the TEh contexts of a
    nested split of `dataset`, against the reference; the schema against
    one built item by item."""
    split = evaluation.split_step(dataset, SplitPlan(), 7)
    schema = build_schema(dataset.item_columns, dataset.users, config)
    assert pickle.dumps(schema) == pickle.dumps(
        reference_schema(dataset.items, dataset.users, config))
    pcas = assert_batch_matches_reference(split.train_users, split.train_inner_train,
                                          dataset, schema)
    assert_batch_matches_reference(split.test_users, split.test_inner_train, dataset,
                                   schema, pcas)
    # one user at a time, as a served request builds it
    for uid in split.test_users[:5]:
        assert_batch_matches_reference([uid], split.test_inner_train, dataset, schema, pcas)


def _crafted_catalog():
    items = {
        1: ItemRecord(1, year=1990, genres=frozenset({"Drama"}),
                      keywords=frozenset({"war", "spy"}), runtime_minutes=100),
        2: ItemRecord(2, year=2000, genres=frozenset({"Drama", "Comedy"}),
                      keywords=frozenset({"war", "love"}), runtime_minutes=200),
        # no year and no runtime; its keyword falls outside a 2-keyword vocabulary
        3: ItemRecord(3, genres=frozenset({"Horror"}), keywords=frozenset({"rare"})),
        4: ItemRecord(4, year=1931, genres=frozenset({"Drama"}), runtime_minutes=97),
    }
    for k in range(5, 20):  # irregular years, so the variance sums have low bits
        items[k] = ItemRecord(k, year=1900 + (k * 37) % 101,
                              genres=frozenset(g for j, g in enumerate(
                                  ("Comedy", "Horror", "War", "Musical")) if k >> j & 1),
                              keywords=frozenset({"love"} if k % 4 else {"war", f"k{k}"}),
                              runtime_minutes=60 + (k * 53) % 120)
    # 14 Comedy items, 1 Horror, 22 War: np.log(14 / 37) is not math.log's,
    # and an entropy summed from np.log's terms differs in the last bit
    for k in range(20, 57):
        genre = "Comedy" if k < 34 else "Horror" if k == 34 else "War"
        items[k] = ItemRecord(k, year=1950 + k, genres=frozenset({genre}))
    return items


class TestPerUserReference:
    """`build_contexts` of a whole user list equals the per-user reference."""

    def test_shipped_fixture(self):
        dataset = enrich_items(
            load_movielens(*(os.path.join(ROOT, "fixtures", f)
                             for f in ("ratings.dat", "users.dat", "movies.dat"))),
            os.path.join(ROOT, "fixtures", "metadata.csv"))
        assert_split_matches_reference(dataset)

    def test_generated_dataset(self):
        assert_split_matches_reference(make_fixture(300, 400, seed=5))

    def test_crafted_users(self):
        def ev(user, item, k):
            return (user, item, 1 + k % 5, MONDAY_20 + k * 4_000 + user * 7_919)

        histories = {
            1: [],                                                 # empty slice
            2: [ev(2, 1, 0), ev(2, 4, 1)],                         # one genre: entropy -0.0
            3: [ev(3, 3, 0)],                                      # no year, no runtime
            4: [ev(4, 3, 0), ev(4, 2, 1), ev(4, 1, 2)],            # keywords outside
            5: [ev(5, item, k) for k, item in enumerate(range(5, 19))],  # 14 dated ratings
            6: [ev(6, 99, 0), ev(6, 2, 1)],                        # item 99 has no features
            7: [ev(7, item, k) for k, item in enumerate((19, 2, 3, 5, 6, 7, 8, 9, 1))],
            8: [ev(8, item, k) for k, item in enumerate(range(20, 57))],  # see the catalog
        }
        catalog = {**_crafted_catalog(), 99: ItemRecord(99)}
        people = {2: UserRecord(2, gender="F", age_band=25, occupation=4, location="48067"),
                  3: UserRecord(3, gender="M", age_band=33, occupation=99, location="A1B"),
                  4: UserRecord(4, location="")}
        inner = slice_of(histories, sorted(catalog))
        dataset = Dataset(inner.rows, catalog, people)
        config = ContextConfig(max_keywords=2, genre_components=3, keyword_components=2)
        schema = build_schema(item_columns(catalog), people, config)
        assert "rare" not in schema.keywords and len(schema.keywords) == 2
        pcas = assert_batch_matches_reference(list(histories), inner, dataset, schema)
        raw = extract_raw(list(histories), inner, dataset, schema)
        entropy = raw["genre_entropy"]
        assert (math.copysign(1, entropy[0]), math.copysign(1, entropy[1])) == (1, -1)
        # in another order, and each user alone
        assert_batch_matches_reference(list(histories)[::-1], inner, dataset, schema, pcas)
        for uid in histories:
            assert_batch_matches_reference([uid], inner, dataset, schema, pcas)
        matrix, names, _, _ = evaluation.build_contexts([], inner, dataset, schema, *pcas)
        assert matrix.shape == (0, len(names))
        # a vocabulary that is not the catalog's: a genre it lacks, one it adds
        other = replace(schema, genres=("Comedy", "Noir", "War"), genre_components=2)
        assert_batch_matches_reference(list(histories), inner, dataset, other)

    def test_generic_csv_without_genres(self, tmp_path):
        path = tmp_path / "ratings.csv"
        lines = ["user,item,rating,timestamp"]
        for u in range(1, 16):
            lines += [f"u{u},i{(u * k) % 23},{1 + (u + k) % 5},{978300000 + u * 5000 + k * 3600}"
                      for k in range(1, 4 + u % 6)]
        path.write_text("\n".join(lines) + "\n")
        dataset = load_generic_ratings(path)
        assert not dataset.item_columns.cols.size
        assert_split_matches_reference(dataset)
