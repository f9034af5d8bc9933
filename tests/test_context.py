import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from metahybrid.context import (
    ContextSchema,
    assemble_matrix,
    build_schema,
    export_matrix,
    extract_raw,
    fit_histogram_pcas,
    fit_pca,
    histogram_row,
    transform_pca,
)
from metahybrid.data import ItemRecord, RatingEvent, UserRecord

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


def _ratings():
    return [RatingEvent(7, 1, 5, TUESDAY_20), RatingEvent(7, 2, 5, TUESDAY_09),
            RatingEvent(7, 1, 5, MONDAY_20)]


class TestExtractRaw:
    def test_rating_histogram(self):
        raw = extract_raw(7, _ratings(), CATALOG)
        assert raw.n_ratings == 3
        assert np.allclose(raw.rating_histogram, [0, 0, 0, 0, 1])

    def test_genre_histogram_and_entropy(self):
        # occurrences: Drama 3 (items 1,1,2), Comedy 1 -> fractions 3/4, 1/4
        raw = extract_raw(7, _ratings(), CATALOG)
        assert raw.genre_histogram == pytest.approx({"Drama": 0.75, "Comedy": 0.25})
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert raw.genre_entropy == pytest.approx(expected, abs=1e-12)
        assert raw.n_unique_categories == 2

    def test_two_thirds_entropy_hand_value(self):
        events = [RatingEvent(7, 1, 4, MONDAY_20), RatingEvent(7, 1, 4, TUESDAY_20)]
        cat = {1: ItemRecord(1, genres=frozenset({"Drama"})),
               2: ItemRecord(2, genres=frozenset({"Comedy"}))}
        events.append(RatingEvent(7, 2, 4, TUESDAY_09))
        raw = extract_raw(7, events, cat)
        # Drama 2/3, Comedy 1/3: ln 3 - (2/3) ln 2 = 0.6365... nats
        assert raw.genre_entropy == pytest.approx(0.636514168, abs=1e-8)

    def test_preferred_hour_and_day(self):
        raw = extract_raw(7, _ratings(), CATALOG)
        assert raw.preferred_hour == 20   # 20:00 twice, 09:00 once
        assert raw.preferred_dow == 1     # Tuesday twice, Monday once

    def test_mode_tie_prefers_smaller_value(self):
        events = [RatingEvent(7, 1, 3, MONDAY_20), RatingEvent(7, 2, 3, TUESDAY_20)]
        raw = extract_raw(7, events, CATALOG)
        assert raw.preferred_dow == 0

    def test_year_variance_and_runtime(self):
        raw = extract_raw(7, _ratings(), CATALOG)
        assert raw.year_variance == pytest.approx(np.var([1990, 2000, 1990]))
        assert raw.mean_runtime_norm == pytest.approx((100 + 200 + 100) / 3 / 200)

    def test_empty_slice_zero_profile(self):
        raw = extract_raw(7, [], CATALOG)
        assert raw.n_ratings == 0
        assert np.allclose(raw.rating_histogram, 0)
        assert raw.preferred_hour is None and raw.preferred_dow is None
        assert raw.genre_histogram == {} and raw.genre_entropy == 0.0
        assert raw.year_variance == 0.0 and raw.mean_runtime_norm == 0.0

    def test_demography_passthrough(self):
        demo = UserRecord(7, gender="F", age_band=25, occupation=4, location="48067")
        raw = extract_raw(7, [], CATALOG, demo)
        assert (raw.gender, raw.age_band, raw.occupation) == ("F", 25, 4)
        assert raw.location_region == "4"

    def test_foreign_rating_rejected(self):
        with pytest.raises(ValueError, match="foreign user"):
            extract_raw(7, [RatingEvent(8, 1, 3, MONDAY_20)], CATALOG)

    def test_entropy_independent_of_hash_seed(self):
        # the shipped fixture's users, each in a fresh interpreter per seed
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = (
            "import os\n"
            "from metahybrid.context import extract_raw\n"
            "from metahybrid.data import load_movielens\n"
            "ds = load_movielens(*(os.path.join('fixtures', f) for f in "
            "('ratings.dat', 'users.dat', 'movies.dat')))\n"
            "for uid, evs in sorted(ds.ratings_by_user().items()):\n"
            "    print(uid, extract_raw(uid, evs, ds.items).genre_entropy.hex())\n")
        outputs = []
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([os.path.join(root, "src")] + sys.path))
            outputs.append(subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                                          check=True, capture_output=True, text=True).stdout)
        assert outputs[0].count("\n") == 200
        assert outputs[0] == outputs[1] == outputs[2]

    def test_duplicate_slice_scales_counts_only(self):
        # doubling the multiset doubles n_ratings but leaves fractions alone
        once = extract_raw(7, _ratings(), CATALOG)
        twice = extract_raw(7, _ratings() + _ratings(), CATALOG)
        assert twice.n_ratings == 2 * once.n_ratings
        assert np.allclose(twice.rating_histogram, once.rating_histogram)
        assert twice.genre_histogram == pytest.approx(once.genre_histogram)
        assert twice.genre_entropy == pytest.approx(once.genre_entropy)


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
            schema = build_schema(CATALOG)
        assert schema.genre_components == 2   # only two genres exist
        assert schema.keyword_components == 2
        assert any("components" in m for m in caplog.messages)

    def test_keyword_cap(self):
        catalog = {i: ItemRecord(i, keywords=frozenset({f"k{i}"}),
                                 genres=frozenset({"Drama"}))
                   for i in range(3000)}
        schema = build_schema(catalog)
        assert len(schema.keywords) == 2000

    def test_assembled_matrix_matches_names(self):
        schema = self._schema()
        demo = UserRecord(7, gender="M", age_band=25, occupation=3, location="55117")
        raws = [extract_raw(7, _ratings(), CATALOG, demo),
                extract_raw(8, [], CATALOG),
                extract_raw(9, [RatingEvent(9, 2, 2, MONDAY_20)], CATALOG)]
        pca_g, pca_k = fit_histogram_pcas(raws, schema)
        matrix, names = assemble_matrix(raws, pca_g, pca_k, schema)
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
        raws = [extract_raw(7, _ratings(), CATALOG),
                extract_raw(8, [RatingEvent(8, 2, 4, MONDAY_20)], CATALOG),
                extract_raw(9, [], CATALOG)]
        pca_g, pca_k = fit_histogram_pcas(raws, schema)
        matrix, names = assemble_matrix(raws, pca_g, pca_k, schema)
        g0 = names.index("genre_pc_1")
        for row_idx, raw in enumerate(raws):
            h = histogram_row(raw.genre_histogram, schema.genres)
            expected = transform_pca(pca_g, h)
            assert np.allclose(matrix[row_idx, g0:g0 + 2], expected, atol=1e-12)

    def test_export_round_trips(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = np.vstack([rng.normal(size=6), [0.0, 1.0, 1 / 3, 1e-300, -2.5e17, 0.1]])
        names = [f"c{j}" for j in range(6)]
        path = tmp_path / "contexts.csv"
        export_matrix(path, matrix, names, ["u1", "u2"])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["user_id"] + names
        assert [r[0] for r in rows[1:]] == ["u1", "u2"]
        back = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
        assert np.array_equal(back, matrix)

    def test_column_order_stable(self):
        schema = self._schema()
        raws = [extract_raw(7, _ratings(), CATALOG)]
        pca_g, pca_k = fit_histogram_pcas(raws * 3, schema)
        m1, n1 = assemble_matrix(raws, pca_g, pca_k, schema)
        m2, n2 = assemble_matrix(raws, pca_g, pca_k, schema)
        assert n1 == n2
        assert np.array_equal(m1, m2)
