import os
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import columns
from metahybrid import data
from metahybrid.data import (
    Dataset,
    IngestError,
    ItemRecord,
    Ratings,
    UserRecord,
    enrich_items,
    filter_min_ratings,
    induce_cold_start,
    load_generic_ratings,
    load_movielens,
)


def same_records(a, b):
    """The same ratings, items and users, whatever the provenance."""
    return (a.ratings, a.items, a.users) == (b.ratings, b.items, b.users)


def test_rating_line_maps_to_event(tiny_movielens):
    ds = load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                        tiny_movielens / "movies.dat")
    ev = [r for r in ds.ratings if r.user_id == 1 and r.item_id == 1193][0]
    assert ev.rating == 5
    assert ev.timestamp == 978300760


def test_fixture_counts(tiny_movielens):
    ds = load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                        tiny_movielens / "movies.dat")
    assert len(ds.ratings) == 10
    assert len(ds.users) == 3
    assert len(ds.items) == 4


def test_title_year_parsing(tiny_movielens):
    ds = load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                        tiny_movielens / "movies.dat")
    assert ds.items[914].title == "My Fair Lady"
    assert ds.items[914].year == 1964
    assert ds.items[661].genres == {"Animation", "Children's", "Musical"}


def test_missing_file_fails(tiny_movielens):
    with pytest.raises(IngestError, match="cannot read .*nope.dat: No such file or directory"):
        load_movielens(tiny_movielens / "nope.dat", tiny_movielens / "users.dat",
                       tiny_movielens / "movies.dat")


def test_missing_generic_file_fails(tmp_path):
    with pytest.raises(IngestError, match="cannot read .*nope.csv: No such file or directory"):
        load_generic_ratings(tmp_path / "nope.csv")


@pytest.mark.parametrize("role", ["ratings_path", "users_path", "items_path", "metadata",
                                  "generic"])
def test_directory_input_fails(tiny_movielens, tmp_path, role):
    paths = {"ratings_path": tiny_movielens / "ratings.dat",
             "users_path": tiny_movielens / "users.dat",
             "items_path": tiny_movielens / "movies.dat"}
    with pytest.raises(IngestError, match=f"cannot read {re.escape(str(tmp_path))}: Is a directory"):
        if role == "metadata":
            enrich_items(load_movielens(**paths), tmp_path)
        elif role == "generic":
            load_generic_ratings(tmp_path)
        else:
            load_movielens(**{**paths, role: tmp_path})


def test_malformed_line_names_line_number(tmp_path, tiny_movielens):
    bad = tmp_path / "ratings.dat"
    bad.write_text("1::1193::5::978300760\n1::661::broken\n")
    with pytest.raises(IngestError, match="ratings.dat:2"):
        load_movielens(bad, tiny_movielens / "users.dat", tiny_movielens / "movies.dat")


@pytest.mark.parametrize("loader", ["movielens", "generic"])
@pytest.mark.parametrize("rating, timestamp, message", [
    (0, 10, "rating must be in 1..5, got 0"),
    (6, 10, "rating must be in 1..5, got 6"),
    (3, 0, "timestamp must be in 1..2**63-1, got 0"),
    (3, 2 ** 63, f"timestamp must be in 1..2**63-1, got {2 ** 63}"),
], ids=["rating-0", "rating-6", "timestamp-0", "timestamp-2**63"])
def test_rating_out_of_range_names_line(tmp_path, tiny_movielens, loader, rating, timestamp,
                                        message):
    # line 2 holds the bad value, with a good line before and after it
    if loader == "movielens":
        path = tmp_path / "ratings.dat"
        path.write_text(f"1::1193::5::978300760\n1::661::{rating}::{timestamp}\n"
                        "2::914::4::978299800\n")
    else:
        path = tmp_path / "ratings.csv"
        path.write_text(f"user,item,rating,timestamp\nu1,i1,{rating},{timestamp}\n"
                        "u1,i2,4,100\n")
    with pytest.raises(IngestError, match=re.escape(f"{path.name}:2: {message}")):
        if loader == "movielens":
            load_movielens(path, tiny_movielens / "users.dat", tiny_movielens / "movies.dat")
        else:
            load_generic_ratings(path)


def test_referential_integrity_enforced():
    with pytest.raises(IngestError, match="unknown item"):
        Dataset.from_columns([1], [99], [3], [5], items={1: ItemRecord(item_id=1)},
                             users={1: UserRecord(user_id=1)})


def test_unknown_user_rejected():
    with pytest.raises(IngestError, match="unknown user 2"):
        Dataset.from_columns([1, 2], [1, 1], [3, 4], [5, 6], items={1: ItemRecord(item_id=1)},
                             users={1: UserRecord(user_id=1)})


def test_ratings_encoded_in_canonical_order(tiny_movielens):
    # by user, then timestamp, then item; codes index the sorted id tables
    ds = load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                        tiny_movielens / "movies.dat")
    rows = ds.ratings
    assert rows.user_ids == [1, 2, 3] and rows.item_ids == [661, 914, 1193, 3408]
    keys = [(r.user_id, r.timestamp, r.item_id) for r in rows]
    assert keys == sorted(keys)
    assert [rows.item_ids[j] for j in rows.item[:2].tolist()] == [3408, 1193]
    # a derived dataset takes the columns as they are, or a row subset of them
    out = enrich_items(ds, tiny_movielens / "metadata.csv")
    assert out.ratings is ds.ratings
    assert filter_min_ratings(ds, 4).ratings == rows.take(slice(0, 4))


def test_movielens_pair_rated_twice_rejected(tmp_path, tiny_movielens):
    ratings = tmp_path / "ratings.dat"
    ratings.write_text("1::1193::5::978300760\n1::661::3::978302109\n1::1193::4::978300800\n")
    with pytest.raises(IngestError, match="user 1 rated item 1193 twice"):
        load_movielens(ratings, tiny_movielens / "users.dat", tiny_movielens / "movies.dat")


def test_generic_csv_pair_rated_twice_rejected(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text("user,item,rating,timestamp\nu1,i1,4,100\nu2,i1,5,50\nu1,i1,2,300\n")
    with pytest.raises(IngestError, match="user 'u1' rated item 'i1' twice"):
        load_generic_ratings(p)


def test_generic_csv_loader(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text("user,item,rating,timestamp\nu1,i1,4,100\nu1,i2,2,200\nu2,i1,5,50\n")
    ds = load_generic_ratings(p)
    assert len(ds.ratings) == 3
    assert "u1" in ds.users and "i2" in ds.items


@pytest.mark.parametrize("rows, message", [
    ("1,10,4,100\nu2,10,3,200\n", r"user ids mix types: 1 \(int\), 'u2' \(str\)"),
    ("1,10,4,100\n1,i2,3,200\n", r"item ids mix types: 10 \(int\), 'i2' \(str\)"),
], ids=["user-ids", "item-ids"])
def test_generic_csv_mixed_id_types_rejected(tmp_path, rows, message):
    # int and str ids do not sort, and the dataset and every model sort them
    p = tmp_path / "ratings.csv"
    p.write_text("user,item,rating,timestamp\n" + rows)
    with pytest.raises(IngestError, match=message):
        load_generic_ratings(p)


@pytest.mark.parametrize("row", ["u1,i2,four,200", "u1,i2", "u1,i2,4,200,9"],
                         ids=["bad-rating", "short", "long"])
def test_generic_csv_malformed_row_names_line_number(tmp_path, row):
    p = tmp_path / "ratings.csv"
    p.write_text(f"user,item,rating,timestamp\nu1,i1,4,100\n{row}\nu2,i1,5,50\n")
    with pytest.raises(IngestError, match="ratings.csv:3"):
        load_generic_ratings(p)


@pytest.mark.parametrize("lines, message", [
    ("1::661::9::978302109\n1::914::x::978301968\n", "ratings.dat:2: rating must be in 1..5"),
    ("1::661::x::978302109\n1::914::9::978301968\n", "ratings.dat:2: invalid literal"),
], ids=["range-then-parse", "parse-then-range"])
def test_first_bad_line_named(tmp_path, tiny_movielens, lines, message):
    # a value out of range and a value that is no integer: the earlier line is named
    path = tmp_path / "ratings.dat"
    path.write_text("1::1193::5::978300760\n" + lines)
    with pytest.raises(IngestError, match=re.escape(message)):
        load_movielens(path, tiny_movielens / "users.dat", tiny_movielens / "movies.dat")


def test_generic_csv_line_numbers_count_blank_lines(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text("user,item,rating,timestamp\nu1,i1,4,100\n\nu1,i2,four,200\n")
    with pytest.raises(IngestError, match="ratings.csv:4"):
        load_generic_ratings(p)


def test_fixture_files_regenerate(tmp_path):
    # metadata.csv is left out: the shipped file carries older extra columns
    from metahybrid.fixtures import make_fixture, write_movielens_files
    write_movielens_files(make_fixture(), tmp_path)
    shipped = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "fixtures")
    for name in ("ratings.dat", "users.dat", "movies.dat"):
        with open(os.path.join(shipped, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def test_generic_csv_header_checked(tmp_path):
    p = tmp_path / "ratings.csv"
    p.write_text("userId,movieId,rating,ts\n1,1,4,100\n")
    with pytest.raises(IngestError, match="header"):
        load_generic_ratings(p)


class TestEnrichment:
    def test_keywords_added(self, tiny_movielens):
        ds = load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                            tiny_movielens / "movies.dat")
        out = enrich_items(ds, tiny_movielens / "metadata.csv")
        assert len(out.items[1193].keywords) == 4
        assert out.items[1193].runtime_minutes == 133

    def test_title_year_fallback(self, tiny_movielens):
        ds = load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                            tiny_movielens / "movies.dat")
        out = enrich_items(ds, tiny_movielens / "metadata.csv")
        # the second metadata row has no item_id; matched by (title, year)
        assert out.items[914].keywords == {"musical", "class"}

    def test_unmatched_items_keep_base_fields(self, tiny_movielens):
        ds = load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                            tiny_movielens / "movies.dat")
        out = enrich_items(ds, tiny_movielens / "metadata.csv")
        assert out.items[661].keywords == frozenset()
        assert out.items[661].runtime_minutes is None
        assert out.items[661].genres == ds.items[661].genres

    def test_full_id_match_rate(self, small_dataset, tmp_path):
        from metahybrid.fixtures import write_movielens_files
        write_movielens_files(small_dataset, tmp_path)
        ds = load_movielens(tmp_path / "ratings.dat", tmp_path / "users.dat",
                            tmp_path / "movies.dat")
        out = enrich_items(ds, tmp_path / "metadata.csv")
        assert all(out.items[i].keywords for i in out.items)

    def test_malformed_metadata_fails(self, tiny_movielens, tmp_path):
        ds = load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                            tiny_movielens / "movies.dat")
        bad = tmp_path / "meta.csv"
        bad.write_text("id,name\n1,foo\n")
        with pytest.raises(IngestError, match="header"):
            enrich_items(ds, bad)


class TestColdStart:
    def test_prefix_kept_chronologically(self, small_dataset):
        out = induce_cold_start(small_dataset, seed=7, min_keep=5, max_keep=100)
        by_user_in = small_dataset.ratings_by_user()
        by_user_out = out.ratings_by_user()
        for uid, kept in by_user_out.items():
            full = by_user_in[uid]
            m = len(kept)
            assert 5 <= m <= len(full)
            assert kept == full.take(slice(0, m))

    def test_identity_when_bounds_cover_everything(self, small_dataset):
        counts = {u: len(evs) for u, evs in small_dataset.ratings_by_user().items()}
        n = max(counts.values())
        out = induce_cold_start(small_dataset, seed=1, min_keep=n, max_keep=n)
        assert same_records(out, small_dataset)  # the provenance differs

    def test_deterministic_replay(self, small_dataset):
        a = induce_cold_start(small_dataset, seed=42, min_keep=5)
        b = induce_cold_start(small_dataset, seed=42, min_keep=5)
        assert a == b

    def test_never_increases_counts_and_preserves_events(self, small_dataset):
        out = induce_cold_start(small_dataset, seed=3, min_keep=5, max_keep=20)
        original = {(r.user_id, r.item_id): r for r in small_dataset.ratings}
        for r in out.ratings:
            o = original[(r.user_id, r.item_id)]
            assert r.rating == o.rating and r.timestamp == o.timestamp
        cin = {u: len(e) for u, e in small_dataset.ratings_by_user().items()}
        cout = {u: len(e) for u, e in out.ratings_by_user().items()}
        assert all(cout[u] <= cin[u] for u in cout)

    def test_users_below_min_keep_untouched(self, tiny_movielens):
        ds = load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                            tiny_movielens / "movies.dat")
        out = induce_cold_start(ds, seed=1, min_keep=10)
        assert len(out.ratings) == len(ds.ratings)

    def test_invalid_bounds(self, small_dataset):
        with pytest.raises(ValueError):
            induce_cold_start(small_dataset, seed=1, min_keep=0)
        with pytest.raises(ValueError):
            induce_cold_start(small_dataset, seed=1, min_keep=5, max_keep=4)


class TestMinRatingsFilter:
    def _ds(self, counts):
        users = {u: UserRecord(user_id=u) for u in counts}
        items = {i: ItemRecord(item_id=i) for i in range(1, max(counts.values()) + 1)}
        ratings = [(u, i, 3, i) for u, c in counts.items() for i in range(1, c + 1)]
        return Dataset.from_columns(*columns(ratings), items=items, users=users)

    def test_threshold(self):
        ds = self._ds({1: 25, 2: 19, 3: 20})
        out = filter_min_ratings(ds, 20)
        assert set(out.users) == {1, 3}
        assert all(r.user_id in (1, 3) for r in out.ratings)

    def test_zero_is_identity(self):
        ds = self._ds({1: 5, 2: 3})
        out = filter_min_ratings(ds, 0)
        assert same_records(out, ds)

    def test_items_retained_by_default(self):
        ds = self._ds({1: 25, 2: 2})
        out = filter_min_ratings(ds, 20)
        assert set(out.items) == set(ds.items)


def test_genre_coverage_warning(tiny_movielens, caplog):
    import logging
    (tiny_movielens / "movies2.dat").write_text(
        "1193::A (1975)::Drama\n661::B (1996)::\n914::C (1964)::\n3408::D (2000)::\n")
    with caplog.at_level(logging.WARNING, logger="metahybrid.data"):
        load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                       tiny_movielens / "movies2.dat")
    assert any("genres" in m for m in caplog.messages)


def test_item_columns_encode_the_catalog(tiny_movielens):
    ds = enrich_items(load_movielens(tiny_movielens / "ratings.dat",
                                     tiny_movielens / "users.dat",
                                     tiny_movielens / "movies.dat"),
                      tiny_movielens / "metadata.csv")
    blob = pickle.dumps(ds)
    columns = ds.item_columns
    assert columns is ds.item_columns  # built once
    assert pickle.dumps(ds) == blob    # and left out of the pickle
    assert columns.item_ids == [661, 914, 1193, 3408]
    assert columns.genres == ("Animation", "Children's", "Drama", "Musical", "Romance")
    assert columns.keywords == ("asylum", "class", "mental illness", "musical", "nurse",
                                "rebellion")
    assert columns.ptr.tolist() == [0, 3, 7, 12, 13]
    assert columns.cols.tolist() == [0, 1, 3, 3, 4, 6, 8, 2, 5, 7, 9, 10, 2]
    assert (columns.ptr.dtype, columns.cols.dtype) == (np.int64, np.int32)
    assert columns.year.tolist() == [1996, 1964, 1975, 2000]
    assert np.isnan(columns.runtime[[0, 3]]).all() and columns.runtime[[1, 2]].tolist() == [
        170, 133]
    # genre positions among the genres, keyword positions after them, -1 elsewhere
    assert columns.positions(("Drama",), ("class", "zzz")).tolist() == [
        -1, -1, 0, -1, -1, -1, 1, -1, -1, -1, -1]


def test_item_record_pickle_roundtrip():
    item = ItemRecord(3, title="t", genres=frozenset({"Drama", "Comedy"}),
                      keywords=frozenset({"k2", "k1"}))
    state = item.__getstate__()
    assert state["genres"] == ("Comedy", "Drama") and state["keywords"] == ("k1", "k2")
    back = pickle.loads(pickle.dumps(item))
    assert back == item
    assert type(back.genres) is frozenset and type(back.keywords) is frozenset


def test_dataset_pickles_row_counts_not_the_user_column(tiny_movielens):
    full = load_movielens(tiny_movielens / "ratings.dat", tiny_movielens / "users.dat",
                          tiny_movielens / "movies.dat")
    # users 2 and 3 drop out, and the id table keeps them without rows
    ds = filter_min_ratings(full, 4)
    state = ds.__getstate__()
    assert "user" not in state and "ratings" not in state
    assert state["user_rows"].tolist() == [4, 0, 0] and state["user_rows"].dtype == np.int32
    blob = pickle.dumps(ds)
    back = pickle.loads(blob)
    assert same_records(back, ds) and back.ratings.user.dtype == np.int32
    assert pickle.dumps(back) == blob
    # rows out of user order have no row counts to stand for their user column
    backwards = Dataset(full.ratings.take(slice(None, None, -1)), full.items, full.users)
    with pytest.raises(ValueError, match="user order"):
        pickle.dumps(backwards)


SLICES = ("train_inner_train", "train_inner_test", "test_inner_train", "test_inner_test")


@pytest.fixture(scope="module")
def fixture_artifacts(tmp_path_factory):
    """The shipped fixture's dataset.pkl and split.pkl, as the ingest and
    split stages write them, and the objects loaded from them."""
    from metahybrid import pipeline
    from metahybrid.config import load_config

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path_factory.mktemp("fixture_out")
    cfg = load_config(os.path.join(root, "fixtures", "fixture.cfg"),
                      {"output_dir": str(out)})
    cfg = replace(cfg, **{k: os.path.join(root, getattr(cfg, k)) for k in (
        "ratings_path", "users_path", "items_path", "metadata_path")})
    store = pipeline.ArtifactStore(str(out))
    pipeline.stage_ingest(cfg, store)
    pipeline.stage_split(cfg, store)
    return [pickle.loads((out / name).read_bytes())["payload"]
            for name in ("dataset.pkl", "split.pkl")]


def test_fixture_pickles_hold_uint32_timestamps(fixture_artifacts):
    dataset, split = fixture_artifacts
    assert dataset.__getstate__()["timestamp"].dtype == np.uint32
    for name in SLICES:
        assert getattr(split, name).__getstate__()["timestamp"].dtype == np.uint32, name


def test_fixture_pickles_hold_uint16_item_codes(fixture_artifacts):
    dataset, split = fixture_artifacts
    assert len(dataset.items) == 500
    assert dataset.__getstate__()["item"].dtype == np.uint16
    for name in SLICES:
        assert getattr(split, name).__getstate__()["item"].dtype == np.uint16, name
    columns = [dataset.ratings.item] + [getattr(split, n).rows.item for n in SLICES]
    assert [c.dtype for c in columns] == [np.int32] * len(columns)


def test_item_codes_above_2_to_16_round_trip():
    codes = np.array([0, 70_000, 65_535, 65_536], dtype=np.int32)
    ratings = Ratings(["u"], list(range(70_001)), np.zeros(4, dtype=np.int32), codes,
                      np.full(4, 3, dtype=np.int8), np.arange(1, 5, dtype=np.int64))
    ds = Dataset(ratings, {}, {})
    assert ds.__getstate__()["item"].dtype == np.uint32
    blob = pickle.dumps(ds)
    back = pickle.loads(blob)
    assert back.ratings == ratings and back.ratings.item.dtype == np.int32
    assert pickle.dumps(back) == blob
    by_user = ds.ratings_by_user()
    back = pickle.loads(pickle.dumps(by_user))
    assert back.rows == by_user.rows and back.rows.item.dtype == np.int32


def test_timestamps_at_or_above_2_to_32_round_trip(tmp_path):
    stamps = [2 ** 32, 2 ** 40 + 1, 5, 2 ** 63 - 1]
    path = tmp_path / "ratings.csv"
    path.write_text("user,item,rating,timestamp\n" + "".join(
        f"u{k % 2},i{k},4,{t}\n" for k, t in enumerate(stamps)))
    ds = load_generic_ratings(path)
    assert sorted(ds.ratings.timestamp.tolist()) == sorted(stamps)
    assert ds.__getstate__()["timestamp"].dtype == np.uint64
    back = pickle.loads(pickle.dumps(ds))
    assert back.ratings == ds.ratings and back.ratings.timestamp.dtype == np.int64
    by_user = ds.ratings_by_user()
    back = pickle.loads(pickle.dumps(by_user))
    assert back.rows == by_user.rows and back.rows.timestamp.dtype == np.int64


def test_loaded_timestamp_columns_are_int64(fixture_artifacts):
    dataset, split = fixture_artifacts
    columns = [dataset.ratings.timestamp] + [getattr(split, n).rows.timestamp for n in SLICES]
    assert [c.dtype for c in columns] == [np.int64] * len(columns)
    # as iterated events, plain ints
    assert {type(r.timestamp) for r in getattr(split, SLICES[0])[split.train_users[0]]} == {int}
