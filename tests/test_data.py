import pickle

import pytest

from metahybrid import data
from metahybrid.data import (
    Dataset,
    IngestError,
    ItemRecord,
    RatingEvent,
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
    with pytest.raises(IngestError, match="missing file"):
        load_movielens(tiny_movielens / "nope.dat", tiny_movielens / "users.dat",
                       tiny_movielens / "movies.dat")


def test_malformed_line_names_line_number(tmp_path, tiny_movielens):
    bad = tmp_path / "ratings.dat"
    bad.write_text("1::1193::5::978300760\n1::661::broken\n")
    with pytest.raises(IngestError, match="ratings.dat:2"):
        load_movielens(bad, tiny_movielens / "users.dat", tiny_movielens / "movies.dat")


def test_rating_out_of_range_rejected():
    with pytest.raises(ValueError):
        RatingEvent(user_id=1, item_id=1, rating=6, timestamp=10)
    with pytest.raises(ValueError):
        RatingEvent(user_id=1, item_id=1, rating=3, timestamp=0)


def test_referential_integrity_enforced():
    with pytest.raises(IngestError, match="unknown item"):
        Dataset(ratings=[RatingEvent(1, 99, 3, 5)],
                items={1: ItemRecord(item_id=1)},
                users={1: UserRecord(user_id=1)})


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


@pytest.mark.parametrize("row", ["u1,i2,four,200", "u1,i2"], ids=["bad-rating", "short"])
def test_generic_csv_malformed_row_names_line_number(tmp_path, row):
    p = tmp_path / "ratings.csv"
    p.write_text(f"user,item,rating,timestamp\nu1,i1,4,100\n{row}\nu2,i1,5,50\n")
    with pytest.raises(IngestError, match="ratings.csv:3"):
        load_generic_ratings(p)


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
            assert kept == full[:m]

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
        ratings = [RatingEvent(u, i, 3, i) for u, c in counts.items()
                   for i in range(1, c + 1)]
        return Dataset(ratings=ratings, items=items, users=users)

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


def test_item_record_pickle_roundtrip():
    item = ItemRecord(3, title="t", genres=frozenset({"Drama", "Comedy"}),
                      keywords=frozenset({"k2", "k1"}))
    state = item.__getstate__()
    assert state["genres"] == ("Comedy", "Drama") and state["keywords"] == ("k1", "k2")
    back = pickle.loads(pickle.dumps(item))
    assert back == item
    assert type(back.genres) is frozenset and type(back.keywords) is frozenset
