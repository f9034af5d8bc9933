"""Dataset ingestion and preparation.

Loads MovieLens-format ratings/users/movies files (and a generic CSV
ratings layout), enriches the item catalog from an external metadata file,
and applies the cold-start induction and minimum-activity filters used by
the experiment pipeline.
"""

from __future__ import annotations

import csv
import logging
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)


def format_float(value) -> str:
    """A float as a CSV cell: the shortest repr that reads back to the same
    double. numpy scalars are converted first; their own repr is not a number."""
    return repr(float(value))


def built_state(state: dict) -> dict:
    """An unpickled `__setstate__` state as a built object holds it, so that
    a loaded object pickles to the bytes of a built one: the pickle memo
    writes an object it met before as a reference. Attribute names are
    interned, as a plain load interns them, and each numeric array is a
    view with its dtype's builtin instance, where an unpickled array
    carries its own copy of its dtype."""
    return {sys.intern(k): _built(v) for k, v in state.items()}


def _built(value):
    if isinstance(value, np.ndarray) and value.dtype.kind in "biuf":
        return value.view(value.dtype.type)
    return value


class IngestError(Exception):
    """Raised when an input file is missing or malformed beyond tolerance."""


class RatingEvent(NamedTuple):
    """One row of `Ratings`, as iterating it yields."""
    user_id: int | str
    item_id: int | str
    rating: int
    timestamp: int


@dataclass
class ItemRecord:
    item_id: int | str
    title: str = ""
    year: int | None = None
    genres: frozenset = frozenset()
    keywords: frozenset = frozenset()
    runtime_minutes: int | None = None

    # a frozenset of strings pickles in string-hash order; sorted tuples
    # keep dataset.pkl the same bytes under every PYTHONHASHSEED
    def __getstate__(self):
        return {**self.__dict__, "genres": tuple(sorted(self.genres)),
                "keywords": tuple(sorted(self.keywords))}

    def __setstate__(self, state):
        self.__dict__.update(state, genres=frozenset(state["genres"]),
                             keywords=frozenset(state["keywords"]))


@dataclass
class UserRecord:
    user_id: int | str
    gender: str = "unknown"  # M, F or unknown
    age_band: int | None = None
    occupation: int | None = None
    location: str | None = None


COLUMNS = ("user", "item", "rating", "timestamp")


@dataclass(eq=False)
class Ratings:
    """Rating rows as four columns: `user` and `item` are int32 codes into
    the sorted id tables `user_ids` and `item_ids`, `rating` is int8 and
    `timestamp` int64. The pipeline reads the columns; iterating yields one
    `RatingEvent` per row, for readers outside it."""

    user_ids: list
    item_ids: list
    user: np.ndarray
    item: np.ndarray
    rating: np.ndarray
    timestamp: np.ndarray

    def __len__(self):
        return len(self.user)

    def __iter__(self):
        for u, i, r, t in zip(*(getattr(self, c).tolist() for c in COLUMNS)):
            yield RatingEvent(self.user_ids[u], self.item_ids[i], r, t)

    def __eq__(self, other):
        return (isinstance(other, Ratings) and self.user_ids == other.user_ids
                and self.item_ids == other.item_ids
                and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in COLUMNS))

    def __setstate__(self, state):
        self.__dict__.update(built_state(state))

    def take(self, rows) -> "Ratings":
        """The rows that `rows` (a slice, an index array or a mask) selects."""
        return Ratings(self.user_ids, self.item_ids,
                       *(getattr(self, c)[rows] for c in COLUMNS))


def _narrowest(column: np.ndarray) -> np.ndarray:
    """`column` in the narrowest integer type that holds its min and max."""
    return column.astype(np.result_type(*map(np.min_scalar_type, (
        column.min(initial=0), column.max(initial=0)))))


def _pickled_rows(ratings: Ratings) -> dict:
    """The id tables and the item, rating and timestamp columns of
    `ratings`, as a pickle keeps them: the item codes and the timestamps
    each in the narrowest integer type that holds them, uint16 for up to
    65,536 items and uint32 for Unix seconds."""
    return {"user_ids": ratings.user_ids, "item_ids": ratings.item_ids,
            "item": _narrowest(ratings.item), "rating": ratings.rating,
            "timestamp": _narrowest(ratings.timestamp)}


def _loaded_rows(state: dict, user) -> Ratings:
    """The `Ratings` of a `_pickled_rows` state and its `user` column, with
    int32 item codes and int64 timestamps again."""
    return Ratings(state["user_ids"], state["item_ids"], user,
                   state["item"].astype(np.int32), state["rating"],
                   state["timestamp"].astype(np.int64))


class RatingSlice(Mapping):
    """Per-user rows: user id -> that user's `Ratings`, in `users` order.

    `rows` holds every user's rows, each user's contiguous: `ptr[k]` to
    `ptr[k + 1]` are the rows of `users[k]`. The pickle keeps no user
    column, as the users and their row counts give it, and keeps the item
    codes and timestamps narrow (`_pickled_rows`).
    """

    def __init__(self, rows: Ratings, users: list, counts):
        self.rows, self.users = rows, users
        self.ptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        self._index = {u: k for k, u in enumerate(users)}

    def __contains__(self, uid):
        return uid in self._index

    def span(self, uid) -> tuple:
        """(start, stop): the rows of `uid` in `rows`; (0, 0) for a user without an entry."""
        k = self._index.get(uid)
        return (0, 0) if k is None else (int(self.ptr[k]), int(self.ptr[k + 1]))

    def __getitem__(self, uid) -> Ratings:
        k = self._index[uid]
        return self.rows.take(slice(self.ptr[k], self.ptr[k + 1]))

    def __iter__(self):
        return iter(self.users)

    def __len__(self):
        return len(self.users)

    def __getstate__(self):
        return {"users": self.users, "ptr": self.ptr, **_pickled_rows(self.rows)}

    def __setstate__(self, state):
        uidx = {u: k for k, u in enumerate(state["user_ids"])}
        counts = np.diff(state["ptr"])
        user = np.repeat(np.array([uidx[u] for u in state["users"]], dtype=np.int32), counts)
        state = built_state(state)
        self.__init__(_loaded_rows(state, user), state["users"], counts)


@dataclass
class Dataset:
    """Ratings, item catalog and users. `ratings` codes its ids by the sorted
    `users` and `items` keys (or a superset) and is in canonical order: by
    user, then timestamp, then item. `from_columns` checks and sorts; a
    dataset derived from another takes a row subset of its ratings.

    The pickle keeps no `user` column: the rows are in user order, so each
    user code's row count gives it back. It keeps the item codes and
    timestamps narrow (`_pickled_rows`)."""

    ratings: Ratings
    items: dict
    users: dict
    provenance: str = ""

    @classmethod
    def from_columns(cls, user, item, rating, timestamp, items: dict, users: dict,
                     provenance: str = "") -> "Dataset":
        """The ratings (`user[k]`, `item[k]`, `rating[k]`, `timestamp[k]`),
        ids of the catalogs `users` and `items`, in canonical order; raises
        `IngestError` for ids that mix int and str, for an unknown id and
        for a (user, item) pair rated twice."""
        # ids are sorted here and by every model, and an int and a str do not compare
        for kind, catalog in (("user", users), ("item", items)):
            first = {}
            for i in catalog:
                first.setdefault(type(i), i)
            if len(first) > 1:
                raise IngestError(f"{kind} ids mix types: " + ", ".join(
                    f"{i!r} ({t.__name__})" for t, i in first.items()))
        user_ids, item_ids = sorted(users), sorted(items)
        codes = []
        for ids, table in ((user, user_ids), (item, item_ids)):
            index = {i: k for k, i in enumerate(table)}
            codes.append(np.array([index.get(i, -1) for i in ids], dtype=np.int32))
        ucode, icode = codes
        unknown = np.flatnonzero((icode < 0) | (ucode < 0))
        if unknown.size:
            k = unknown[0]
            kind, ids = ("item", item) if icode[k] < 0 else ("user", user)
            raise IngestError(f"rating references unknown {kind} {ids[k]!r}")
        pair = ucode.astype(np.int64) * len(items) + icode
        order = np.argsort(pair, kind="stable")
        repeats = order[1:][pair[order[1:]] == pair[order[:-1]]]
        if repeats.size:
            k = repeats.min()
            raise IngestError(f"user {user[k]!r} rated item {item[k]!r} twice")
        timestamp = np.array(timestamp, dtype=np.int64)
        order = np.lexsort((icode, timestamp, ucode))
        return cls(Ratings(user_ids, item_ids, ucode[order], icode[order],
                           np.array(rating, dtype=np.int8)[order], timestamp[order]),
                   items, users, provenance)

    @cached_property
    def item_columns(self) -> "ItemColumns":
        """`items` as columns, built on first use; not pickled."""
        return item_columns(self.items)

    def __getstate__(self):
        ratings = self.ratings
        if (np.diff(ratings.user) < 0).any():
            raise ValueError("a dataset pickles its ratings in user order only")
        rows = np.bincount(ratings.user, minlength=len(ratings.user_ids)).astype(np.int32)
        return {"user_rows": rows, **_pickled_rows(ratings),
                "items": self.items, "users": self.users, "provenance": self.provenance}

    def __setstate__(self, state):
        state = built_state(state)
        user = np.repeat(np.arange(len(state["user_ids"]), dtype=np.int32), state["user_rows"])
        self.__dict__.update({k: state[k] for k in ("items", "users", "provenance")},
                             ratings=_loaded_rows(state, user))

    def ratings_by_user(self) -> RatingSlice:
        """Each user's ratings, chronological; a user without ratings has no entry."""
        codes, counts = np.unique(self.ratings.user, return_counts=True)
        return RatingSlice(self.ratings, [self.ratings.user_ids[c] for c in codes.tolist()],
                           counts)


@dataclass(eq=False)
class ItemColumns:
    """The catalog as columns over its sorted ids: the genre and keyword
    columns of `item_ids[j]` are `cols[ptr[j]:ptr[j + 1]]`, ascending, the
    sorted `genres` before the sorted `keywords`; NaN for an unknown year
    or runtime."""

    item_ids: list
    genres: tuple
    keywords: tuple
    ptr: np.ndarray                       # int64
    cols: np.ndarray                      # int32
    year: np.ndarray
    runtime: np.ndarray                   # minutes
    _positions: dict = field(default_factory=dict, repr=False)

    def positions(self, genres: tuple, keywords: tuple) -> np.ndarray:
        """Each column's position in `genres` (a genre's) or after them in
        `keywords` (a keyword's), -1 for none; kept per vocabulary."""
        pos = self._positions.get((genres, keywords))
        if pos is None:
            gidx = {g: j for j, g in enumerate(genres)}
            kidx = {k: len(genres) + j for j, k in enumerate(keywords)}
            pos = self._positions[genres, keywords] = np.array(
                [gidx.get(g, -1) for g in self.genres]
                + [kidx.get(k, -1) for k in self.keywords], dtype=np.int64)
        return pos


def item_columns(items: dict) -> ItemColumns:
    """The catalog `items` (id -> `ItemRecord`) as `ItemColumns`."""
    item_ids = sorted(items)
    records = [items[i] for i in item_ids]
    genres = tuple(sorted({g for it in records for g in it.genres}))
    keywords = tuple(sorted({k for it in records for k in it.keywords}))
    gidx = {g: j for j, g in enumerate(genres)}
    kidx = {k: len(genres) + j for j, k in enumerate(keywords)}
    per_item = [sorted([gidx[g] for g in it.genres] + [kidx[k] for k in it.keywords])
                for it in records]
    return ItemColumns(
        item_ids, genres, keywords,
        ptr=np.cumsum([0] + [len(cols) for cols in per_item]),
        cols=np.array([j for cols in per_item for j in cols], dtype=np.int32),
        year=np.array([np.nan if it.year is None else it.year for it in records], dtype=float),
        runtime=np.array([np.nan if it.runtime_minutes is None else it.runtime_minutes
                          for it in records], dtype=float))


def runs(starts, lengths) -> np.ndarray:
    """The indexes start, ..., start + length - 1 of each run, in run order."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (starts + lengths - ends).repeat(lengths)


def segment_sums(values, lengths) -> np.ndarray:
    """Sum of each run of rows of `values`, run j holding `lengths[j]` rows.

    Each sum is bit-identical to `run.sum()` of a 1-D run, and each column
    of a 2-D run's sum to that column summed as a contiguous 1-D array:
    runs of one length are summed together along a contiguous last axis,
    which numpy reduces in the same pairwise order as a 1-D array of that
    length.
    """
    columns = np.ascontiguousarray(values.T)  # one row per column of `values`
    out = np.zeros(columns.shape[:-1] + (len(lengths),))
    start = np.cumsum(lengths) - lengths
    for m in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == m)
        # take, unlike columns[..., index], returns a C-contiguous array
        segments = columns.take(start[rows, None] + np.arange(m), axis=-1)
        out[..., rows] = segments.sum(axis=-1)
    return out.T


def _parse_id(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return token


_TITLE_YEAR_RE = re.compile(r"^(?P<title>.*)\s+\((?P<year>\d{4})\)\s*$")


def load_movielens(ratings_path, users_path, items_path) -> Dataset:
    """Load the MovieLens 1M double-colon layout into a Dataset.

    The first malformed line aborts with its line number, as does a user or
    item id that an earlier line of its file already defined.
    """
    users: dict = {}
    first_lines: dict = {}
    for lineno, fields in _dat_lines(users_path, 5):
        uid = _parse_id(fields[0])
        _check_new_id(users_path, lineno, "user", uid, first_lines)
        gender = fields[1] if fields[1] in ("M", "F") else "unknown"
        users[uid] = UserRecord(
            user_id=uid,
            gender=gender,
            age_band=_maybe_int(fields[2]),
            occupation=_maybe_int(fields[3]),
            location=fields[4] or None,
        )

    items: dict = {}
    first_lines = {}
    for lineno, fields in _dat_lines(items_path, 3):
        iid = _parse_id(fields[0])
        _check_new_id(items_path, lineno, "item", iid, first_lines)
        title, year = fields[1], None
        m = _TITLE_YEAR_RE.match(fields[1])
        if m:
            title, year = m.group("title"), int(m.group("year"))
        genres = frozenset(g for g in fields[2].split("|") if g)
        items[iid] = ItemRecord(item_id=iid, title=title, year=year, genres=genres)

    ds = Dataset.from_columns(*_rating_columns(ratings_path, _dat_lines(ratings_path, 4)),
                              items, users, provenance=f"movielens({ratings_path})")
    _warn_sparse_genres(ds)
    return ds


def load_generic_ratings(ratings_path) -> Dataset:
    """Load a headered `user,item,rating,timestamp` CSV; users/items are
    synthesized. The first malformed row aborts with its line number."""
    user, item, rating, timestamp = _rating_columns(ratings_path, _csv_lines(ratings_path))
    users = {u: UserRecord(user_id=u) for u in dict.fromkeys(user)}
    items = {i: ItemRecord(item_id=i) for i in dict.fromkeys(item)}
    return Dataset.from_columns(user, item, rating, timestamp, items, users,
                                provenance=f"generic({ratings_path})")


def _check_new_id(path, lineno, kind, id_, first_lines):
    """Record that line `lineno` of `path` defines `kind` `id_`; raise
    `IngestError` if an earlier line of the file did."""
    first = first_lines.setdefault(id_, lineno)
    if first != lineno:
        raise IngestError(f"{path}:{lineno}: {kind} id {id_!r} repeats line {first}")


def _rating_columns(path, lines) -> tuple:
    """The user ids, item ids, ratings and timestamps of `lines`, (line
    number, [user, item, rating, timestamp] fields) pairs, as four lists.
    The first line whose rating or timestamp is not an integer, or whose
    rating is not in 1..5 or timestamp in 1..2**63-1, raises `IngestError`
    with its line number."""
    numbers, user, item, rating, timestamp = [], [], [], [], []
    try:
        for number, (u, i, r, t) in lines:
            r, t = int(r), int(t)
            numbers.append(number)
            user.append(u)
            item.append(i)
            rating.append(r)
            timestamp.append(t)
    except ValueError as e:
        _check_ranges(path, numbers, rating, timestamp)  # an earlier line's error first
        raise IngestError(f"{path}:{number}: {e}") from e
    _check_ranges(path, numbers, rating, timestamp)
    ids = {token: _parse_id(token) for token in {*user, *item}}
    return [ids[u] for u in user], [ids[i] for i in item], rating, timestamp


def _check_ranges(path, numbers, rating, timestamp):
    """Raise `IngestError` for the first line whose rating is not in 1..5
    or timestamp in 1..2**63-1; the int64 column cannot hold 2**63."""
    if rating and (min(rating) < 1 or max(rating) > 5
                   or min(timestamp) < 1 or max(timestamp) >= 2 ** 63):
        for number, r, t in zip(numbers, rating, timestamp):
            if not 1 <= r <= 5:
                raise IngestError(f"{path}:{number}: rating must be in 1..5, got {r}")
            if not 0 < t < 2 ** 63:
                raise IngestError(f"{path}:{number}: timestamp must be in 1..2**63-1, got {t}")


def _open(path, errors=None):
    """`path` opened for reading as UTF-8 text; any `OSError` is an `IngestError`."""
    try:
        return open(path, encoding="utf-8", errors=errors)
    except OSError as e:
        raise IngestError(f"cannot read {path}: {e.strerror}") from e


def _dat_lines(path, n_fields):
    with _open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("::")
            if len(fields) != n_fields:
                raise IngestError(f"{path}:{lineno}: expected {n_fields} '::'-separated fields")
            yield lineno, fields


def _csv_lines(path):
    """(line number, fields) of each non-empty row of the ratings CSV
    `path`, after its `user,item,rating,timestamp` header."""
    with _open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != list(COLUMNS):
            raise IngestError(f"{path}: header must be {','.join(COLUMNS)}")
        for row in filter(None, reader):  # a blank line reads as an empty row
            if len(row) != len(COLUMNS):
                raise IngestError(f"{path}:{reader.line_num}: expected {len(COLUMNS)} "
                                  "','-separated fields")
            yield reader.line_num, row


def _maybe_int(token: str):
    try:
        return int(token)
    except (ValueError, TypeError):
        return None


def _warn_sparse_genres(ds: Dataset):
    if not ds.items:
        return
    with_genres = sum(1 for it in ds.items.values() if it.genres)
    frac = with_genres / len(ds.items)
    if frac < 0.95:
        log.warning("only %.1f%% of items carry genres (expected >= 95%%)", 100 * frac)


def enrich_items(dataset: Dataset, metadata_path) -> Dataset:
    """Merge external item metadata: keywords and runtime.

    Rows match on item_id first, then case-insensitive exact title with
    year within +-1. Unmatched items keep their base fields. An item_id
    that an earlier row already gave aborts with both line numbers.
    """
    by_id: dict = {}
    first_lines: dict = {}
    by_title: dict = {}
    with _open(metadata_path) as fh:
        reader = csv.DictReader(fh)
        required = {"item_id", "title", "year", "keywords", "runtime"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise IngestError(
                f"{metadata_path}: header must contain {sorted(required)}"
            )
        for row in reader:
            iid = _parse_id(row["item_id"]) if row["item_id"] else None
            if iid is not None and iid != "":
                _check_new_id(metadata_path, reader.line_num, "item", iid, first_lines)
                by_id[iid] = row
            year = _maybe_int(row["year"])
            if row["title"] and year is not None:
                by_title[(row["title"].strip().lower(), year)] = row

    items = {}
    matched = 0
    for iid, it in dataset.items.items():
        row = by_id.get(iid)
        if row is None and it.year is not None:
            for dy in (0, -1, 1):
                row = by_title.get((it.title.strip().lower(), it.year + dy))
                if row is not None:
                    break
        if row is None:
            items[iid] = it
            continue
        matched += 1
        items[iid] = replace(
            it,
            keywords=frozenset(k for k in row["keywords"].split("|") if k),
            runtime_minutes=_maybe_int(row["runtime"]),
        )
    rate = matched / len(dataset.items) if dataset.items else 0.0
    log.info("metadata enrichment matched %d/%d items (%.1f%%)",
             matched, len(dataset.items), 100 * rate)
    if rate < 1.0:
        log.warning("%d items left unenriched", len(dataset.items) - matched)
    out = Dataset(ratings=dataset.ratings, items=items, users=dataset.users,
                  provenance=dataset.provenance + f" + enrich({metadata_path})")
    _warn_sparse_genres(out)
    return out


def induce_cold_start(dataset: Dataset, seed: int, min_keep: int = 5,
                      max_keep: int | None = None) -> Dataset:
    """Randomly shrink each user's history to simulate cold-start conditions.

    For a user with n >= min_keep ratings, a target count m is drawn
    uniformly from [min_keep, min(max_keep, n)] and the m chronologically
    earliest ratings are kept. Users below min_keep are untouched.
    """
    if min_keep < 1:
        raise ValueError("min_keep must be >= 1")
    if max_keep is not None and max_keep < min_keep:
        raise ValueError("max_keep must be >= min_keep")
    rng = np.random.default_rng(seed)
    by_user = dataset.ratings_by_user()
    keep = np.zeros(len(dataset.ratings), dtype=bool)
    for uid in sorted(dataset.users):
        start, stop = by_user.span(uid)
        n = stop - start
        if n >= min_keep:
            hi = n if max_keep is None else min(max_keep, n)
            stop = start + int(rng.integers(min_keep, hi + 1))
        keep[start:stop] = True  # each user's rows are chronological
    return Dataset(ratings=dataset.ratings.take(keep), items=dataset.items,
                   users=dataset.users, provenance=dataset.provenance
                   + f" + cold_start(seed={seed},min={min_keep},max={max_keep})")


def filter_min_ratings(dataset: Dataset, k: int) -> Dataset:
    """Drop users with fewer than k ratings; every item is retained."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ratings = dataset.ratings
    counts = np.bincount(ratings.user, minlength=len(ratings.user_ids))
    kept = {uid for uid, c in zip(ratings.user_ids, counts.tolist()) if c >= k}
    users = {uid: u for uid, u in dataset.users.items() if uid in kept}
    return Dataset(ratings=ratings.take(counts[ratings.user] >= k), items=dataset.items,
                   users=users, provenance=dataset.provenance + f" + min_ratings({k})")
