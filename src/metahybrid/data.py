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
from dataclasses import dataclass, field, replace

import numpy as np

log = logging.getLogger(__name__)


def format_float(value) -> str:
    """A float as a CSV cell: the shortest repr that reads back to the same
    double. numpy scalars are converted first; their own repr is not a number."""
    return repr(float(value))


class IngestError(Exception):
    """Raised when an input file is missing or malformed beyond tolerance."""


@dataclass(frozen=True)
class RatingEvent:
    user_id: int | str
    item_id: int | str
    rating: int
    timestamp: int

    def __post_init__(self):
        if self.rating not in (1, 2, 3, 4, 5):
            raise ValueError(f"rating must be in 1..5, got {self.rating}")
        if self.timestamp <= 0:
            raise ValueError(f"timestamp must be positive, got {self.timestamp}")


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


@dataclass
class Dataset:
    ratings: list[RatingEvent]
    items: dict
    users: dict
    provenance: str = ""

    def __post_init__(self):
        # ids are sorted here and by every model, and an int and a str do not compare
        for kind, catalog in (("user", self.users), ("item", self.items)):
            first = {}
            for i in catalog:
                first.setdefault(type(i), i)
            if len(first) > 1:
                raise IngestError(f"{kind} ids mix types: " + ", ".join(
                    f"{i!r} ({t.__name__})" for t, i in first.items()))
        rated = set()
        for r in self.ratings:
            if r.item_id not in self.items:
                raise IngestError(f"rating references unknown item {r.item_id!r}")
            if r.user_id not in self.users:
                raise IngestError(f"rating references unknown user {r.user_id!r}")
            if (r.user_id, r.item_id) in rated:
                raise IngestError(f"user {r.user_id!r} rated item {r.item_id!r} twice")
            rated.add((r.user_id, r.item_id))
        self.ratings = sorted(self.ratings, key=lambda r: (r.user_id, r.timestamp, r.item_id))

    def ratings_by_user(self) -> dict:
        """Per-user rating lists, chronological (ratings are pre-sorted)."""
        by_user: dict = {}
        for r in self.ratings:
            by_user.setdefault(r.user_id, []).append(r)
        return by_user


def _parse_id(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return token


_TITLE_YEAR_RE = re.compile(r"^(?P<title>.*)\s+\((?P<year>\d{4})\)\s*$")


def load_movielens(ratings_path, users_path, items_path) -> Dataset:
    """Load the MovieLens 1M double-colon layout into a Dataset.

    The first malformed line aborts with its line number.
    """
    users: dict = {}
    for lineno, fields in _dat_lines(users_path, 5):
        uid = _parse_id(fields[0])
        gender = fields[1] if fields[1] in ("M", "F") else "unknown"
        users[uid] = UserRecord(
            user_id=uid,
            gender=gender,
            age_band=_maybe_int(fields[2]),
            occupation=_maybe_int(fields[3]),
            location=fields[4] or None,
        )

    items: dict = {}
    for lineno, fields in _dat_lines(items_path, 3):
        iid = _parse_id(fields[0])
        title, year = fields[1], None
        m = _TITLE_YEAR_RE.match(fields[1])
        if m:
            title, year = m.group("title"), int(m.group("year"))
        genres = frozenset(g for g in fields[2].split("|") if g)
        items[iid] = ItemRecord(item_id=iid, title=title, year=year, genres=genres)

    ratings = []
    for lineno, fields in _dat_lines(ratings_path, 4):
        try:
            ratings.append(
                RatingEvent(
                    user_id=_parse_id(fields[0]),
                    item_id=_parse_id(fields[1]),
                    rating=int(fields[2]),
                    timestamp=int(fields[3]),
                )
            )
        except ValueError as e:
            raise IngestError(f"{ratings_path}:{lineno}: {e}") from e

    ds = Dataset(ratings=ratings, items=items, users=users,
                 provenance=f"movielens({ratings_path})")
    _warn_sparse_genres(ds)
    return ds


def load_generic_ratings(ratings_path) -> Dataset:
    """Load a headered `user,item,rating,timestamp` CSV; users/items are
    synthesized. The first malformed row aborts with its line number."""
    ratings = []
    with open(ratings_path, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["user", "item", "rating", "timestamp"]
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != expected:
            raise IngestError(f"{ratings_path}: header must be {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                ratings.append(
                    RatingEvent(
                        user_id=_parse_id(row["user"]),
                        item_id=_parse_id(row["item"]),
                        rating=int(row["rating"]),
                        timestamp=int(row["timestamp"]),
                    )
                )
            except (ValueError, TypeError) as e:
                raise IngestError(f"{ratings_path}:{lineno}: {e}") from e
    users = {r.user_id: UserRecord(user_id=r.user_id) for r in ratings}
    items = {r.item_id: ItemRecord(item_id=r.item_id) for r in ratings}
    return Dataset(ratings=ratings, items=items, users=users,
                   provenance=f"generic({ratings_path})")


def _dat_lines(path, n_fields):
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except FileNotFoundError as e:
        raise IngestError(f"missing file: {path}") from e
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("::")
            if len(fields) != n_fields:
                raise IngestError(f"{path}:{lineno}: expected {n_fields} '::'-separated fields")
            yield lineno, fields


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
    year within +-1. Unmatched items keep their base fields.
    """
    try:
        fh = open(metadata_path, encoding="utf-8")
    except FileNotFoundError as e:
        raise IngestError(f"missing metadata file: {metadata_path}") from e

    by_id: dict = {}
    by_title: dict = {}
    with fh:
        reader = csv.DictReader(fh)
        required = {"item_id", "title", "year", "keywords", "runtime"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise IngestError(
                f"{metadata_path}: header must contain {sorted(required)}"
            )
        for row in reader:
            iid = _parse_id(row["item_id"]) if row["item_id"] else None
            if iid is not None and iid != "":
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
    earliest events are kept. Users below min_keep are untouched.
    """
    if min_keep < 1:
        raise ValueError("min_keep must be >= 1")
    if max_keep is not None and max_keep < min_keep:
        raise ValueError("max_keep must be >= min_keep")
    rng = np.random.default_rng(seed)
    by_user = dataset.ratings_by_user()
    kept: list[RatingEvent] = []
    for uid in sorted(dataset.users):
        events = by_user.get(uid, [])
        n = len(events)
        if n < min_keep:
            kept.extend(events)
            continue
        hi = n if max_keep is None else min(max_keep, n)
        m = int(rng.integers(min_keep, hi + 1))
        kept.extend(events[:m])  # ratings_by_user lists are chronological
    return Dataset(ratings=kept, items=dataset.items, users=dataset.users,
                   provenance=dataset.provenance
                   + f" + cold_start(seed={seed},min={min_keep},max={max_keep})")


def filter_min_ratings(dataset: Dataset, k: int) -> Dataset:
    """Drop users with fewer than k ratings; every item is retained."""
    if k < 0:
        raise ValueError("k must be >= 0")
    counts: dict = {}
    for r in dataset.ratings:
        counts[r.user_id] = counts.get(r.user_id, 0) + 1
    keep_users = {uid for uid, c in counts.items() if c >= k}
    if k == 0:
        keep_users |= set(dataset.users)
    ratings = [r for r in dataset.ratings if r.user_id in keep_users]
    users = {uid: u for uid, u in dataset.users.items() if uid in keep_users}
    return Dataset(ratings=ratings, items=dataset.items, users=users,
                   provenance=dataset.provenance + f" + min_ratings({k})")
