"""Synthetic desk-scale dataset with two planted user populations.

Population "bias" rates by item popularity (baseline-style structure);
population "factor" rates by a rank-2 user/item factor model. The two
populations also differ in genre taste, demographics, and rating hours, so
the user context model carries a recoverable selection signal.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .data import COLUMNS, Dataset, ItemRecord, UserRecord

GENRES = (
    "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)
KEYWORDS = tuple(f"kw{j:02d}" for j in range(40))

_BASE_TS = 978_000_000  # early 2001, matching the MovieLens era


def make_fixture(n_users: int = 200, n_items: int = 500, seed: int = 13,
                 min_ratings: int = 30, max_ratings: int = 70) -> Dataset:
    rng = np.random.default_rng(seed)

    items = {}
    item_bias = rng.normal(0.0, 0.9, size=n_items)
    item_factors = rng.normal(0.0, 1.0, size=(n_items, 2))
    cluster = rng.integers(0, 2, size=n_items)
    for i in range(n_items):
        iid = i + 1
        pool = GENRES[:9] if cluster[i] == 0 else GENRES[9:]
        gset = frozenset(rng.choice(pool, size=rng.integers(1, 4), replace=False))
        kpool = KEYWORDS[:20] if cluster[i] == 0 else KEYWORDS[20:]
        kset = frozenset(rng.choice(kpool, size=rng.integers(3, 7), replace=False))
        year = int(rng.integers(1950, 2001))
        # draws for fields no longer kept (two cast members, then budget and
        # profit): every later draw, and so the shipped fixture, depends on them
        rng.integers(0, 50), rng.integers(0, 50)
        runtime = int(rng.integers(80, 181))
        rng.integers(1, 200), rng.normal(0, 50)
        items[iid] = ItemRecord(item_id=iid, title=f"Synthetic Movie {iid}", year=year,
                                genres=gset, keywords=kset, runtime_minutes=runtime)

    users = {}
    columns = [], [], [], []  # user, item, rating, timestamp
    pop_of = {}
    for u in range(n_users):
        uid = u + 1
        pop = "bias" if u % 2 == 0 else "factor"
        pop_of[uid] = pop
        if pop == "bias":
            age = int(rng.choice((1, 18, 25)))
            occupation = int(rng.integers(0, 10))
            zipcode = f"{int(rng.integers(10000, 50000)):05d}"
            hour = int(rng.integers(18, 23))
        else:
            age = int(rng.choice((45, 50, 56)))
            occupation = int(rng.integers(10, 21))
            zipcode = f"{int(rng.integers(50000, 100000)):05d}"
            hour = int(rng.integers(7, 12))
        gender = "M" if rng.random() < (0.7 if pop == "bias" else 0.3) else "F"
        users[uid] = UserRecord(user_id=uid, gender=gender, age_band=age,
                                occupation=occupation, location=zipcode)

        own = np.flatnonzero(cluster == (0 if pop == "bias" else 1))
        other = np.flatnonzero(cluster == (1 if pop == "bias" else 0))
        n_r = int(rng.integers(min_ratings, max_ratings + 1))
        n_own = min(len(own), int(round(n_r * 0.8)))
        picks = list(rng.choice(own, size=n_own, replace=False))
        picks += list(rng.choice(other, size=min(len(other), n_r - n_own),
                                 replace=False))
        p_u = rng.normal(0.0, 1.2, size=2)
        ts = _BASE_TS + uid * 100_000
        for j, i in enumerate(sorted(int(x) for x in picks)):
            if pop == "bias":
                value = 3.2 + item_bias[i] + rng.normal(0.0, 0.4)
            else:
                value = 3.0 + float(p_u @ item_factors[i]) + rng.normal(0.0, 0.4)
            rating = int(min(5, max(1, round(value))))
            day_offset = int(rng.integers(0, 120))
            stamp = ts + day_offset * 86_400 + hour * 3600 + j * 60
            for column, cell in zip(columns, (uid, i + 1, rating, stamp)):
                column.append(cell)

    ds = Dataset.from_columns(
        *columns, items, users,
        provenance=f"synthetic-fixture(seed={seed},users={n_users},items={n_items})")
    ds.population = pop_of  # exposed for tests that check the planted structure
    return ds


def write_movielens_files(dataset: Dataset, outdir: str):
    """Write the fixture in MovieLens 1M layout plus an enrichment CSV.

    movies.dat carries only title/year/genres; keywords and runtime go to
    metadata.csv so the enrichment path is exercised end to end.
    """
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "ratings.dat"), "w", encoding="utf-8") as fh:
        rows = dataset.ratings
        for u, i, r, t in zip(*(getattr(rows, c).tolist() for c in COLUMNS)):
            fh.write(f"{rows.user_ids[u]}::{rows.item_ids[i]}::{r}::{t}\n")
    with open(os.path.join(outdir, "users.dat"), "w", encoding="utf-8") as fh:
        for uid in sorted(dataset.users):
            u = dataset.users[uid]
            fh.write(f"{uid}::{u.gender}::{u.age_band}::{u.occupation}::{u.location}\n")
    with open(os.path.join(outdir, "movies.dat"), "w", encoding="utf-8") as fh:
        for iid in sorted(dataset.items):
            it = dataset.items[iid]
            fh.write(f"{iid}::{it.title} ({it.year})::{'|'.join(sorted(it.genres))}\n")
    with open(os.path.join(outdir, "metadata.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "title", "year", "keywords", "runtime"])
        for iid in sorted(dataset.items):
            it = dataset.items[iid]
            writer.writerow([iid, it.title, it.year, "|".join(sorted(it.keywords)),
                             it.runtime_minutes])
