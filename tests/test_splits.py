import pickle

import numpy as np
import pytest

from helpers import columns
from metahybrid.data import (
    COLUMNS,
    Dataset,
    ItemRecord,
    UserRecord,
    filter_min_ratings,
    induce_cold_start,
)
from metahybrid.splits import SplitPlan, nested_split, slice_events


def collect(split):
    return (split.train_inner_train, split.train_inner_test,
            split.test_inner_train, split.test_inner_test)


class TestPlanValidation:
    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            SplitPlan(outer_ratio=0.0)
        with pytest.raises(ValueError):
            SplitPlan(inner_ratio=1.0)
        with pytest.raises(ValueError):
            SplitPlan(mode="stratified")

    def test_supported_inner_ratios_constant(self):
        for r in (0.6, 0.7, 0.8, 0.9):
            SplitPlan(inner_ratio=r)


class TestOuterSplit:
    def test_70_30_user_partition(self, small_dataset):
        split = nested_split(small_dataset, SplitPlan(seed=3))
        users = set(small_dataset.users)
        assert len(split.train_users) == round(0.7 * len(users))
        assert set(split.train_users) | set(split.test_users) == users
        assert set(split.train_users) & set(split.test_users) == set()

    def test_seed_controls_assignment(self, small_dataset):
        a = nested_split(small_dataset, SplitPlan(seed=1))
        b = nested_split(small_dataset, SplitPlan(seed=1))
        c = nested_split(small_dataset, SplitPlan(seed=2))
        assert a.train_users == b.train_users
        assert a.train_users != c.train_users

    def test_too_few_users_rejected(self, small_dataset):
        from metahybrid.data import Dataset, UserRecord
        tiny = Dataset.from_columns([], [], [], [], items={}, users={1: UserRecord(1)})
        with pytest.raises(ValueError, match="at least 10"):
            nested_split(tiny, SplitPlan())


class TestInnerSplit:
    def test_partition_laws(self, small_dataset):
        split = nested_split(small_dataset, SplitPlan(seed=5))
        by_user = small_dataset.ratings_by_user()
        for tr, te in ((split.train_inner_train, split.train_inner_test),
                       (split.test_inner_train, split.test_inner_test)):
            for uid in tr:
                both = list(tr[uid]) + list(te[uid])
                assert sorted(both, key=lambda r: (r.timestamp, r.item_id)) == \
                    sorted(by_user[uid], key=lambda r: (r.timestamp, r.item_id))
                assert not set((r.item_id, r.timestamp) for r in tr[uid]) & \
                    set((r.item_id, r.timestamp) for r in te[uid])

    def test_80_20_counts(self, small_dataset):
        split = nested_split(small_dataset, SplitPlan(seed=5, inner_ratio=0.8))
        by_user = small_dataset.ratings_by_user()
        for uid in split.train_users:
            n = len(by_user[uid])
            expected = max(1, min(int(round(0.8 * n)), n))
            assert len(split.train_inner_train[uid]) == expected

    def test_ten_ratings_give_8_2(self):
        users = {u: UserRecord(u) for u in range(12)}
        items = {i: ItemRecord(i) for i in range(10)}
        ratings = [(u, i, 3, 100 * u + i + 1) for u in range(12) for i in range(10)]
        ds = Dataset.from_columns(*columns(ratings), items=items, users=users)
        split = nested_split(ds, SplitPlan(seed=0, inner_ratio=0.8))
        for d in collect(split):
            for uid, evs in d.items():
                assert len(evs) in (2, 8)

    def test_chronological_holdout_is_suffix(self, small_dataset):
        split = nested_split(small_dataset, SplitPlan(seed=9))
        for uid, tr in split.train_inner_train.items():
            te = split.train_inner_test[uid]
            if tr and te:
                assert max(r.timestamp for r in tr) <= min(r.timestamp for r in te)

    @pytest.mark.parametrize("ratio", (0.6, 0.7, 0.8, 0.9))
    def test_ratio_sweep(self, small_dataset, ratio):
        split = nested_split(small_dataset, SplitPlan(seed=4, inner_ratio=ratio))
        by_user = small_dataset.ratings_by_user()
        for uid in split.test_users:
            n = len(by_user[uid])
            assert len(split.test_inner_train[uid]) == max(1, min(int(round(ratio * n)), n))

    def test_random_mode_seeded(self, small_dataset):
        a = nested_split(small_dataset, SplitPlan(seed=6, mode="random"))
        b = nested_split(small_dataset, SplitPlan(seed=6, mode="random"))
        assert collect(a) == collect(b)

    def test_single_rating_user_flagged(self):
        users = {u: UserRecord(u) for u in range(11)}
        items = {1: ItemRecord(1), 2: ItemRecord(2)}
        ratings = [(u, 1, 3, u + 1) for u in range(11)] + [(0, 2, 4, 100)]
        ds = Dataset.from_columns(*columns(ratings), items=items, users=users)
        split = nested_split(ds, SplitPlan(seed=0))
        assert sorted(split.single_rating_users) == list(range(1, 11))
        for d in (split.train_inner_train, split.test_inner_train):
            for uid in d:
                if uid != 0:
                    assert len(d[uid]) == 1  # the lone rating stays in train


def test_slice_events_flattens_in_user_order(small_dataset):
    split = nested_split(small_dataset, SplitPlan(seed=2))
    flat = slice_events(split.train_inner_train)
    assert len(flat) == sum(len(v) for v in split.train_inner_train.values())
    user_seq = [r.user_id for r in flat]
    assert user_seq == sorted(user_seq)


def hand_built_events():
    """Fourteen users' (user, item, rating, timestamp) rows in shuffled
    order: user 0 has none, users 1 and 3 one each, user 2 two with a
    timestamp tie (broken by item), user u > 2 has u - 2."""
    rng = np.random.default_rng(17)
    events = [(1, 4, 2, 50), (2, 7, 5, 30), (2, 3, 1, 30)]
    for u in range(3, 14):
        for k, i in enumerate(rng.permutation(12)[:u - 2].tolist()):
            events.append((u, i, int(rng.integers(1, 6)), 1000 * u + 7 * (k % 3) + 1))
    return [events[k] for k in rng.permutation(len(events))]


def reference_by_user(events) -> dict:
    """Each user's events in (timestamp, item) order, one list per user."""
    by_user: dict = {}
    for u, i, r, t in sorted(events, key=lambda e: (e[0], e[3], e[1])):
        by_user.setdefault(u, []).append((u, i, r, t))
    return by_user


def reference_cold_start(events, users, seed, min_keep, max_keep) -> list:
    rng, by_user, kept = np.random.default_rng(seed), reference_by_user(events), []
    for uid in sorted(users):
        evs = by_user.get(uid, [])
        if len(evs) >= min_keep:
            hi = len(evs) if max_keep is None else min(max_keep, len(evs))
            evs = evs[:int(rng.integers(min_keep, hi + 1))]
        kept += evs
    return kept


def reference_split(events, users, plan) -> list:
    """The nested split computed event by event: the four slices as dicts of
    per-user row lists, and the single-rating users."""
    rng = np.random.default_rng(plan.seed)
    users = sorted(users)
    perm = rng.permutation(len(users))
    n_train = int(round(plan.outer_ratio * len(users)))
    by_user, slices, single = reference_by_user(events), [], []
    for uids in (sorted(users[i] for i in perm[:n_train]),
                 sorted(users[i] for i in perm[n_train:])):
        tr, te = {}, {}
        for uid in uids:
            evs = list(by_user.get(uid, []))
            single += [uid] if len(evs) == 1 else []
            m = max(1, min(int(round(len(evs) * plan.inner_ratio)), len(evs)))
            if plan.mode == "random":
                rng.shuffle(evs)
            tr[uid], te[uid] = evs[:m], evs[m:]
        slices += [tr, te]
    return slices + [single]


@pytest.mark.parametrize("derive", ["none", "cold-start", "min-ratings"])
@pytest.mark.parametrize("mode", ["chronological", "random"])
def test_slices_match_event_reference(mode, derive):
    events = hand_built_events()
    users = {u: UserRecord(u) for u in range(14)}
    ds = Dataset.from_columns(*columns(events), {i: ItemRecord(i) for i in range(12)}, users)
    if derive == "cold-start":
        ds = induce_cold_start(ds, seed=3, min_keep=2, max_keep=4)
        events = reference_cold_start(events, users, 3, 2, 4)
    elif derive == "min-ratings":
        ds = filter_min_ratings(ds, 2)
        kept = {u for u, evs in reference_by_user(events).items() if len(evs) >= 2}
        events = [e for e in events if e[0] in kept]
        users = {u: r for u, r in users.items() if u in kept}
    assert list(ds.ratings) == [r for evs in reference_by_user(events).values() for r in evs]
    assert sorted(ds.users) == sorted(users)

    plan = SplitPlan(seed=5, mode=mode, inner_ratio=0.6)
    split = nested_split(ds, plan)
    *want, single = reference_split(events, users, plan)
    for got, ref in zip(collect(split), want):
        assert list(got) == list(ref)
        assert {uid: list(got[uid]) for uid in got} == ref
    assert split.single_rating_users == single
    if derive == "none":
        assert 1 in single and 0 in split.train_users + split.test_users


def test_pickle_round_trip_gives_equal_columns(small_dataset):
    split = nested_split(small_dataset, SplitPlan(seed=4, mode="random"))
    for obj in (small_dataset, split):
        blob = pickle.dumps(obj, protocol=4)
        back = pickle.loads(blob)
        assert back == obj
        # the columns keep their dtypes, and a loaded object pickles to the same bytes
        assert pickle.dumps(back, protocol=4) == blob
    rows = pickle.loads(pickle.dumps(small_dataset)).ratings
    assert [getattr(rows, c).dtype for c in COLUMNS] == [
        np.int32, np.int32, np.int8, np.int64]
    # a split of a loaded dataset pickles to the bytes of one of the original
    plan = SplitPlan(seed=4)
    loaded = pickle.loads(pickle.dumps(small_dataset, protocol=4))
    assert pickle.dumps(nested_split(loaded, plan), protocol=4) == \
        pickle.dumps(nested_split(small_dataset, plan), protocol=4)


def test_split_pickle_holds_no_events_or_user_column(small_dataset):
    split = nested_split(small_dataset, SplitPlan(seed=2))
    state = split.train_inner_train.__getstate__()
    assert "user" not in state
    assert set(state) == {"users", "ptr", "user_ids", "item_ids", "item", "rating",
                          "timestamp"}
    assert b"RatingEvent" not in pickle.dumps(split)
