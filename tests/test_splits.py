import numpy as np
import pytest

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
        tiny = Dataset(ratings=[], items={}, users={1: UserRecord(1)})
        with pytest.raises(ValueError, match="at least 10"):
            nested_split(tiny, SplitPlan())


class TestInnerSplit:
    def test_partition_laws(self, small_dataset):
        split = nested_split(small_dataset, SplitPlan(seed=5))
        by_user = small_dataset.ratings_by_user()
        for tr, te in ((split.train_inner_train, split.train_inner_test),
                       (split.test_inner_train, split.test_inner_test)):
            for uid in tr:
                both = tr[uid] + te[uid]
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
        from metahybrid.data import Dataset, ItemRecord, RatingEvent, UserRecord
        users = {u: UserRecord(u) for u in range(12)}
        items = {i: ItemRecord(i) for i in range(10)}
        ratings = [RatingEvent(u, i, 3, 100 * u + i + 1)
                   for u in range(12) for i in range(10)]
        ds = Dataset(ratings=ratings, items=items, users=users)
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
        from metahybrid.data import Dataset, ItemRecord, RatingEvent, UserRecord
        users = {u: UserRecord(u) for u in range(11)}
        items = {1: ItemRecord(1), 2: ItemRecord(2)}
        ratings = [RatingEvent(u, 1, 3, u + 1) for u in range(11)]
        ratings += [RatingEvent(0, 2, 4, 100)]
        ds = Dataset(ratings=ratings, items=items, users=users)
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
