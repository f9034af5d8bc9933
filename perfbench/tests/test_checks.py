"""Each output check passes on a valid input and fires on a broken one.

Run from the root of the checkout: `python3 -m pytest perfbench/tests`.
"""

import math

import checks

NAMES = ["A", "B"]


def _rows(a, b, hybrid, opt):
    return {"A": {"nDCG": a}, "B": {"nDCG": b}, "Hybrid": {"nDCG": hybrid},
            "Opt. hybrid": {"nDCG": opt}}


def test_own_ndcg_matches_hand_computation():
    holdout = {1: 5.0, 2: 3.0}
    # ranked [2, 9, 1]: gains 7/log2(2), 0, 31/log2(4); ideal 31/1 + 7/log2(3)
    expected = (7.0 + 31.0 / 2.0) / (31.0 + 7.0 / math.log2(3))
    assert math.isclose(checks.own_ndcg([2, 9, 1], holdout, 10), expected)
    assert checks.own_ndcg([1, 2], {}, 10) == 0.0


def test_oracle_dominance_fires_when_hybrid_beats_oracle():
    assert checks.oracle_dominance(_rows(0.1, 0.2, 0.2, 0.3), NAMES) == []
    errors = checks.oracle_dominance(_rows(0.1, 0.2, 0.35, 0.3), NAMES)
    assert len(errors) == 1 and "Hybrid" in errors[0]
    assert checks.oracle_dominance(_rows(0.4, 0.2, 0.2, 0.3), NAMES)


def test_hybrid_row_fires_on_a_wrong_mean():
    per_user = [{"dispatched": "A", "A:nDCG": 0.2, "B:nDCG": 0.9},
                {"dispatched": "B", "A:nDCG": 0.0, "B:nDCG": 0.4}]
    good = {"Hybrid": {"nDCG": 0.3}}
    assert checks.hybrid_row(good, per_user, ["nDCG"]) == []
    assert checks.hybrid_row({"Hybrid": {"nDCG": 0.65}}, per_user, ["nDCG"])


def test_report_counts_fire_on_mismatched_sums():
    report = {"confusion": {"A": {"A": 2, "B": 1}}, "n_evaluated_users": 3,
              "label_distribution": {"A": 4, "B": 1}, "skipped_label_users": 1}
    assert checks.report_counts(report, 6) == []
    assert checks.report_counts(report, 7)
    assert checks.report_counts(dict(report, n_evaluated_users=4), 6)


def test_finite_numbers_fires_on_nan_cell():
    assert checks.finite_numbers({"rows": {"A": {"nDCG": 0.1, "n": 3}}}) == []
    errors = checks.finite_numbers({"rows": {"A": {"nDCG": float("nan")}}})
    assert errors and "rows.A.nDCG" in errors[0]
    assert checks.finite_numbers([1.0, [float("inf")]])


def test_topn_list_fires_on_repeated_excluded_or_unknown_item():
    catalog = set(range(1, 20))
    assert checks.topn_list([1, 2, 3], {4}, catalog, 3, "u") == []
    assert checks.topn_list([1, 2, 2], {4}, catalog, 3, "u")
    assert checks.topn_list([1, 2, 4], {4}, catalog, 3, "u")
    assert checks.topn_list([1, 2, 99], {4}, catalog, 3, "u")
    assert checks.topn_list([1, 2], {4}, catalog, 3, "u")


class _Spec:
    algorithm = "Fake"


class _FakeModel:
    """Rates item i as 5 - i/10; Top-N optionally broken on purpose."""

    spec = _Spec()

    def __init__(self, topn):
        self._topn = topn

    def predict_rating(self, user, item):
        return 5.0 - item / 10.0 if item != 3 else 5.0 - 2 / 10.0  # 2 and 3 tie

    def recommend_top_n(self, user, n, exclude=frozenset()):
        return self._topn


def test_topn_brute_force_breaks_ties_toward_smaller_id():
    catalog = list(range(1, 10))
    assert checks.brute_force_topn(_FakeModel([]), 1, catalog, {1}, 3) == [2, 3, 4]
    assert checks.topn_matches_brute_force(_FakeModel([2, 3, 4]), 1, catalog, {1}, 3) == []
    assert checks.topn_matches_brute_force(_FakeModel([3, 2, 4]), 1, catalog, {1}, 3)
    assert checks.topn_matches_brute_force(_FakeModel([2, 2, 4]), 1, catalog, {1}, 3)
    assert checks.topn_matches_brute_force(_FakeModel([1, 2, 3]), 1, catalog, {1}, 3)


def test_ratings_in_range_fires_outside_one_to_five():
    assert checks.ratings_in_range([1.0, 3.3, 5.0], "x") == []
    assert checks.ratings_in_range([0.5], "x")
    assert checks.ratings_in_range([float("nan")], "x")


def test_csv_readback(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("user_id,label,ndcg_A\n1,A,0.5\n\nfeature,importance\nage,0.1\n")
    assert checks.csv_readback(good) == []
    numpy_repr = tmp_path / "repr.csv"
    numpy_repr.write_text("user_id,label,ndcg_A\n1,A,np.float64(0.0)\n")
    errors = checks.csv_readback(numpy_repr)
    assert errors and "np.float64(0.0)" in errors[0]
    nan_cell = tmp_path / "nan.csv"
    nan_cell.write_text("user_id,x\n1,nan\n")
    assert checks.csv_readback(nan_cell)
