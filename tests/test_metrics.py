import math

import numpy as np
import pytest

from metahybrid.metrics import RelevanceConfig, ndcg_at, precision_recall_at, rmse

# ---- independent brute-force oracles (kept deliberately naive) ----------


def rmse_brute(pairs):
    sq = [(p - t) ** 2 for t, p in pairs]
    return math.sqrt(sum(sq) / len(sq))


def dcg_brute(rels):
    return sum((2 ** rel - 1) / math.log2(pos + 1)
               for pos, rel in enumerate(rels, start=1))


def ndcg_brute(ranked, holdout, p):
    rels = [float(holdout.get(it, 0)) if it in holdout else 0.0
            for it in ranked[:p]]
    ideal = sorted([float(v) for v in holdout.values()], reverse=True)[:p]
    idcg = dcg_brute(ideal)
    return dcg_brute(rels) / idcg if idcg > 0 else 0.0


def pr_brute(ranked, relevant, k):
    prefix = ranked[:k]
    hits = len(set(prefix) & relevant)
    p = hits / len(prefix) if prefix else 0.0
    r = hits / len(relevant) if relevant else 0.0
    return p, r


# ---- frozen hand-computed cases ------------------------------------------


def test_rmse_zero_for_perfect_predictions():
    assert rmse([(4, 4.0), (2, 2.0)]) == 0.0


def test_rmse_hand_case():
    # truths {4,2}, predictions {2,4}: sqrt((4+4)/2) = 2
    assert rmse([(4, 2.0), (2, 4.0)]) == pytest.approx(2.0, abs=1e-15)


def test_rmse_empty_rejected():
    with pytest.raises(ValueError):
        rmse([])


def test_ndcg_ideal_ordering_is_one():
    holdout = {"a": 3, "b": 2}
    assert ndcg_at(["a", "b", "c"], holdout, 3) == pytest.approx(1.0)


def test_ndcg_hand_case():
    # list relevances [0,0,3] vs ideal [3,0,0]: DCG = 7/2, IDCG = 7
    holdout = {"x": 3}
    assert ndcg_at(["a", "b", "x"], holdout, 3) == pytest.approx(0.5, abs=1e-15)


def test_ndcg_empty_holdout_zero():
    assert ndcg_at(["a", "b"], {}, 3) == 0.0


def test_precision_recall_hand_case():
    ranked = ["a", "b", "c", "d", "e"]
    relevant = {"a", "c", "x", "y"}
    p, r = precision_recall_at(ranked, relevant, 5)
    assert p == pytest.approx(0.4)
    assert r == pytest.approx(0.5)


def test_precision_recall_empty_relevant():
    assert precision_recall_at(["a", "b"], set(), 3) == (0.0, 0.0)


def test_precision_recall_all_hit():
    assert precision_recall_at(["a", "b", "c"], {"a", "b", "c"}, 3) == (1.0, 1.0)


def test_precision_denominator_is_prefix_length():
    # catalog exhausted: only 2 items available for k=5
    p, r = precision_recall_at(["a", "b"], {"a"}, 5)
    assert p == pytest.approx(0.5)
    assert r == pytest.approx(1.0)


# ---- invariants ------------------------------------------------------------


def test_permuting_below_cutoff_changes_nothing():
    rng = np.random.default_rng(5)
    items = [f"i{j}" for j in range(15)]
    holdout = {f"i{j}": int(rng.integers(1, 6)) for j in range(0, 15, 2)}
    relevant = {i for i, v in holdout.items() if v >= 4}
    k = 5
    base_ndcg = ndcg_at(items, holdout, k)
    base_pr = precision_recall_at(items, relevant, k)
    for _ in range(20):
        tail = items[k:]
        rng.shuffle(tail)
        permuted = items[:k] + tail
        assert ndcg_at(permuted, holdout, k) == base_ndcg
        assert precision_recall_at(permuted, relevant, k) == base_pr


def test_ndcg_bounded():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 15))
        ranked = [f"i{j}" for j in rng.permutation(20)[:n]]
        holdout = {f"i{j}": int(rng.integers(1, 6))
                   for j in rng.permutation(20)[: int(rng.integers(0, 10))]}
        v = ndcg_at(ranked, holdout, int(rng.integers(1, 12)))
        assert 0.0 <= v <= 1.0 + 1e-12


def test_rmse_relabel_invariance():
    pairs = [(4, 3.1), (2, 2.2), (5, 4.4)]
    assert rmse(pairs) == rmse(list(reversed(pairs)))


def test_randomized_against_brute_force():
    rng = np.random.default_rng(123)
    cfg = RelevanceConfig()
    for _ in range(300):
        n_items = int(rng.integers(1, 20))
        items = [f"i{j}" for j in range(n_items)]
        ranked = [items[j] for j in rng.permutation(n_items)]
        holdout = {it: int(rng.integers(1, 6)) for it in items
                   if rng.random() < 0.5}
        relevant = {it for it, v in holdout.items() if v >= cfg.threshold}
        p = int(rng.integers(1, 20))
        assert ndcg_at(ranked, holdout, p) == pytest.approx(
            ndcg_brute(ranked, holdout, p), abs=1e-12)
        assert precision_recall_at(ranked, relevant, p) == pytest.approx(
            pr_brute(ranked, relevant, p), abs=1e-12)
        if holdout:
            pairs = [(v, float(rng.uniform(1, 5))) for v in holdout.values()]
            assert rmse(pairs) == pytest.approx(rmse_brute(pairs), abs=1e-12)
