"""Each candidate is fitted once, on every user's inner-train ratings, and
that one fitted set both labels the training users and serves the test users.
The report's oracle is `oracle_select` over its own per-user nDCG columns,
which have the labels' cutoff."""

from collections import Counter

import numpy as np
import pytest

from metahybrid import evaluation
from metahybrid import recommenders as rec
from metahybrid.forest import ForestParams
from metahybrid.hybrid import oracle_select, preset_candidates
from metahybrid.metrics import ndcg_at
from metahybrid.splits import SplitPlan


def pairs(inner):
    return {(r.user_id, r.item_id) for evs in inner.values() for r in evs}


def test_fit_step_fits_each_candidate_once_on_all_inner_train(small_dataset, monkeypatch):
    calls = []
    fit = rec.fit

    def recording_fit(spec, train, *args, **kwargs):
        calls.append((spec.algorithm, list(train)))
        return fit(spec, train, *args, **kwargs)

    monkeypatch.setattr(rec, "fit", recording_fit)
    split = evaluation.split_step(small_dataset, SplitPlan(), master_seed=7)
    candidates = preset_candidates("cf")
    fitted = evaluation.fit_step(small_dataset, split, candidates, master_seed=7)

    assert [name for name, _ in calls] == candidates.names == list(fitted)
    inner_train = [r for inner in (split.train_inner_train, split.test_inner_train)
                   for evs in inner.values() for r in evs]
    holdout = pairs(split.train_inner_test) | pairs(split.test_inner_test)
    assert holdout
    for _, train in calls:
        assert Counter(train) == Counter(inner_train)
        assert not {(r.user_id, r.item_id) for r in train} & holdout


def test_serving_models_are_the_labelling_models(small_dataset):
    _, artifacts = evaluation.run_experiment(
        small_dataset, preset_candidates("cf"), SplitPlan(),
        ForestParams(n_estimators=3), master_seed=7)
    assert artifacts["meta"].fitted is artifacts["fitted_eval"]
    assert "fitted_train" not in artifacts


def test_opt_hybrid_is_the_oracle_of_the_per_user_ndcg(small_dataset):
    report, _ = evaluation.run_experiment(
        small_dataset, preset_candidates("cf"), SplitPlan(),
        ForestParams(n_estimators=3), master_seed=7)
    names = report.candidate_names
    ndcg = np.array([[u[f"{n}:nDCG"] for n in names] for u in report.per_user])
    winners, mean = oracle_select(ndcg, names)
    assert report.rows["Opt. hybrid"]["nDCG"] == mean
    assert [u["oracle"] for u in report.per_user] == [names[w] for w in winners]



def ndcg_cells(fitted, names, user_ids, inner_train, inner_test, cutoff) -> np.ndarray:
    """Each user's nDCG@`cutoff` per candidate, from the fitted models' own
    Top-N lists without the user's inner-train items."""
    cells = []
    for uid in user_ids:
        test, train = inner_test[uid], inner_train.get(uid)
        holdout = {r.item_id: r.rating for r in test}
        exclude = {r.item_id for r in train} if train else set()
        cells.append([ndcg_at(fitted[name].recommend_top_n(uid, cutoff, exclude=exclude),
                              holdout, cutoff)
                      for name in names])
    return np.array(cells)


def check_report_uses_cutoff(report, fitted, split, cutoff):
    """The report's nDCG cells are nDCG@`cutoff`, and its `Opt. hybrid` nDCG
    is the mean of each user's best cell."""
    names = report.candidate_names
    users = [row["user_id"] for row in report.per_user]
    ndcg = np.array([[row[f"{n}:nDCG"] for n in names] for row in report.per_user])
    expected = ndcg_cells(fitted, names, users, split.test_inner_train,
                          split.test_inner_test, cutoff)
    assert ndcg.size and (ndcg == expected).all()
    assert report.rows["Opt. hybrid"]["nDCG"] == ndcg.max(axis=1).mean()
    # the check can tell this cutoff from the default one
    assert (ndcg != ndcg_cells(fitted, names, users, split.test_inner_train,
                               split.test_inner_test, 10)).any()


def test_labels_and_report_share_the_label_cutoff(small_dataset):
    report, artifacts = evaluation.run_experiment(
        small_dataset, preset_candidates("cf"), SplitPlan(),
        ForestParams(n_estimators=3), master_seed=7, label_cutoff=5)
    split, fitted, labeled = artifacts["split"], artifacts["fitted_eval"], artifacts["labeled"]
    check_report_uses_cutoff(report, fitted, split, 5)
    assert (labeled.scores == ndcg_cells(fitted, labeled.candidate_names, labeled.user_ids,
                                         split.train_inner_train, split.train_inner_test,
                                         5)).all()
