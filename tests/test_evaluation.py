"""Each candidate is fitted once, on every user's inner-train ratings, and
that one fitted set both labels the training users and serves the test users."""

from collections import Counter

from metahybrid import evaluation
from metahybrid import recommenders as rec
from metahybrid.forest import ForestParams
from metahybrid.hybrid import preset_candidates
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
