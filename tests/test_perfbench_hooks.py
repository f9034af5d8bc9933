"""The benchmark's tracer wraps the program from outside: it patches
`FittedRecommender.recommend_top_n` and `predict_rating` on the class,
walks `TreeNode` trees to count nodes, and wraps module functions. A
traced in-process experiment here keeps those hooks working."""

import os
import sys

from metahybrid import evaluation
from metahybrid.fixtures import make_fixture
from metahybrid.forest import ForestParams
from metahybrid.hybrid import preset_candidates
from metahybrid.recommenders import FittedRecommender
from metahybrid.splits import SplitPlan

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracing  # noqa: E402  (perfbench/tracing.py)


def test_traced_experiment_counts_every_layer():
    topn, predict = FittedRecommender.recommend_top_n, FittedRecommender.predict_rating
    tracer = tracing.Tracer().install()
    try:
        report, artifacts = evaluation.run_experiment(
            make_fixture(n_users=40, n_items=80, seed=2), preset_candidates("cf"),
            SplitPlan(), ForestParams(n_estimators=3), master_seed=7)
        # the pipeline scores ratings through `predict_ratings`; the public
        # one-item form is what the tracer counts
        for model in artifacts["fitted_eval"].values():
            model.predict_rating("ghost-user", "ghost-item")
    finally:
        tracer.uninstall()
    assert FittedRecommender.recommend_top_n is topn
    assert FittedRecommender.predict_rating is predict

    metrics = {k: v["value"] for k, v in tracing.per_layer_metrics(tracer, 1, 0.0).items()}
    trees = artifacts["meta"].forest.trees
    assert metrics["forest.trees"] == 3
    assert metrics["forest.nodes"] == sum(tracing._count_nodes(t) for t in trees) > 3
    users = len(artifacts["split"].train_users) + len(artifacts["split"].test_users)
    for alg in report.candidate_names:
        assert metrics[f"recommenders.{alg}.topn_calls"] == users
        assert metrics[f"recommenders.{alg}.predict_calls"] == 1
        assert metrics[f"recommenders.{alg}.fallbacks"] == 1
        assert metrics[f"recommenders.{alg}.fit_s"] > 0
    assert metrics["hybrid.labels"] == len(artifacts["labeled"].labels)
    assert metrics["pipeline.label_s"] == 0  # run_experiment runs no staged pipeline
