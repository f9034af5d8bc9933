"""The benchmark's tracer wraps the program from outside: it patches
`FittedRecommender.recommend_top_n` and `predict_rating` on the class,
walks `TreeNode` trees to count nodes, and wraps module functions. A
traced in-process experiment and a traced staged `run-all`, the path the
benchmark's workloads run, keep those hooks working."""

import json
import os
import sys

from metahybrid import cli, evaluation, pipeline
from metahybrid.fixtures import make_fixture, write_movielens_files
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


def test_traced_run_all_counts_every_scored_user(tmp_path):
    write_movielens_files(make_fixture(n_users=40, n_items=80, seed=2), tmp_path / "data")
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "dataset": {"format": "movielens",
                    "ratings": str(tmp_path / "data" / "ratings.dat"),
                    "users": str(tmp_path / "data" / "users.dat"),
                    "items": str(tmp_path / "data" / "movies.dat"),
                    "metadata": str(tmp_path / "data" / "metadata.csv")},
        "preset": "cf", "forest": {"n_estimators": 3},
        "output_dir": str(tmp_path / "out"), "seed": 7}))
    tracer = tracing.Tracer().install()
    try:
        assert cli.main(["run-all", "--config", str(config)]) == 0
    finally:
        tracer.uninstall()

    metrics = {k: v["value"] for k, v in tracing.per_layer_metrics(tracer, 1, 0.0).items()}
    split = pipeline.ArtifactStore(str(tmp_path / "out")).read("split.pkl", "test")
    users = len(split.train_users) + len(split.test_users)
    for alg in ("BaselineOnly", "CoClustering", "SlopeOne", "SvdMf"):
        assert metrics[f"recommenders.{alg}.topn_calls"] == users
    # one extract_raw span per TRh and per TEh user
    assert metrics["context.users"] == users
    rows = (tmp_path / "out" / "labels.csv").read_text().splitlines()[1:]
    assert metrics["hybrid.labels"] == len(rows) > 0
    # one nDCG per candidate for every labelled and every evaluated user
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    ndcg_spans = [span for span in tracer.spans if span[0] == "metrics.ndcg_at"]
    assert len(ndcg_spans) == 4 * (len(rows) + report["n_evaluated_users"])
    assert metrics["forest.trees"] == 3
    assert metrics["pipeline.label_s"] > 0
