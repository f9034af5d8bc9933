"""The benchmark's tracer wraps the program from outside: it patches
`FittedRecommender.recommend_top_n` and `predict_rating` on the class,
counts nodes by walking the `TreeNode` view `ForestModel.trees`, which
must agree with the flat node arrays, and wraps module functions. A
traced in-process experiment and a traced staged `run-all`, the path the
benchmark's workloads run, keep those hooks working. The pipeline scores
users in blocks and dispatches every test user in one forest walk, so the
tests call the one-user forms that the tracer times themselves, and check
them against the pipeline's results. The `fixture-cf`
workload's own checks, which read the split, dataset and fitted-candidate
pickles back and use the slices as per-user rows, keep passing, and so do
the `serve-cf` workload's, which compare each one-user context's dispatch
with the batch dispatch."""

import json
import os
import sys

import metahybrid.metrics
from metahybrid import cli, evaluation, hybrid, pipeline
from metahybrid.fixtures import make_fixture, write_movielens_files
from metahybrid.forest import ForestParams
from metahybrid.hybrid import preset_candidates
from metahybrid.recommenders import FittedRecommender
from metahybrid.splits import SplitPlan

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracing  # noqa: E402  (perfbench/tracing.py)
import workloads  # noqa: E402  (perfbench/workloads.py)


def test_traced_experiment_counts_every_layer():
    topn, predict = FittedRecommender.recommend_top_n, FittedRecommender.predict_rating
    tracer = tracing.Tracer().install()
    try:
        report, artifacts = evaluation.run_experiment(
            make_fixture(n_users=40, n_items=80, seed=2), preset_candidates("cf"),
            SplitPlan(), ForestParams(n_estimators=3), master_seed=7)
        # the one-user forms of the pipeline's block scoring and batch
        # dispatch, which the tracer counts and times
        split = artifacts["split"]
        for model in artifacts["fitted_eval"].values():
            model.predict_rating("ghost-user", "ghost-item")
            for uid in list(split.train_users) + list(split.test_users):
                model.recommend_top_n(uid, 10)
        for uid, row in zip(split.test_users, artifacts["test_matrix"]):
            assert hybrid.predict_recommender(artifacts["meta"], row) == \
                artifacts["dispatched"][uid]
    finally:
        tracer.uninstall()
    assert FittedRecommender.recommend_top_n is topn
    assert FittedRecommender.predict_rating is predict

    metrics = {k: v["value"] for k, v in tracing.per_layer_metrics(tracer, 1, 0.0).items()}
    forest = artifacts["meta"].forest
    assert metrics["forest.trees"] == 3
    assert metrics["forest.nodes"] == sum(tracing._count_nodes(t) for t in forest.trees) > 3
    assert metrics["forest.nodes"] == len(forest.feature)
    users = len(artifacts["split"].train_users) + len(artifacts["split"].test_users)
    for alg in report.candidate_names:
        assert metrics[f"recommenders.{alg}.topn_calls"] == users
        assert metrics[f"recommenders.{alg}.predict_calls"] == 1
        assert metrics[f"recommenders.{alg}.fallbacks"] == 1
        assert metrics[f"recommenders.{alg}.fit_s"] > 0
    assert metrics["hybrid.labels"] == len(artifacts["labeled"].labels)
    assert metrics["forest.predict_calls"] == len(split.test_users)
    assert metrics["hybrid.dispatch_ms_p50"] > 0
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
        # each labelled and each evaluated user's nDCG, from the one-user
        # Top-N that the tracer counts, is the one that run-all wrote
        store = pipeline.ArtifactStore(str(tmp_path / "out"))
        split = store.read("split.pkl", "test")
        fitted = store.read(pipeline.CANDIDATES, "test")
        labeled = store.read("labeled.pkl", "test")["labeled"]
        per_user = store.read("evaluation.pkl", "test").per_user
        for users, scores, train, test in (
                (labeled.user_ids, labeled.scores, split.train_inner_train,
                 split.train_inner_test),
                ([u["user_id"] for u in per_user],
                 [[u[f"{name}:nDCG"] for name in fitted] for u in per_user],
                 split.test_inner_train, split.test_inner_test)):
            for uid, row in zip(users, scores):
                holdout = {r.item_id: r.rating for r in test[uid]}
                exclude = {r.item_id for r in train[uid]} if uid in train else set()
                # through the module, whose attribute the tracer wraps
                assert [metahybrid.metrics.ndcg_at(
                    model.recommend_top_n(uid, 10, exclude=exclude), holdout, 10)
                        for model in fitted.values()] == list(row)
    finally:
        tracer.uninstall()

    metrics = {k: v["value"] for k, v in tracing.per_layer_metrics(tracer, 1, 0.0).items()}
    users = len(split.train_users) + len(split.test_users)
    for alg in ("BaselineOnly", "CoClustering", "SlopeOne", "SvdMf"):
        assert metrics[f"recommenders.{alg}.topn_calls"] == users
    # one extract_raw span per context build: the TRh users' to label them,
    # the labelled users' again to train the forest, then the TEh users'
    # (the metric counts those calls, not users)
    assert metrics["context.users"] == 3
    rows = (tmp_path / "out" / "labels.csv").read_text().splitlines()[1:]
    assert metrics["hybrid.labels"] == len(rows) > 0
    # one nDCG per candidate for every labelled and every evaluated user
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    ndcg_spans = [span for span in tracer.spans if span[0] == "metrics.ndcg_at"]
    assert len(ndcg_spans) == 4 * (len(rows) + report["n_evaluated_users"])
    assert metrics["forest.trees"] == 3
    assert metrics["pipeline.label_s"] > 0


def test_fixture_workload_reads_the_pickles_back(tmp_path):
    # the benchmark's `fixture-cf` workload on its smoke inputs: its checks
    # read split.pkl, dataset.pkl and candidates_eval.pkl back from disk
    workload = workloads.make("fixture-cf", str(tmp_path), 1, smoke=True)
    workload.setup()
    workload.run(0, False)
    metrics, errors, _ = workload.finish()
    assert errors == []
    assert workload.failed == 0 and workload.attempted > 0
    assert metrics["artifact_bytes"] > 0


def test_serve_workload_matches_batch(tmp_path, monkeypatch):
    # the benchmark's `serve-cf` workload on its smoke inputs: each request
    # builds one user's context alone, and its checks compare every served
    # user's dispatch with the batch dispatch of `run_experiment`
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    workload = workloads.make("serve-cf", str(tmp_path), 1, smoke=True)
    workload.setup()
    workload.run(0, False)
    _, errors, _ = workload.finish()
    assert errors == []
    assert workload.failed == 0 and workload.attempted > 0
