import copyreg
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys

import pytest

from metahybrid.cli import main
from metahybrid.config import ConfigError, load_config
from metahybrid.data import enrich_items, load_movielens
from metahybrid.evaluation import run_experiment
from metahybrid.forest import ForestModel
from metahybrid.fixtures import make_fixture, write_movielens_files
from metahybrid.recommenders.collaborative import SlopeOneModel


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cliwork")
    ds = make_fixture(n_users=40, n_items=80, seed=2)
    write_movielens_files(ds, d / "data")
    return d


def write_config(workdir, name="exp.json", **updates):
    cfg = {
        "schema_version": 1,
        "dataset": {
            "format": "movielens",
            "ratings": str(workdir / "data" / "ratings.dat"),
            "users": str(workdir / "data" / "users.dat"),
            "items": str(workdir / "data" / "movies.dat"),
            "metadata": str(workdir / "data" / "metadata.csv"),
        },
        "preset": "cf",
        "forest": {"n_estimators": 20},
        "output_dir": str(workdir / "out"),
        "seed": 5,
    }
    cfg.update(updates)
    path = workdir / name
    path.write_text(json.dumps(cfg))
    return path


def rewrite_in_old_layout(path, cls):
    """Re-pickle an artifact with every `cls` object stored as its whole
    `__dict__`, as versions before the compact pickles stored them."""
    class OldPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is cls:
                return copyreg.__newobj__, (cls,), dict(obj.__dict__)
            return NotImplemented

    with open(path, "rb") as fh:
        blob = pickle.load(fh)
    with open(path, "wb") as fh:
        OldPickler(fh, protocol=4).dump(blob)


@pytest.fixture(scope="module")
def completed_run(workdir):
    cfg = write_config(workdir)
    assert main(["run-all", "--config", str(cfg)]) == 0
    return workdir / "out"


class TestConfigValidation:
    def test_missing_ratings(self, workdir, capsys):
        path = write_config(workdir, name="bad1.json", dataset={"format": "generic"})
        assert main(["ingest", "--config", str(path)]) == 1
        assert "dataset.ratings" in capsys.readouterr().err

    def test_unknown_top_level_key(self, workdir, capsys):
        path = write_config(workdir, name="bad2.json", tuning={"x": 1})
        assert main(["ingest", "--config", str(path)]) == 1
        assert "tuning" in capsys.readouterr().err

    def test_schema_version_checked(self, workdir, capsys):
        path = write_config(workdir, name="bad3.json", schema_version=2)
        assert main(["ingest", "--config", str(path)]) == 1
        assert "schema_version" in capsys.readouterr().err

    def test_preset_and_candidates_conflict(self, workdir, capsys):
        path = write_config(workdir, name="bad4.json",
                            candidates=[{"algorithm": "SlopeOne", "params": {}},
                                        {"algorithm": "SvdMf", "params": {}}])
        assert main(["ingest", "--config", str(path)]) == 1
        assert "preset or candidates" in capsys.readouterr().err

    def test_unknown_forest_param(self, workdir, capsys):
        path = write_config(workdir, name="bad5.json", forest={"trees": 5})
        assert main(["ingest", "--config", str(path)]) == 1
        assert "forest: unknown keys ['trees']" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["log2", -3])
    def test_bad_max_features(self, workdir, value):
        path = write_config(workdir, name="bad6.json",
                            forest={"n_estimators": 5, "max_features": value})
        with pytest.raises(ConfigError, match="max_features must be 'sqrt' or an int >= 1"):
            load_config(path)

    @pytest.mark.parametrize("forest, message", [
        ({"n_estimators": "5"}, "n_estimators must be an int"),
        ({"min_samples_split": "3"}, "min_samples_split must be an int"),
        ({"min_samples_leaf": 2.5}, "min_samples_leaf must be an int"),
        ({"n_estimators": True}, "n_estimators must be an int"),
        ({"max_depth": 0}, "max_depth must be None or an int >= 1"),
        ({"bootstrap": "no"}, "bootstrap must be true or false"),
        ({"seed": 3}, "forest.seed has no effect"),
    ])
    def test_bad_forest_values(self, workdir, forest, message):
        path = write_config(workdir, name="bad7.json", forest=forest)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_missing_config_file(self, workdir, capsys):
        assert main(["ingest", "--config", str(workdir / "nope.json")]) == 1
        assert "missing config file" in capsys.readouterr().err


class TestStageOrdering:
    def test_stage_without_prerequisites_fails(self, workdir, capsys):
        path = write_config(workdir, name="fresh.json",
                            output_dir=str(workdir / "fresh_out"))
        assert main(["label", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "dataset.pkl" in err and "earlier stages" in err

    def test_stages_run_in_sequence(self, workdir, capsys):
        path = write_config(workdir, name="seq.json",
                            output_dir=str(workdir / "seq_out"))
        for stage in ("ingest", "split", "fit-candidates", "label",
                      "train-meta", "evaluate", "report"):
            assert main([stage, "--config", str(path)]) == 0, stage
        out = capsys.readouterr().out
        assert "[report]" in out

    def test_evaluate_rejects_meta_without_forest(self, workdir, completed_run, capsys):
        out = workdir / "stale_meta_out"
        shutil.copytree(completed_run, out)
        with open(out / "meta.pkl", "wb") as fh:
            pickle.dump({"format_version": 1, "payload": {"forest": None}}, fh)
        path = write_config(workdir, name="stale.json", output_dir=str(out))
        assert main(["evaluate", "--config", str(path)]) == 1
        assert "rerun train-meta" in capsys.readouterr().err

    def test_evaluate_rejects_forest_of_older_version(self, workdir, completed_run, capsys):
        out = workdir / "old_forest_out"
        shutil.copytree(completed_run, out)
        rewrite_in_old_layout(out / "meta.pkl", ForestModel)
        path = write_config(workdir, name="old_forest.json", output_dir=str(out))
        assert main(["evaluate", "--config", str(path)]) == 1
        assert "rerun train-meta" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,name", [("label", "candidates_eval.pkl"),
                                            ("evaluate", "candidates_eval.pkl")])
    def test_stage_rejects_candidates_of_older_version(self, workdir, completed_run, capsys,
                                                       stage, name):
        out = workdir / f"old_{stage}_out"
        shutil.copytree(completed_run, out)
        rewrite_in_old_layout(out / name, SlopeOneModel)
        path = write_config(workdir, name=f"old_{stage}.json", output_dir=str(out))
        assert main([stage, "--config", str(path)]) == 1
        assert "rerun fit-candidates" in capsys.readouterr().err

    def test_train_meta_does_not_read_serving_models(self, workdir, completed_run):
        # train-meta trains the forest only; the serving models are read by evaluate
        out = workdir / "no_eval_models_out"
        shutil.copytree(completed_run, out)
        os.remove(out / "candidates_eval.pkl")
        path = write_config(workdir, name="no_eval_models.json", output_dir=str(out))
        assert main(["train-meta", "--config", str(path)]) == 0
        assert (out / "meta.pkl").read_bytes() == (completed_run / "meta.pkl").read_bytes()


class TestRunAll:
    def test_artifacts_written(self, completed_run):
        # perfbench/workloads.py loads dataset.pkl, split.pkl, candidates_eval.pkl,
        # report.json and the exported CSVs by these names: renaming one breaks it
        for name in ("dataset.pkl", "split.pkl", "candidates_eval.pkl",
                     "labeled.pkl", "labels.csv", "contexts_train.csv", "meta.pkl",
                     "importances.csv", "evaluation.pkl", "per_user_metrics.csv",
                     "report.txt", "report.json", "manifest.json"):
            assert (completed_run / name).exists(), name
        # one fitted candidate set labels the training users and serves the test users
        assert not (completed_run / "candidates_train.pkl").exists()

    def test_manifest_covers_all_outputs(self, completed_run):
        manifest = json.loads((completed_run / "manifest.json").read_text())
        files = manifest["files"]
        on_disk = {n for n in os.listdir(completed_run) if n != "manifest.json"}
        assert set(files) == on_disk
        for name, digest in files.items():
            actual = hashlib.sha256((completed_run / name).read_bytes()).hexdigest()
            assert actual == digest, name

    def test_report_layout(self, completed_run):
        text = (completed_run / "report.txt").read_text()
        for col in ("P@3", "P@5", "P@10", "R@3", "R@5", "R@10", "nDCG", "RMSE"):
            assert col in text
        for row in ("BaselineOnly", "CoClustering", "SlopeOne", "SvdMf",
                    "Hybrid", "Opt. hybrid"):
            assert row in text

    def test_report_json_parses(self, completed_run):
        blob = json.loads((completed_run / "report.json").read_text())
        assert "rows" in blob and "label_distribution" in blob
        oracle = blob["rows"]["Opt. hybrid"]["nDCG"]
        singles = [row["nDCG"] for name, row in blob["rows"].items()
                   if name not in ("Hybrid", "Opt. hybrid")]
        assert oracle >= max(singles) - 1e-12


class TestParity:
    """The staged CLI and the in-memory runner share one implementation."""

    @pytest.mark.parametrize("preset", ["cf", "mixed"])
    def test_run_all_matches_run_experiment(self, workdir, preset):
        out = workdir / f"parity_{preset}"
        path = write_config(workdir, name=f"parity_{preset}.json",
                            output_dir=str(out), preset=preset)
        assert main(["run-all", "--config", str(path)]) == 0
        cfg = load_config(path)
        dataset = enrich_items(
            load_movielens(cfg.ratings_path, cfg.users_path, cfg.items_path),
            cfg.metadata_path)
        report, _ = run_experiment(dataset, cfg.candidate_set(), cfg.split, cfg.forest,
                                   cfg.relevance, cfg.context, master_seed=cfg.seed,
                                   label_cutoff=cfg.label_cutoff)
        assert (out / "report.json").read_text() == report.to_json() + "\n"
        assert (out / "per_user_metrics.csv").read_text() == report.per_user_csv()


class TestOverrides:
    def test_env_seed_override(self, workdir, monkeypatch):
        path = write_config(workdir, name="env.json",
                            output_dir=str(workdir / "env_out"))
        monkeypatch.setenv("METAHYBRID_OUT", str(workdir / "env_out2"))
        assert main(["ingest", "--config", str(path)]) == 0
        assert (workdir / "env_out2" / "dataset.pkl").exists()
        assert not (workdir / "env_out" / "dataset.pkl").exists()

    def test_flag_beats_env(self, workdir, monkeypatch):
        path = write_config(workdir, name="env2.json")
        monkeypatch.setenv("METAHYBRID_OUT", str(workdir / "env_out3"))
        assert main(["ingest", "--config", str(path),
                     "--out", str(workdir / "flag_out")]) == 0
        assert (workdir / "flag_out" / "dataset.pkl").exists()
        assert not (workdir / "env_out3").exists()

    def test_ingest_independent_of_hash_seed(self, workdir):
        # each hash seed in a fresh interpreter; the item catalog's genre and
        # keyword sets must not pickle in string-hash order
        path = write_config(workdir, name="hashseed.json")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        pythonpath = os.pathsep.join([os.path.join(root, "src")] + sys.path)
        outputs = []
        for seed in ("1", "2"):
            out = workdir / f"hashseed_{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
            subprocess.run([sys.executable, "-m", "metahybrid.cli", "ingest",
                            "--config", str(path), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            outputs.append([(out / n).read_bytes() for n in ("dataset.pkl", "manifest.json")])
        assert outputs[0] == outputs[1]

    def test_rerun_is_reproducible(self, workdir, completed_run):
        out = workdir / "repeat_out"
        path = write_config(workdir, name="repeat.json", output_dir=str(out))
        assert main(["run-all", "--config", str(path)]) == 0
        assert (out / "report.json").read_text() == \
            (completed_run / "report.json").read_text()


class TestFixtureReports:
    """`run-all` on the shipped fixture config writes these exact reports, so
    a change that moves any reported figure shows here."""

    @pytest.mark.parametrize("preset, report_sha, per_user_sha", [
        ("cf", "4cc6a3ced8829e367adacf4b7ab519ad1b6bc9e169c2ac64eaae6c62d2e7ecd2",
         "8a11f69d4bb950b2be795ccaba736a7ce8f1f835145b561c70c911e7f1427217"),
        ("mixed", "ce7d46a9ebdda07208305ed1a379e5239ab4c2dabd39135613e849e496e14c12",
         "d24e75812d8466aa43836cd460fec0ecf825988fdd41ec52cf618be1e78ed295"),
    ])
    def test_run_all_reports_pinned(self, tmp_path, monkeypatch, preset, report_sha,
                                    per_user_sha):
        monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert main(["run-all", "--config", os.path.join("fixtures", "fixture.cfg"),
                     "--preset", preset, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == report_sha
        assert hashlib.sha256(
            (tmp_path / "per_user_metrics.csv").read_bytes()).hexdigest() == per_user_sha
