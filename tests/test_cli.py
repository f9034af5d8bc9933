import builtins
import copyreg
import hashlib
import io
import json
import os
import pickle
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from metahybrid import pipeline
from metahybrid.cli import main
from metahybrid.config import ConfigError, load_config
from metahybrid.data import Dataset, enrich_items, load_movielens
from metahybrid.evaluation import run_experiment
from metahybrid.forest import ForestModel
from metahybrid.metrics import ndcg_at
from metahybrid.fixtures import make_fixture, write_movielens_files
from metahybrid.recommenders.collaborative import KnnBasicModel, SlopeOneModel
from metahybrid.recommenders.content import ContentBasedModel
from metahybrid.recommenders.warp import WarpHybridModel


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


def old_layout_pickle(blob, cls, old_state=vars, **retired) -> bytes:
    """An artifact's `blob` as versions before the compact pickles wrote it:
    in a format-1 envelope, with every `cls` object stored as
    `old_state(obj)`, by default its whole `__dict__`, plus the `retired`
    attributes."""
    class OldPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is cls:
                return copyreg.__newobj__, (cls,), dict(old_state(obj), **retired)
            return NotImplemented

    fh = io.BytesIO()
    OldPickler(fh, protocol=4).dump(dict(blob, format_version=1))
    return fh.getvalue()


def rewrite_in_old_layout(path, cls, old_state=vars, **retired):
    path.write_bytes(old_layout_pickle(pickle.loads(path.read_bytes()), cls, old_state,
                                       **retired))


def dataset_before_row_counts(ds):
    """The ratings with their user column, which `Dataset.__setstate__` now fails on."""
    return {"ratings": ds.ratings, "items": ds.items, "users": ds.users,
            "provenance": ds.provenance}


def run_cli(*args) -> tuple:
    """(exit code, stderr) of `metahybrid` in a fresh interpreter, where an
    uncaught exception shows as its traceback."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src")] + sys.path))
    done = subprocess.run([sys.executable, "-m", "metahybrid.cli", *args], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stderr


def assert_refused(err, path):
    """`err` is the store's one refusal of the artifact at `path`."""
    assert f"cannot read {path} (" in err
    assert err.rstrip().endswith("rerun every stage from ingest, or run-all")
    assert "Traceback" not in err


# each pickled artifact and the first stage that reads it
FIRST_READS = [("dataset.pkl", "split"), ("split.pkl", "fit-candidates"),
               ("candidates_eval.pkl", "label"), ("labeled.pkl", "train-meta"),
               ("meta.pkl", "evaluate"), ("evaluation.pkl", "report")]


# the state each pickled class of the package keeps, as `LayoutRecorder`
# records it on both presets; any change here needs an ARTIFACT_FORMAT bump
PICKLED_LAYOUTS = {
    "BaselineOnlyModel": "bi:float64 bu:float64 fallback_count global_mean iidx item_ids "
                         "item_means mu params seed spec uidx user_ids user_means",
    "CoClusteringModel": "A:float64 Ag:float64 Ah:float64 fallback_count global_mean ig:int64 "
                         "iidx imean:float64 item_ids item_means params seed spec ug:int64 "
                         "uidx umean:float64 user_ids user_means",
    "ContentBasedModel": "_feature_cols:int32 _feature_ptr:int64 _n_features fallback_count "
                         "global_mean iidx item_ids item_means params profiles:float64 seed "
                         "spec uidx user_ids user_means",
    "ContextSchema": "age_bands genre_components genres include_age keyword_components "
                     "keywords max_runtime occupations",
    "Dataset": "item:uint8 item_ids items provenance rating:int8 timestamp:uint32 user_ids "
               "user_rows:int32 users",
    "ExperimentReport": "candidate_names confusion importances inner_ratio label_distribution "
                        "per_user rmse_activity rows seed skipped_eval_users "
                        "skipped_label_users tied_label_users",
    "ForestModel": "class_counts:uint8 class_weight:float64 d feature:int8 "
                   "importances:float64 labels params right:uint8 roots:int32 "
                   "threshold:float64",
    "ForestParams": "bootstrap class_weight max_depth max_features min_samples_leaf "
                    "min_samples_split n_estimators seed",
    "ItemRecord": "genres item_id keywords runtime_minutes title year",
    "KnnBasicModel": "_rater_ptr:int64 _rater_vals:int8 _raters:int32 fallback_count "
                     "global_mean iidx item_ids item_means params seed spec uidx user_ids "
                     "user_means",
    "LabeledTrainingSet": "candidate_names labels scores:float64 skipped_users tied_users "
                          "user_ids",
    "NestedSplit": "single_rating_users test_inner_test test_inner_train test_users "
                   "train_inner_test train_inner_train train_users",
    "PcaModel": "components:float64 d explained_variance_ratio:float64 k mean:float64",
    "RatingSlice": "item:uint8 item_ids ptr:int64 rating:int8 timestamp:uint32 user_ids users",
    "RecommenderSpec": "algorithm params",
    "SlopeOneModel": "_cols:int32 _ptr:int64 _vals:int8 fallback_count global_mean iidx "
                     "item_ids item_means params seed spec uidx user_ids user_means",
    "SvdMfModel": "bi:float64 bu:float64 fallback_count global_mean iidx item_ids item_means "
                  "mu p:float64 params q:float64 seed spec uidx user_ids user_means",
    "UserRecord": "age_band gender location occupation user_id",
    "WarpHybridModel": "F:float64 U:float64 _feature_cols:int32 _feature_ptr:int64 "
                       "_n_features b:float64 fallback_count global_mean iidx item_ids "
                       "item_means params seed spec uidx user_ids user_means",
}


def stale_artifact(kind, outdir, name) -> bytes:
    data = (outdir / name).read_bytes()
    if kind == "format-1":  # the current payload, as the first format stamped it
        return pickle.dumps({"format_version": 1, "payload": pickle.loads(data)["payload"]},
                            protocol=4)
    if kind == "truncated":
        return data[:len(data) // 2]
    if kind == "empty":
        return b""
    if kind == "non-dict":
        return pickle.dumps([1, 2])
    # "raising-state"
    return old_layout_pickle(pickle.loads((outdir / "dataset.pkl").read_bytes()), Dataset,
                             dataset_before_row_counts)


class LayoutRecorder(pickle.Pickler):
    """Records, per class of the package, the sorted keys of the state each
    of its objects pickles, with each array's dtype."""

    def __init__(self):
        super().__init__(io.BytesIO(), protocol=4)
        self.layouts = {}

    def reducer_override(self, obj):
        if type(obj).__module__.startswith("metahybrid."):
            state = obj.__reduce_ex__(4)[2]
            self.layouts[type(obj).__name__] = " ".join(
                f"{k}:{v.dtype}" if isinstance(v, np.ndarray) else k
                for k, v in sorted(state.items()))
        return NotImplemented


@pytest.fixture(scope="module")
def completed_run(workdir):
    cfg = write_config(workdir)
    assert main(["run-all", "--config", str(cfg)]) == 0
    return workdir / "out"


@pytest.fixture(scope="module")
def completed_mixed_run(workdir):
    cfg = write_config(workdir, name="mixed.json", preset="mixed",
                       output_dir=str(workdir / "mixed_out"))
    assert main(["run-all", "--config", str(cfg)]) == 0
    return workdir / "mixed_out"


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

    @pytest.mark.parametrize("cold, message", [
        ({"max_keep": "10"}, "max_keep must be null or an int >= min_keep"),
        ({"min_keep": 5, "max_keep": 4}, "max_keep must be null or an int >= min_keep"),
        ({"min_keep": 0}, "min_keep must be an int >= 1"),
        ({"min_keep": "5"}, "min_keep must be an int >= 1"),
    ])
    def test_bad_cold_start_values(self, workdir, capsys, cold, message):
        path = write_config(workdir, name="bad8.json", cold_start={"enabled": True, **cold})
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["ingest", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_preset_override_with_candidates_rejected(self, workdir):
        path = write_config(workdir, name="bad9.json", preset=None,
                            candidates=[{"algorithm": "SlopeOne", "params": {}},
                                        {"algorithm": "SvdMf", "params": {}}])
        assert load_config(path).candidate_set().names == ["SlopeOne", "SvdMf"]
        with pytest.raises(ConfigError, match="the config lists candidates"):
            load_config(path, {"preset": "mixed"})

    @pytest.mark.parametrize("updates, message", [
        ({"candidates": [{"algorithm": "KnnBasic", "params": {"similarity": "cosine"}}]},
         r"KnnBasic: unknown params \['similarity'\]"),
        ({"candidates": [{"algorithm": "KnnBasic", "params": {"user_based": True}}]},
         r"KnnBasic: unknown params \['user_based'\]"),
        ({"forest": {"criterion": "gini"}}, r"forest: unknown keys \['criterion'\]"),
    ])
    def test_single_value_settings_rejected(self, workdir, updates, message):
        path = write_config(workdir, name="bad10.json", preset=None, **updates)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_missing_config_file(self, workdir, capsys):
        assert main(["ingest", "--config", str(workdir / "nope.json")]) == 1
        assert "nope.json: No such file or directory" in capsys.readouterr().err

    def test_config_path_is_a_directory(self, workdir, capsys):
        assert main(["ingest", "--config", str(workdir)]) == 1
        err = capsys.readouterr().err
        assert f"cannot read config file {workdir}: Is a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("candidates, message", [
        ("SvdMf", "candidates must be a list"),
        ({"algorithm": "SvdMf"}, "candidates must be a list"),
        (["SlopeOne", "SvdMf"], r"candidates\[0\] must be an object"),
        ([{"algorithm": "SlopeOne"}, {"params": {}}], r"candidates\[1\] must be an object"),
        ([{"algorithm": "SvdMf", "params": 5}], r"candidates\[0\]\.params must be an object"),
    ], ids=["string", "object", "string-entries", "no-algorithm", "params-int"])
    def test_bad_candidates_shape(self, workdir, capsys, candidates, message):
        path = write_config(workdir, name="bad11.json", preset=None, candidates=candidates)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["ingest", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "candidates" in err and "Traceback" not in err

    @pytest.mark.parametrize("updates, message", [
        ({"relevance": {"cutoffs": 5}}, r"relevance: unknown keys \['cutoffs'\]"),
        ({"relevance": {"cutoffs": [0]}}, r"relevance: unknown keys \['cutoffs'\]"),
        ({"relevance": {"cutoffs": [5, 10]}}, r"relevance: unknown keys \['cutoffs'\]"),
        ({"relevance": {"gain": "binary"}}, r"relevance: unknown keys \['gain'\]"),
        ({"relevance": {"threshold": "4"}}, r"threshold must be an int in \[1,5\]"),
        ({"relevance": {"ndcg_cutoff": 10}}, r"relevance: unknown keys \['ndcg_cutoff'\]"),
        ({"split": {"inner_ratio": "0.8"}}, r"inner_ratio must be a number in \(0,1\)"),
        ({"context": {"max_keywords": "x"}}, "max_keywords must be an int >= 0"),
        ({"context": {"genre_components": -1}}, "genre_components must be an int >= 0"),
        ({"context": {"include_age": "no"}}, "include_age must be true or false"),
        ({"cold_start": {"enabled": "no"}}, "cold_start.enabled must be true or false"),
        ({"dataset": {"format": "generic", "ratings": 5}},
         "dataset.ratings must be a non-empty path string"),
        ({"dataset": {"format": "generic", "ratings": 0}},
         "dataset.ratings must be a non-empty path string"),
        ({"dataset": {"ratings": "r.dat", "users": ["u"], "items": "m.dat"}},
         "dataset.users must be a non-empty path string"),
        ({"dataset": {"ratings": "r.dat", "users": "u.dat", "items": ""}},
         "dataset.items must be a non-empty path string"),
        ({"dataset": {"format": "generic", "ratings": "r.csv", "metadata": ["x"]}},
         "dataset.metadata must be a non-empty path string"),
        ({"min_ratings": [1]}, "min_ratings must be an int >= 0"),
        ({"min_ratings": 2.7}, "min_ratings must be an int >= 0"),
        ({"min_ratings": -3}, "min_ratings must be an int >= 0"),
        ({"min_ratings": True}, "min_ratings must be an int >= 0"),
        ({"seed": [1]}, "seed must be an int"),
        ({"seed": 2.7}, "seed must be an int"),
        ({"seed": True}, "seed must be an int"),
        ({"seed": "7"}, "seed must be an int"),
        ({"split": 5}, "split must be an object"),
        ({"dataset": 5}, "dataset must be an object"),
        ({"cold_start": 5}, "cold_start must be an object"),
        ({"context": None}, "context must be an object"),
        ({"forest": [1]}, "forest must be an object"),
        ({"relevance": "x"}, "relevance must be an object"),
        ({"output_dir": 5}, "output_dir must be a non-empty path string"),
        ({"output_dir": ""}, "output_dir must be a non-empty path string"),
        ({"preset": []}, r"unknown preset \[\]"),
        ({"preset": False}, "unknown preset False"),
        ({"preset": 0}, "unknown preset 0"),
        ({"preset": ""}, "unknown preset ''"),
    ], ids=["cutoffs-int", "cutoffs-zero", "cutoffs-no-3", "gain-binary",
            "threshold-string", "ndcg-cutoff-unknown", "inner-ratio-string",
            "max-keywords-string", "genre-components-negative", "include-age-string",
            "cold-start-string",
            "ratings-int", "ratings-zero", "users-list", "items-empty",
            "metadata-list", "min-ratings-list", "min-ratings-float",
            "min-ratings-negative", "min-ratings-bool", "seed-list", "seed-float",
            "seed-bool", "seed-string", "split-int", "dataset-int", "cold-start-int",
            "context-null", "forest-list", "relevance-string", "output-dir-int",
            "output-dir-empty", "preset-list", "preset-false", "preset-zero",
            "preset-empty"])
    def test_bad_section_values(self, workdir, capsys, updates, message):
        path = write_config(workdir, name="bad13.json", **updates)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["run-all", "--config", str(path),
                     "--out", str(workdir / "bad_value_out")]) == 1
        err = capsys.readouterr().err
        assert re.search(message, err) and "Traceback" not in err
        # rejected before ingest wrote anything
        assert not (workdir / "bad_value_out").exists()

    @pytest.mark.parametrize("preset", [None, "absent"])
    def test_preset_null_or_absent_means_cf(self, workdir, preset):
        path = write_config(workdir, name="preset_null.json", preset=preset)
        if preset == "absent":
            raw = json.loads(path.read_text())
            del raw["preset"]
            path.write_text(json.dumps(raw))
        assert load_config(path).candidate_set().names == [
            "BaselineOnly", "CoClustering", "SlopeOne", "SvdMf"]

    @pytest.mark.parametrize("rows, kind", [
        ("1,10,4,100\nu2,10,3,200\n", "user"),
        ("1,10,4,100\n1,i2,3,200\n", "item"),
    ], ids=["user-ids", "item-ids"])
    def test_mixed_id_types_rejected(self, workdir, capsys, rows, kind):
        ratings = workdir / f"mixed_{kind}_ids.csv"
        ratings.write_text("user,item,rating,timestamp\n" + rows)
        path = write_config(workdir, name="mixed_ids.json",
                            dataset={"format": "generic", "ratings": str(ratings)})
        assert main(["run-all", "--config", str(path),
                     "--out", str(workdir / "mixed_ids_out")]) == 1
        err = capsys.readouterr().err
        assert f"{kind} ids mix types" in err and "Traceback" not in err

    def test_config_not_an_object(self, workdir, capsys):
        path = workdir / "list.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match="must be an object"):
            load_config(path)
        assert main(["run-all", "--config", str(path),
                     "--out", str(workdir / "list_out")]) == 1
        err = capsys.readouterr().err
        assert "list.json must be an object" in err and "Traceback" not in err
        assert not (workdir / "list_out").exists()

    @pytest.mark.parametrize("cutoff", [0, -1, True, 2.5, "10"])
    def test_bad_label_cutoff(self, workdir, capsys, cutoff):
        path = write_config(workdir, name="bad12.json", label_cutoff=cutoff)
        with pytest.raises(ConfigError, match="label_cutoff must be an int >= 1"):
            load_config(path)
        assert main(["run-all", "--config", str(path),
                     "--out", str(workdir / "bad_cutoff_out")]) == 1
        assert "label_cutoff" in capsys.readouterr().err
        # rejected before ingest wrote anything
        assert not (workdir / "bad_cutoff_out").exists()


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

    @pytest.mark.parametrize("kind", ["format-1", "truncated", "empty", "non-dict",
                                      "raising-state"])
    @pytest.mark.parametrize("name, stage", FIRST_READS, ids=[n for n, _ in FIRST_READS])
    def test_stale_artifact_refused(self, workdir, completed_run, capsys, name, stage, kind):
        out = workdir / f"stale_{name}_{kind}_out"
        shutil.copytree(completed_run, out)
        (out / name).write_bytes(stale_artifact(kind, completed_run, name))
        path = write_config(workdir, name="stale.json", output_dir=str(out))
        assert main([stage, "--config", str(path)]) == 1
        assert_refused(capsys.readouterr().err, out / name)

    def test_artifact_that_is_a_directory_refused(self, workdir, completed_run):
        out = workdir / "directory_split_out"
        shutil.copytree(completed_run, out)
        os.remove(out / "split.pkl")
        os.mkdir(out / "split.pkl")
        path = write_config(workdir, name="directory_split.json", output_dir=str(out))
        code, err = run_cli("fit-candidates", "--config", str(path))
        assert code == 1 and "Traceback" not in err
        assert err.splitlines()[-1] == (f"error [fit-candidates]: cannot read "
                                        f"{out / 'split.pkl'} (IsADirectoryError: Is a directory)")

    def test_output_directory_that_is_a_file_refused(self, workdir):
        target = workdir / "out_is_a_file"
        target.write_text("")
        path = write_config(workdir, name="file_out.json")
        code, err = run_cli("ingest", "--config", str(path), "--out", str(target))
        assert code == 1 and "Traceback" not in err
        assert err.splitlines()[-1] == (f"error [ingest]: cannot write {target} "
                                        f"(FileExistsError: File exists)")
        assert target.read_text() == ""

    @pytest.mark.parametrize("text", ["{", "[]"], ids=["not-json", "not-an-object"])
    def test_malformed_manifest_refused(self, workdir, completed_run, text):
        out = workdir / "malformed_manifest_out"
        shutil.copytree(completed_run, out)
        (out / "manifest.json").write_text(text)
        before = {n: (out / n).read_bytes() for n in os.listdir(out)}
        path = write_config(workdir, name="malformed_manifest.json", output_dir=str(out))
        code, err = run_cli("report", "--config", str(path))
        assert code == 1 and "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"error [report]: cannot read {out / 'manifest.json'} (not a JSON object "
            f"with a files map); remove it, or write to another output directory")
        assert {n: (out / n).read_bytes() for n in os.listdir(out)} == before
        shutil.rmtree(out)

    @pytest.mark.parametrize("stage", list(pipeline.STAGES) + ["run-all"])
    def test_malformed_manifest_stops_every_stage(self, workdir, completed_run, capsys, stage):
        out = workdir / f"malformed_manifest_{stage}_out"
        shutil.copytree(completed_run, out)
        (out / "manifest.json").write_text('{"files": []}')
        before = {n: (out / n).read_bytes() for n in os.listdir(out)}
        path = write_config(workdir, name="malformed_manifest.json", output_dir=str(out))
        assert main([stage, "--config", str(path)]) == 1
        assert f"cannot read {out / 'manifest.json'} (" in capsys.readouterr().err
        assert {n: (out / n).read_bytes() for n in os.listdir(out)} == before

    def test_evaluate_rejects_meta_without_forest(self, workdir, completed_run, capsys):
        out = workdir / "stale_meta_out"
        shutil.copytree(completed_run, out)
        with open(out / "meta.pkl", "wb") as fh:
            pickle.dump({"format_version": 1, "payload": {"forest": None}}, fh)
        path = write_config(workdir, name="stale.json", output_dir=str(out))
        assert main(["evaluate", "--config", str(path)]) == 1
        assert_refused(capsys.readouterr().err, out / "meta.pkl")

    def test_evaluate_rejects_forest_of_older_version(self, workdir, completed_run, capsys):
        out = workdir / "old_forest_out"
        shutil.copytree(completed_run, out)
        # the linked trees, as pickled before the flat node arrays
        rewrite_in_old_layout(out / "meta.pkl", ForestModel, lambda forest: {
            "trees": forest.trees, "labels": forest.labels, "d": forest.d,
            "params": forest.params, "importances_": forest.importances})
        path = write_config(workdir, name="old_forest.json", output_dir=str(out))
        assert main(["evaluate", "--config", str(path)]) == 1
        assert_refused(capsys.readouterr().err, out / "meta.pkl")

    def test_evaluate_rejects_float_class_counts(self, workdir, completed_run, capsys):
        out = workdir / "float_counts_out"
        shutil.copytree(completed_run, out)
        # the weighted float counts, as pickled before the narrow sample counts
        rewrite_in_old_layout(out / "meta.pkl", ForestModel, lambda forest: {
            **{k: v for k, v in vars(forest).items() if k != "class_weight"},
            "class_counts": forest.weighted_counts()})
        path = write_config(workdir, name="float_counts.json", output_dir=str(out))
        assert main(["evaluate", "--config", str(path)]) == 1
        assert_refused(capsys.readouterr().err, out / "meta.pkl")

    @pytest.mark.parametrize("stage", ["split", "evaluate"])
    def test_stage_rejects_dataset_with_user_column(self, workdir, completed_run, capsys,
                                                    stage):
        out = workdir / f"user_column_{stage}_out"
        shutil.copytree(completed_run, out)
        rewrite_in_old_layout(out / "dataset.pkl", Dataset, dataset_before_row_counts)
        path = write_config(workdir, name=f"user_column_{stage}.json", output_dir=str(out))
        assert main([stage, "--config", str(path)]) == 1
        assert_refused(capsys.readouterr().err, out / "dataset.pkl")

    @pytest.mark.parametrize("stage,name", [("label", "candidates_eval.pkl"),
                                            ("evaluate", "candidates_eval.pkl")])
    def test_stage_rejects_candidates_of_older_version(self, workdir, completed_run, capsys,
                                                       stage, name):
        out = workdir / f"old_{stage}_out"
        shutil.copytree(completed_run, out)
        rewrite_in_old_layout(out / name, SlopeOneModel)
        path = write_config(workdir, name=f"old_{stage}.json", output_dir=str(out))
        assert main([stage, "--config", str(path)]) == 1
        assert_refused(capsys.readouterr().err, out / name)

    @pytest.mark.parametrize("stage", ["label", "evaluate"])
    def test_stage_rejects_slope_one_user_dict(self, workdir, completed_run, capsys, stage):
        out = workdir / f"slope_one_dict_{stage}_out"
        shutil.copytree(completed_run, out)
        # each user's (catalog indexes, ratings) array pair in a dict, as
        # pickled before the row columns
        rewrite_in_old_layout(out / "candidates_eval.pkl", SlopeOneModel, lambda model: {
            **{k: v for k, v in model.__getstate__().items()
               if k not in ("_ptr", "_cols", "_vals")},
            "_user_items": {uid: (idx.astype(np.int64), vals.astype(float))
                            for uid, (idx, vals) in zip(
                                model.user_ids, map(model._rows, range(len(model.user_ids))))}})
        path = write_config(workdir, name=f"slope_one_dict_{stage}.json", output_dir=str(out))
        assert main([stage, "--config", str(path)]) == 1
        assert_refused(capsys.readouterr().err, out / "candidates_eval.pkl")

    @pytest.mark.parametrize("stage", ["label", "evaluate"])
    @pytest.mark.parametrize("cls", [KnnBasicModel, ContentBasedModel, WarpHybridModel],
                             ids=["KnnBasic", "ContentBased", "WarpHybrid"])
    def test_stage_rejects_dense_models_of_older_version(self, workdir, completed_mixed_run,
                                                         capsys, stage, cls):
        # KnnBasic's square similarity matrix, ContentBased's dense features
        # or WarpHybrid's per-item feature index lists
        retired = {"_item_feats": [[0, 5]]} if cls is WarpHybridModel else {}
        out = workdir / f"old_{cls.__name__}_{stage}_out"
        shutil.copytree(completed_mixed_run, out)
        rewrite_in_old_layout(out / "candidates_eval.pkl", cls, **retired)
        path = write_config(workdir, name=f"old_{cls.__name__}_{stage}.json",
                            preset="mixed", output_dir=str(out))
        assert main([stage, "--config", str(path)]) == 1
        assert_refused(capsys.readouterr().err, out / "candidates_eval.pkl")

    @pytest.mark.parametrize("stage", ["label", "evaluate"])
    @pytest.mark.parametrize("cls, old_state", [
        # KnnBasic's upper similarity triangle
        (KnnBasicModel, lambda m: {**m.__getstate__(), "_sim_upper": m.sim[
            np.triu_indices(len(m.user_ids), 1)]}),
        # ContentBased's per-user profile and norm dicts
        (ContentBasedModel, lambda m: {
            **m.__getstate__(), "profiles": dict(zip(m.user_ids, m.profiles)),
            "_profile_norms": dict(zip(m.user_ids, m._profile_norms.tolist()))}),
    ], ids=["KnnBasic", "ContentBased"])
    def test_stage_rejects_compact_models_of_older_version(self, workdir, completed_mixed_run,
                                                           capsys, stage, cls, old_state):
        out = workdir / f"compact_{cls.__name__}_{stage}_out"
        shutil.copytree(completed_mixed_run, out)
        rewrite_in_old_layout(out / "candidates_eval.pkl", cls, old_state)
        path = write_config(workdir, name=f"compact_{cls.__name__}_{stage}.json",
                            preset="mixed", output_dir=str(out))
        assert main([stage, "--config", str(path)]) == 1
        assert_refused(capsys.readouterr().err, out / "candidates_eval.pkl")

    def test_pickled_layouts_are_pinned(self, completed_run, completed_mixed_run):
        # the store tells an older layout from the current one by the
        # format number alone, so a layout change must bump it
        recorder = LayoutRecorder()
        for outdir in (completed_run, completed_mixed_run):
            for name, _ in FIRST_READS:
                recorder.dump(pickle.loads((outdir / name).read_bytes()))
        assert (pipeline.ARTIFACT_FORMAT, recorder.layouts) == (3, PICKLED_LAYOUTS), (
            "a pickled layout changed: bump ARTIFACT_FORMAT and re-pin")

    def test_train_meta_does_not_read_serving_models(self, workdir, completed_run):
        # train-meta trains the forest only; the serving models are read by evaluate
        out = workdir / "no_eval_models_out"
        shutil.copytree(completed_run, out)
        os.remove(out / "candidates_eval.pkl")
        path = write_config(workdir, name="no_eval_models.json", output_dir=str(out))
        assert main(["train-meta", "--config", str(path)]) == 0
        assert (out / "meta.pkl").read_bytes() == (completed_run / "meta.pkl").read_bytes()


class TestStagedEqualsRunAll:
    """`run-all` hands each stage's outputs on in memory, and single stages
    load them from disk: both ways write the same files."""

    @pytest.mark.parametrize("preset", ["cf", "mixed"])
    def test_same_files(self, workdir, preset):
        staged, chained = workdir / f"staged_{preset}", workdir / f"chained_{preset}"
        path = write_config(workdir, name=f"staged_{preset}.json", preset=preset)
        for stage in pipeline.STAGES:
            assert main([stage, "--config", str(path), "--out", str(staged)]) == 0, stage
        assert main(["run-all", "--config", str(path), "--out", str(chained)]) == 0
        names = sorted(os.listdir(chained))
        assert sorted(os.listdir(staged)) == names
        for name in names:
            if name == "evaluation.pkl":
                # the pickle memo may share equal strings differently: compare
                # the unpickled reports
                with open(staged / name, "rb") as a, open(chained / name, "rb") as b:
                    left, right = pickle.load(a)["payload"], pickle.load(b)["payload"]
                assert left.to_json() == right.to_json()
                assert left.per_user == right.per_user
            elif name == "manifest.json":
                for out in (staged, chained):
                    files = json.loads((out / name).read_text())["files"]
                    assert sorted(files) == [n for n in names if n != name]
                    for n, digest in files.items():
                        assert hashlib.sha256((out / n).read_bytes()).hexdigest() == digest, n
            else:
                assert (staged / name).read_bytes() == (chained / name).read_bytes(), name


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

    def test_manifest_written_once_per_stage(self, workdir, monkeypatch):
        dumps = []
        real_dump = pipeline.json.dump

        def dump(obj, fh, **kwargs):
            dumps.append(fh.name)
            real_dump(obj, fh, **kwargs)

        monkeypatch.setattr(pipeline.json, "dump", dump)
        out = workdir / "manifest_once_out"
        path = write_config(workdir, name="manifest_once.json", output_dir=str(out))
        assert main(["run-all", "--config", str(path)]) == 0
        assert dumps == [str(out / "manifest.json")] * len(pipeline.STAGES)

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


class TestLabelCutoff:
    """`label_cutoff` is the one nDCG cutoff, of the labels and of the report."""

    def test_staged_run_reports_the_label_cutoff(self, workdir, completed_run):
        out = workdir / "cutoff5_out"
        path = write_config(workdir, name="cutoff5.json", label_cutoff=5,
                            output_dir=str(out))
        assert main(["run-all", "--config", str(path)]) == 0
        report, fitted, split = (pickle.loads((out / name).read_bytes())["payload"]
                                 for name in ("evaluation.pkl", "candidates_eval.pkl",
                                              "split.pkl"))
        names = report.candidate_names
        for row in report.per_user:
            uid = row["user_id"]
            test, train = split.test_inner_test[uid], split.test_inner_train.get(uid)
            holdout = {r.item_id: r.rating for r in test}
            exclude = {r.item_id for r in train} if train else set()
            for name in names:
                ranked = fitted[name].recommend_top_n(uid, 5, exclude=exclude)
                assert row[f"{name}:nDCG"] == ndcg_at(ranked, holdout, 5)
        best = [max(row[f"{n}:nDCG"] for n in names) for row in report.per_user]
        assert best and report.rows["Opt. hybrid"]["nDCG"] == np.mean(best)
        # the default run differs from this one only in `label_cutoff`
        for name in ("labels.csv", "report.json"):
            assert (out / name).read_text() != (completed_run / name).read_text()


class TestOverrides:
    def test_environment_ignored(self, workdir, monkeypatch):
        # a stale shell variable cannot change a run
        path = write_config(workdir, name="env.json",
                            output_dir=str(workdir / "env_out"))
        for name, value in (("OUT", str(workdir / "env_out2")), ("SEED", "9"),
                            ("PRESET", "mixed"), ("INNER_RATIO", "0.5"),
                            ("NDCG_CUTOFF", "5")):
            monkeypatch.setenv(f"METAHYBRID_{name}", value)
        cfg = load_config(path)
        assert (cfg.output_dir, cfg.seed, cfg.preset) == (str(workdir / "env_out"), 5, "cf")
        assert cfg.split.inner_ratio == 0.8 and cfg.label_cutoff == 10
        assert main(["ingest", "--config", str(path)]) == 0
        assert (workdir / "env_out" / "dataset.pkl").exists()
        assert not (workdir / "env_out2").exists()

    def test_flag_beats_env(self, workdir, monkeypatch):
        path = write_config(workdir, name="env2.json")
        monkeypatch.setenv("METAHYBRID_OUT", str(workdir / "env_out3"))
        assert main(["ingest", "--config", str(path),
                     "--out", str(workdir / "flag_out")]) == 0
        assert (workdir / "flag_out" / "dataset.pkl").exists()
        assert not (workdir / "env_out3").exists()

    @pytest.mark.parametrize("flag, key", [("--ndcg-cutoff", "ndcg_cutoff"),
                                           ("--inner-ratio", "inner_ratio")],
                             ids=["ndcg-cutoff", "inner-ratio"])
    def test_single_key_flags_removed(self, workdir, capsys, flag, key):
        # the file's `label_cutoff` and `split.inner_ratio` are their one source
        path = write_config(workdir, name="removed_flag.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["run-all", "--config", str(path), flag, "5"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        with pytest.raises(ConfigError, match=rf"unknown overrides \['{key}'\]"):
            load_config(path, {key: 5})

    @pytest.mark.parametrize("via", ["flag", "overrides"])
    def test_empty_output_dir_override_rejected(self, workdir, capsys, via):
        path = write_config(workdir, name="empty_out.json")
        if via == "flag":
            assert main(["ingest", "--config", str(path), "--out", ""]) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
        else:
            with pytest.raises(ConfigError) as raised:
                load_config(path, {"output_dir": ""})
            err = str(raised.value)
        assert "output_dir must be a non-empty path string" in err

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


class TestArtifactRoundTrip:
    """A loaded artifact pickles to the bytes it was loaded from, so an
    artifact re-written from a loaded object keeps its manifest digest."""

    @pytest.mark.parametrize("name", ["candidates_eval.pkl", "meta.pkl", "dataset.pkl",
                                      "split.pkl", "labeled.pkl", "evaluation.pkl"])
    def test_loaded_artifact_pickles_to_its_bytes(self, completed_run, completed_mixed_run,
                                                  name):
        for out in (completed_run, completed_mixed_run):
            blob = (out / name).read_bytes()
            assert pickle.dumps(pickle.loads(blob), protocol=4) == blob, out.name


class TestFixtureReports:
    """`run-all` on the shipped fixture config writes these exact reports, so
    a change that moves any reported figure shows here."""

    # upper bounds on the pickles that hold models, ratings and labels: the
    # sizes written today, so that a wider layout fails
    MAX_BYTES = {"candidates_eval.pkl": {"cf": 229_503, "mixed": 396_641},
                 "meta.pkl": {"cf": 52_950, "mixed": 44_278},
                 "dataset.pkl": {"cf": 139_667, "mixed": 139_667},
                 "split.pkl": {"cf": 76_235, "mixed": 76_235},
                 "labeled.pkl": {"cf": 13_558, "mixed": 12_376}}

    # an upper bound on every file of the output directory together (the
    # benchmark's artifact_bytes): the total written today
    MAX_TOTAL_BYTES = {"cf": 741_399, "mixed": 882_565}

    # preset, sha256 of report.json, sha256 of per_user_metrics.csv
    PINNED = [
        ("cf", "4cc6a3ced8829e367adacf4b7ab519ad1b6bc9e169c2ac64eaae6c62d2e7ecd2",
         "8a11f69d4bb950b2be795ccaba736a7ce8f1f835145b561c70c911e7f1427217"),
        ("mixed", "ce7d46a9ebdda07208305ed1a379e5239ab4c2dabd39135613e849e496e14c12",
         "d24e75812d8466aa43836cd460fec0ecf825988fdd41ec52cf618be1e78ed295"),
    ]

    # sha256 of labels.csv, which the label stage writes from the TRh score table
    LABELS_PINNED = {
        "cf": "8f135b92c386b2e17b736eb8a613348cadc2c5a4d5c3c8d9a93cde0b464b00eb",
        "mixed": "aff867a87b37eb469d058c394ac266ab4b94258be4785155a5b57e7c9703af54",
    }

    # sha256 of report.txt, whose columns are metrics.METRIC_COLUMNS
    REPORT_TXT_PINNED = {
        "cf": "e9e19fb885c213d86222fa03b158192b10f0742e2b664e9fe0f4e9ba06345482",
        "mixed": "bcee3ee64cbb496fffc6f1846d0aa379b21e507e9b8b6f9f41e74db2af2e431c",
    }

    # sha256 of contexts_train.csv, the TRh context matrix; equal on both presets
    CONTEXTS_PINNED = "d56692729720594a4f6a90668634cf9dba0470d3f2168c01ed3f2d01076afb59"

    @pytest.mark.parametrize("preset, report_sha, per_user_sha", PINNED)
    def test_run_all_reports_pinned(self, tmp_path, monkeypatch, preset, report_sha,
                                    per_user_sha):
        monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert main(["run-all", "--config", os.path.join("fixtures", "fixture.cfg"),
                     "--preset", preset, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == report_sha
        assert hashlib.sha256((tmp_path / "report.txt").read_bytes()).hexdigest() \
            == self.REPORT_TXT_PINNED[preset]
        assert hashlib.sha256(
            (tmp_path / "per_user_metrics.csv").read_bytes()).hexdigest() == per_user_sha
        assert hashlib.sha256(
            (tmp_path / "labels.csv").read_bytes()).hexdigest() == self.LABELS_PINNED[preset]
        assert hashlib.sha256(
            (tmp_path / "contexts_train.csv").read_bytes()).hexdigest() == self.CONTEXTS_PINNED
        # no pickle holds state that it can rebuild on load, or wider columns
        for name, bound in self.MAX_BYTES.items():
            assert (tmp_path / name).stat().st_size <= bound[preset], name
        total = sum(entry.stat().st_size for entry in tmp_path.iterdir())
        assert total <= self.MAX_TOTAL_BYTES[preset]

    @pytest.mark.parametrize("preset", ["cf", "mixed"])
    def test_run_all_reads_no_pickle_back(self, tmp_path, monkeypatch, preset):
        outs = [tmp_path / "first", tmp_path / "second"]
        real_open = builtins.open

        def no_load(*args, **kwargs):
            raise AssertionError("run-all read a pickle back")

        def no_read_open(file, mode="r", *args, **kwargs):
            # any file of an output directory, CSVs and the manifest included
            if (not set(mode) & set("wax") and isinstance(file, (str, os.PathLike))
                    and os.path.dirname(os.path.abspath(file)) in map(str, outs)):
                raise AssertionError(f"run-all read {file} back")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        monkeypatch.setattr(pipeline.pickle, "load", no_load)
        monkeypatch.setattr(pipeline.pickle, "loads", no_load)
        monkeypatch.setattr(builtins, "open", no_read_open)
        for out in outs:
            assert main(["run-all", "--config", os.path.join("fixtures", "fixture.cfg"),
                         "--preset", preset, "--out", str(out)]) == 0
        # a stage run alone does load its inputs, so the patches above were live
        with pytest.raises(AssertionError, match="read .* back"):
            main(["split", "--config", os.path.join("fixtures", "fixture.cfg"),
                  "--preset", preset, "--out", str(outs[0])])
        monkeypatch.undo()

        pinned = {p: (r, u) for p, r, u in self.PINNED}[preset]
        for out in outs:
            assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == pinned[0]
            assert hashlib.sha256((out / "report.txt").read_bytes()).hexdigest() \
                == self.REPORT_TXT_PINNED[preset]
            assert hashlib.sha256(
                (out / "per_user_metrics.csv").read_bytes()).hexdigest() == pinned[1]
            assert hashlib.sha256(
                (out / "labels.csv").read_bytes()).hexdigest() == self.LABELS_PINNED[preset]
            assert hashlib.sha256(
                (out / "contexts_train.csv").read_bytes()).hexdigest() == self.CONTEXTS_PINNED
            files = json.loads((out / "manifest.json").read_text())["files"]
            assert set(files) == set(os.listdir(out)) - {"manifest.json"}
            for name, digest in files.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        # no state carries over from one call to the next
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
