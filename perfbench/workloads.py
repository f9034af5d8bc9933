"""The four workloads. Each runs in the calling process: set-up, then whole
rounds of the same operations for the run length, then the output checks.

A round is one pipeline invocation on the batch workloads (`run-all`, or
`run_experiment`) and one pass over every test user on `serve-cf`. With
tracing on, odd rounds are traced and even rounds are not, so one run gives
both the per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import pickle
import random
import shutil
import statistics
import time

import checks
from tracing import Tracer

FIXTURE_CFG = os.path.join("fixtures", "fixture.cfg")
FIXTURE_SEED = 7            # master seed of fixtures/fixture.cfg
SCALED = {"n_users": 200, "n_items": 1500, "seed": 13, "trees": 20}
SMOKE = {"n_users": 40, "n_items": 80, "seed": 2, "trees": 5}
CHECK_USERS = 8             # users sampled for the brute-force checks
REQUEST_N = 10
METRIC_COLUMNS = ("P@3", "P@5", "P@10", "R@3", "R@5", "R@10", "nDCG", "RMSE")
EXPORTED_CSVS = ("labels.csv", "contexts_train.csv", "per_user_metrics.csv",
                 "importances.csv")


class _ByteCounter(io.RawIOBase):
    def __init__(self):
        self.n = 0

    def writable(self):
        return True

    def write(self, b):
        self.n += len(b)
        return len(b)


def pickled_size(obj) -> int:
    counter = _ByteCounter()
    pickle.dump(obj, counter, protocol=4)
    return counter.n


def dir_size(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def request_metrics(latencies, busy_s) -> dict:
    p99 = (statistics.quantiles(latencies, n=100, method="inclusive")[98]
           if len(latencies) > 1 else latencies[0])
    return {"request_p50_ms": statistics.median(latencies) * 1e3,
            "request_p99_ms": p99 * 1e3,
            "requests_per_s": len(latencies) / busy_s}


class Workload:
    """Set-up, timed rounds and the checks on the report they produce."""

    setup_reps = 3
    warmup_rounds = 1

    def __init__(self, workdir: str, seed: int, smoke: bool):
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.failed_ops: list = []
        self.rounds: list = []     # (seconds, traced)
        self.report_json: list = []    # report.json text of every round

    def setup(self):
        raise NotImplementedError

    def round(self, index: int, traced: bool):
        """One round of operations; returns nothing, records its own ops."""
        raise NotImplementedError

    def run(self, seconds: float, trace: bool, min_rounds: int = 2):
        """`warmup_rounds` untimed rounds, then timed rounds until `seconds`
        have passed (at least `min_rounds`). The warm-up rounds' operations
        count too, so every round attempts the same operations."""
        for i in range(self.warmup_rounds):
            gc.collect()
            self.round(i, False)
        del self.rounds[:]
        start = time.perf_counter()
        i = 0
        while i < min_rounds or time.perf_counter() - start < seconds:
            traced = trace and i % 2 == 1
            gc.collect()
            if traced:
                self.tracer.install()
            try:
                self.round(self.warmup_rounds + i, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            i += 1

    def overhead_pct(self) -> float:
        plain = [s for s, t in self.rounds if not t]
        traced = [s for s, t in self.rounds if t]
        return (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0

    def traced_rounds(self) -> int:
        return sum(1 for _, t in self.rounds if t)

    def op(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_ops.append(name)

    def end_to_end(self) -> dict:
        plain = [s for s, t in self.rounds if not t]
        out = {"run_s": statistics.median(plain)}
        out.update(request_metrics(plain, sum(plain)))
        return out

    def report_checks(self, report: dict, per_user: list, split, dataset,
                      fitted: dict, names) -> list:
        """Checks that need only the report, the per-user rows and the
        serving models of one invocation."""
        errors = checks.finite_numbers(report)
        errors += checks.finite_numbers(
            [{k: float(v) for k, v in u.items() if ":" in k} for u in per_user],
            "per_user")
        errors += checks.oracle_dominance(report["rows"], names)
        errors += checks.hybrid_row(report["rows"], per_user, METRIC_COLUMNS)
        errors += checks.report_counts(report, len(split.train_users))
        if len(set(self.report_json)) != 1:
            errors.append(f"report.json differs between the {len(self.report_json)} "
                          f"rounds of this run")

        catalog = sorted(dataset.items)
        train_items = {uid: {r.item_id for r in evs}
                       for uid, evs in split.test_inner_train.items()}
        holdouts = {uid: {r.item_id: float(r.rating) for r in evs}
                    for uid, evs in split.test_inner_test.items() if evs}
        rows = {int(u["user_id"]): u for u in per_user}
        users = sorted(uid for uid in holdouts if uid in rows)
        for uid in self.rng.sample(users, min(CHECK_USERS, len(users))):
            exclude = train_items.get(uid, set())
            name = rows[uid]["dispatched"]
            ranked = fitted[name].recommend_top_n(uid, REQUEST_N, exclude=exclude)
            own = checks.own_ndcg(ranked, holdouts[uid], REQUEST_N)
            stated = float(rows[uid][f"{name}:nDCG"])
            if abs(own - stated) > checks.TOL:
                errors.append(f"user {uid}: {name} nDCG {stated!r}, recomputed {own!r}")
            for cand in names:
                if cand != "WarpHybrid":  # ranks by a score, not by its rating
                    errors += checks.topn_matches_brute_force(
                        fitted[cand], uid, catalog, exclude, REQUEST_N)
        for cand in names:
            preds = [fitted[cand].predict_rating(uid, iid)
                     for uid in users for iid in sorted(holdouts[uid])]
            errors += checks.ratings_in_range(preds, f"{cand} RMSE path")
        return errors

    def report_extras(self, report: dict) -> dict:
        dispatched = {}
        for actual in report["confusion"].values():
            for name, count in actual.items():
                dispatched[name] = dispatched.get(name, 0) + count
        return {"report_sha256": hashlib.sha256(
                    self.report_json[-1].encode("utf-8")).hexdigest(),
                "dispatch_distribution": dict(sorted(dispatched.items()))}


class FixtureRunAll(Workload):
    """`metahybrid run-all` on the shipped fixture into a fresh directory."""

    setup_reps = 5

    def __init__(self, workdir, seed, smoke, preset: str):
        super().__init__(workdir, seed, smoke)
        self.preset = preset
        self.config = FIXTURE_CFG
        self.outdir = None

    def setup(self):
        from metahybrid import fixtures
        from metahybrid.config import load_config

        if self.smoke:
            data_dir = os.path.join(self.workdir, "smoke-data")
            fixtures.write_movielens_files(
                fixtures.make_fixture(SMOKE["n_users"], SMOKE["n_items"], SMOKE["seed"]),
                data_dir)
            self.config = os.path.join(self.workdir, "smoke.cfg")
            with open(self.config, "w", encoding="utf-8") as fh:
                json.dump({"schema_version": 1,
                           "dataset": {"format": "movielens",
                                       "ratings": os.path.join(data_dir, "ratings.dat"),
                                       "users": os.path.join(data_dir, "users.dat"),
                                       "items": os.path.join(data_dir, "movies.dat"),
                                       "metadata": os.path.join(data_dir, "metadata.csv")},
                           "forest": {"n_estimators": SMOKE["trees"]},
                           "seed": FIXTURE_SEED}, fh)
        load_config(self.config, {"preset": self.preset})

    def round(self, index, traced):
        from metahybrid import cli

        outdir = os.path.join(self.workdir, f"round-{index}")
        argv = ["run-all", "--config", self.config, "--out", outdir,
                "--preset", self.preset]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - t0
        self.rounds.append((elapsed, traced))
        self.op("run-all", rc == 0)
        if rc != 0:
            raise RuntimeError(f"run-all exited with {rc}")
        for name in EXPORTED_CSVS:
            self.op(f"read back {name}",
                    not checks.csv_readback(os.path.join(outdir, name)))
        with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
            self.report_json.append(fh.read())
        if self.outdir:
            shutil.rmtree(self.outdir)
        self.outdir = outdir

    def _load(self, name):
        with open(os.path.join(self.outdir, name), "rb") as fh:
            return pickle.load(fh)["payload"]

    def finish(self) -> tuple:
        """(end-to-end metrics, check failures, extras)."""
        report = json.loads(self.report_json[-1])
        with open(os.path.join(self.outdir, "per_user_metrics.csv"),
                  encoding="utf-8", newline="") as fh:
            per_user = list(csv.DictReader(fh))
        errors = self.report_checks(report, per_user, self._load("split.pkl"),
                                    self._load("dataset.pkl"),
                                    self._load("candidates_eval.pkl"),
                                    report["candidate_names"])
        metrics = self.end_to_end()
        metrics["artifact_bytes"] = dir_size(self.outdir)
        metrics["hybrid_ndcg"] = report["rows"]["Hybrid"]["nDCG"]
        return metrics, errors, self.report_extras(report)


class ScaledExperiment(Workload):
    """In-process `evaluation.run_experiment` on a generated dataset."""

    def setup(self):
        from metahybrid.fixtures import make_fixture

        size = SMOKE if self.smoke else SCALED
        self.dataset = make_fixture(n_users=size["n_users"], n_items=size["n_items"],
                                    seed=size["seed"])
        self.trees = size["trees"]

    def round(self, index, traced):
        from metahybrid import evaluation
        from metahybrid.forest import ForestParams
        from metahybrid.hybrid import preset_candidates
        from metahybrid.splits import SplitPlan

        t0 = time.perf_counter()
        report, artifacts = evaluation.run_experiment(
            self.dataset, preset_candidates("cf"), SplitPlan(),
            ForestParams(n_estimators=self.trees), master_seed=FIXTURE_SEED)
        elapsed = time.perf_counter() - t0
        self.rounds.append((elapsed, traced))
        self.op("run_experiment", True)
        self.report_json.append(report.to_json())
        self.last = (report, artifacts)

    def finish(self):
        report_obj, artifacts = self.last
        report = json.loads(self.report_json[-1])
        errors = self.report_checks(report, report_obj.per_user, artifacts["split"],
                                    self.dataset, artifacts["fitted_eval"],
                                    report["candidate_names"])
        metrics = self.end_to_end()
        metrics["artifact_bytes"] = pickled_size((report_obj, artifacts))
        metrics["hybrid_ndcg"] = report["rows"]["Hybrid"]["nDCG"]
        return metrics, errors, self.report_extras(report)


class ServePerUser(Workload):
    """Closed loop of single-user requests against a model fitted at set-up."""

    warmup_rounds = 0   # set-up ends with a warm-up pass

    def setup(self):
        from metahybrid import data, evaluation, hybrid
        from metahybrid.config import load_config
        from metahybrid.fixtures import make_fixture
        from metahybrid.forest import ForestParams

        cfg = load_config(FIXTURE_CFG)
        if self.smoke:
            self.dataset = make_fixture(SMOKE["n_users"], SMOKE["n_items"], SMOKE["seed"])
            forest = ForestParams(n_estimators=SMOKE["trees"])
        else:
            self.dataset = data.enrich_items(
                data.load_movielens(cfg.ratings_path, cfg.users_path, cfg.items_path),
                cfg.metadata_path)
            forest = cfg.forest
        report, self.artifacts = evaluation.run_experiment(
            self.dataset, cfg.candidate_set(), cfg.split, forest, cfg.relevance,
            cfg.context, master_seed=cfg.seed, label_cutoff=cfg.label_cutoff)
        self.report_obj = report
        self.report_json = [report.to_json()]
        split = self.artifacts["split"]
        self.exclude = {uid: frozenset(r.item_id for r in split.test_inner_train.get(uid, []))
                        for uid in split.test_users}
        self.order = list(split.test_users)
        random.Random(self.seed).shuffle(self.order)
        self.responses: dict = {}
        self.mismatches = 0
        self.latencies: list = []
        self.evaluation, self.hybrid = evaluation, hybrid
        # one untimed warm-up pass, so cold first requests do not make the tail
        for uid in self.order:
            self.responses[uid] = self.request(uid)

    def context_row(self, uid):
        """The user's context vector, built for that user alone."""
        meta = self.artifacts["meta"]
        matrix, _, _, _ = self.evaluation.build_contexts(
            [uid], self.artifacts["split"].test_inner_train, self.dataset,
            meta.schema, meta.pca_genres, meta.pca_keywords)
        return matrix[0]

    def request(self, uid):
        # module attributes are looked up per call, so traced runs see the wrappers
        return self.hybrid.recommend(self.artifacts["meta"], uid, self.context_row(uid),
                                     n=REQUEST_N, exclude=self.exclude[uid])

    def round(self, index, traced):
        tracer = self.tracer
        pass_start = time.perf_counter()
        for uid in self.order:
            t0 = time.perf_counter()
            if traced:
                tracer.request_id = self.attempted
                items = tracer.call("serve.request", self.request, uid)
            else:
                items = self.request(uid)
            elapsed = time.perf_counter() - t0
            if not traced:
                self.latencies.append(elapsed)
            self.op("request", True)
            first = self.responses.setdefault(uid, items)
            if first != items:
                self.mismatches += 1
        self.rounds.append((time.perf_counter() - pass_start, traced))
        tracer.request_id = None

    def end_to_end(self) -> dict:
        plain = [s for s, t in self.rounds if not t]
        out = {"run_s": statistics.median(plain)}
        out.update(request_metrics(self.latencies, sum(plain)))
        return out

    def finish(self):
        meta = self.artifacts["meta"]
        split = self.artifacts["split"]
        report = json.loads(self.report_json[0])
        errors = self.report_checks(report, self.report_obj.per_user, split,
                                    self.dataset, self.artifacts["fitted_eval"],
                                    report["candidate_names"])
        if self.mismatches:
            errors.append(f"{self.mismatches} responses differ from the first "
                          f"response to the same user")
        catalog = set(self.dataset.items)
        ndcgs, served_by = [], {}
        for uid in split.test_users:
            items = self.responses[uid]
            errors += checks.topn_list(items, self.exclude[uid], catalog, REQUEST_N,
                                       f"response to user {uid}")
            name = self.hybrid.dispatch(meta, self.context_row(uid))
            served_by[name] = served_by.get(name, 0) + 1
            if name != self.artifacts["dispatched"][uid]:
                errors.append(f"user {uid}: served by {name}, batch dispatch "
                              f"{self.artifacts['dispatched'][uid]}")
            expected = meta.fitted[name].recommend_top_n(uid, REQUEST_N,
                                                         exclude=self.exclude[uid])
            if items != expected:
                errors.append(f"user {uid}: response is not {name}'s Top-{REQUEST_N}")
            holdout = {r.item_id: float(r.rating)
                       for r in split.test_inner_test.get(uid, [])}
            if holdout:
                ndcgs.append(checks.own_ndcg(items, holdout, REQUEST_N))
        served = sum(ndcgs) / len(ndcgs)
        batch = report["rows"]["Hybrid"]["nDCG"]
        if abs(served - batch) > checks.TOL:
            errors.append(f"served nDCG {served!r} != report Hybrid nDCG {batch!r}")
        metrics = self.end_to_end()
        metrics["artifact_bytes"] = pickled_size(meta)
        metrics["hybrid_ndcg"] = served
        extras = self.report_extras(report)
        extras["dispatch_distribution"] = dict(sorted(served_by.items()))
        return metrics, errors, extras


def make(name: str, workdir: str, seed: int, smoke: bool) -> Workload:
    if name == "fixture-cf":
        return FixtureRunAll(workdir, seed, smoke, "cf")
    if name == "fixture-mixed":
        return FixtureRunAll(workdir, seed, smoke, "mixed")
    if name == "scaled-cf":
        return ScaledExperiment(workdir, seed, smoke)
    if name == "serve-cf":
        return ServePerUser(workdir, seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
