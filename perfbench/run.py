"""Benchmark of the metahybrid pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fixture-cf --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --smoke

One workload runs per process. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics, or with `--trace 1` the per-layer ones). A result file with the
same figures plus the environment goes to `.perfbench/results/`. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("artifact_bytes", "bytes"), ("hybrid_ndcg", "nDCG"))
# printed and written to the result file, but not in the result line: they
# describe `serve-cf`, which BENCHMARK.json leaves out (see README.md)
REQUEST_METRICS = (("request_p50_ms", "ms"), ("request_p99_ms", "ms"),
                   ("requests_per_s", "1/s"))
IMPORT_PROBES = 5
OUT_DIR = ".perfbench"
WORKLOAD_NAMES = ("fixture-cf", "fixture-mixed", "scaled-cf", "serve-cf")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs; every workload ends in seconds")
    return p.parse_args(argv)


# One BLAS thread: on a two-core host a second BLAS thread competes with
# the interpreter for the other core, and small products pay to wake it.
BLAS_THREADS = 1


def environment() -> dict:
    import numpy as np

    openblas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        openblas = deps["blas"].get("version")
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "openblas": openblas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def git_commit(root: str):
    """HEAD of the checkout when it is a git repository, else None."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def import_probe_s() -> float:
    """Median start-up of a fresh interpreter importing the package: the
    cost every `metahybrid` command pays before it does any work."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import metahybrid.cli, metahybrid.evaluation"],
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_one(args) -> int:
    import tracing
    import workloads

    root = os.getcwd()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "-smoke" if args.smoke else "")
    results_dir = os.path.join(OUT_DIR, "results")
    workdir = os.path.join(OUT_DIR, f"work-{stem}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(workdir)
    try:
        probe = import_probe_s()
        wl = workloads.make(args.workload, workdir, args.seed, args.smoke)
        setup_times = []
        for _ in range(wl.setup_reps):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        wl.run(args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e, errors, extras = wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e["setup_s"] = probe + statistics.median(setup_times)
    e2e["peak_rss_mb"] = peak_rss_mb

    if args.trace:
        metrics = tracing.per_layer_metrics(wl.tracer, wl.traced_rounds(),
                                            wl.overhead_pct())
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": not errors, "attempted": wl.attempted,
              "failed": wl.failed, "metrics": metrics}

    requests = {name: {"value": float(e2e[name]), "unit": unit}
                for name, unit in REQUEST_METRICS}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds, **result,
              "request_metrics": requests,
              "check_failures": errors,
              "failed_operations": sorted(set(wl.failed_ops)),
              "rounds": [{"seconds": s, "traced": t} for s, t in wl.rounds],
              "setup": {"import_probe_s": probe, "workload_setup_s": setup_times},
              "environment": environment(), "git_commit": git_commit(root),
              **extras}
    if args.trace:
        record["self_times"] = wl.tracer.self_times()
        spans_path = os.path.join(results_dir, stem + ".spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request_id"],
                       "spans": wl.tracer.spans}, fh)
        record["spans_file"] = spans_path
    result_path = os.path.join(results_dir, stem + ".json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{wl.attempted} operations, {wl.failed} failed "
          f"({', '.join(sorted(set(wl.failed_ops))) or 'none'})")
    for name, m in list(metrics.items()) + list(requests.items()):
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    print(f"  result file: {result_path}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
        status |= 0 if summary[name]["correct"] else 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join("src", "metahybrid")):
        print("perfbench: run from the root of a metahybrid checkout "
              "(src/metahybrid not found)", file=sys.stderr)
        return 2
    # one process, no thread pool, one BLAS thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.abspath("src"))
    import logging
    logging.basicConfig(level=logging.WARNING)  # the pipeline logs each stage at INFO
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
