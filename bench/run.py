"""Layered benchmark of the ``unirep`` command line.

Run from the root of a source checkout::

    python3 bench/run.py --workload probe-free --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20     # every workload, with failed_frac

Each workload is a closed loop with one client: a fresh interpreter runs the
workload's tasks through ``unirep.cli.main`` (parse, task, report write),
then ``unirep verify`` on each report, then the workload's invariants; the
next run starts when the previous one has exited. Runs repeat while another
fits in ``--seconds`` (at least ``MIN_RUNS``), and each metric is the
median of the run's fresh-process samples; the log prints quartiles and
sample counts as well. Times are wall times rescaled to a fixed machine
speed by a probe sampled while the program runs (``speed.py``), because the
shared host's speed drifts by tens of percent; the log prints the raw wall
times next to them. Configs are generated from ``--seed``; reports go to
a scratch directory in the checkout that is removed at exit.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` runs alternate untraced and traced (the tracer wraps the
``unirep`` layers from outside, see ``tracer.py``) and the line carries the
per-layer metrics, including the tracing overhead. Exact counts must agree
between traced runs; a mismatch counts as a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import rescale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_RUNS = 3
MIN_TRACED_RUNS = 2
SETUP_SAMPLES = 30
TIME_LIMIT_S = 170.0
# BLAS and OpenMP pools pinned to one thread: runs are single-threaded and
# iteration counts do not depend on reduction order.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
EXACT_SUFFIXES = (".calls", ".iterations", ".elements", ".entries", ".dim", "report_bytes")


class BenchError(Exception):
    pass


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


class Runner:
    """Spawns fresh interpreters against the checkout's ``src`` tree."""

    def __init__(self, root, work, deadline):
        self.src = os.path.join(root, "src")
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=self.src, **CHILD_ENV)

    def child(self, *args):
        """Result line of one ``child.py`` process, with its set-up time added."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before the run finished")
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                              env=self.env, cwd=self.work, capture_output=True, text=True,
                              timeout=timeout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child {args[0]} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        result["setup_wall_s"] = result["imported"] - t0
        result["setup_s"] = rescale(result["setup_wall_s"], result["setup_handler_s"],
                                    result["setup_durations"])
        return result

    def setup_samples(self):
        # The first import compiles bytecode into the checkout; it is not timed.
        first = self.child("setup")
        if os.path.commonpath([first["unirep"], self.src]) != self.src:
            raise BenchError(f"unirep imported from {first['unirep']}, not from {self.src}")
        return [self.child("setup") for _ in range(SETUP_SAMPLES)]


def write_jobs(work, workload, seed):
    jobs = []
    for i, (task, config) in enumerate(WORKLOADS[workload](seed)):
        cfg_path = os.path.join(work, f"{i}-{task}.config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        jobs.append([task, cfg_path, os.path.join(work, f"{i}-{task}.report.json")])
    path = os.path.join(work, f"{workload}.jobs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    return path


def run_workload(runner, workload, seed, seconds, trace):
    """Measure one workload; returns (attempted, failed, end-to-end samples, layers or None)."""
    jobs = write_jobs(runner.work, workload, seed)
    setups = runner.setup_samples()
    untraced, traced, rounds = [], [], []
    stop = time.monotonic() + seconds
    # Start another round only if a round of median length still fits in the window.
    while (len(untraced) < MIN_RUNS if not trace else len(traced) < MIN_TRACED_RUNS) \
            or time.monotonic() + statistics.median(rounds) <= stop:
        t0 = time.monotonic()
        untraced.append(runner.child("run", workload, jobs, "0"))
        if trace:
            traced.append(runner.child("run", workload, jobs, "1"))
        rounds.append(time.monotonic() - t0)
    runs = untraced + traced
    for r in runs:
        for task, why in r["failures"]:
            print(f"FAILED {workload} {task}: {why}", file=sys.stderr)
    attempted = sum(r["tasks"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    samples = {
        "task_s": [r["task_s"] for r in untraced],
        "verify_s": [r["verify_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in setups + runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    wall = {
        "task_s": [r["task_wall_s"] for r in untraced],
        "verify_s": [r["verify_wall_s"] for r in untraced],
        "setup_s": [r["setup_wall_s"] for r in setups + runs],
    }
    layers = None
    if trace:
        layers, mismatches = merge_traced(traced)
        for name in mismatches:
            print(f"FAILED {workload}: exact count {name} differs between traced runs",
                  file=sys.stderr)
        attempted += 1
        failed += bool(mismatches)
        layers["trace.overhead_s"] = (statistics.median(r["task_s"] for r in traced)
                                      - statistics.median(samples["task_s"]))
    return attempted, failed, samples, wall, layers


def merge_traced(traced):
    """Per-layer values over traced runs: exact counts must agree, timings take the median."""
    names = traced[0]["layers"].keys()
    layers, mismatches = {}, []
    for name in names:
        values = [r["layers"][name] for r in traced]
        if name.endswith(EXACT_SUFFIXES):
            if len(set(values)) > 1:
                mismatches.append(name)
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    return layers, mismatches


def _git_sha(root):
    """Commit of the checkout, read from ``.git`` without running git; "unknown" without one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
    except OSError:
        return "unknown"
    return head


def environment(root):
    """Git sha, interpreter and library versions, and core count, recorded with results."""
    versions = {"python": platform.python_version()}
    for lib in ("numpy", "scipy"):
        try:
            versions[lib] = __import__(lib).__version__
        except ImportError:
            versions[lib] = None
    return {"git_sha": _git_sha(root), **versions, "nproc": os.cpu_count()}


UNITS = {"task_s": "s", "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def summary(workload, attempted, failed, samples, wall, layers):
    """Every metric of one workload by name and unit, timings as median and quartiles.

    Times are rescaled to the nominal speed (``speed.py``); the raw wall
    times follow each of them.
    """
    lines = [f"{workload}: failed_frac {failed / attempted:.4f} fraction "
             f"({failed} of {attempted} task runs)"]
    for name, values in samples.items():
        q1, med, q3 = _quartiles(values)
        line = (f"  {name:14} {med:10.4f} {UNITS[name]:5} "
                f"[q1 {q1:.4f}, q3 {q3:.4f}] n={len(values)}")
        if name in wall:
            q1, med, q3 = _quartiles(wall[name])
            line += f"  wall {med:.4f} [q1 {q1:.4f}, q3 {q3:.4f}]"
        lines.append(line)
    for name, value in sorted((layers or {}).items()):
        lines.append(f"  {name:44} {value:.6g} {layer_unit(name)}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "unirep", "cli.py")):
        print("error: run from the root of a unirep checkout (src/unirep/cli.py not found)",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.all else [args.workload]
    work = os.path.join(root, ".bench_run", str(os.getpid()))
    os.makedirs(work)
    runner = Runner(root, work, time.monotonic() + TIME_LIMIT_S * len(workloads))
    print("environment: " + json.dumps(environment(root), sort_keys=True), file=sys.stderr)
    try:
        results = {w: run_workload(runner, w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    for workload, result in results.items():
        print(summary(workload, *result), file=sys.stdout if args.all else sys.stderr)
    attempted = sum(r[0] for r in results.values())
    failed = sum(r[1] for r in results.values())
    if args.all:
        print(f"all workloads: failed_frac {failed / attempted:.4f} ({failed} of {attempted})")
        return 0 if failed == 0 else 1
    _a, _f, samples, _wall, layers = results[args.workload]
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    else:
        metrics = {name: {"value": statistics.median(v), "unit": UNITS[name]}
                   for name, v in samples.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
