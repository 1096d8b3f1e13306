"""Seed-to-seed spread of the end-to-end metrics, checked against their bounds.

Run from the root of a source checkout::

    python3 bench/spread.py --runs 10                      # every workload
    python3 bench/spread.py --runs 5 --workload probe-free
    python3 bench/spread.py --runs 10 --record bench/baseline.json

For each workload it runs the command in ``BENCHMARK.json`` once per seed
(``--first-seed`` onwards) with ``--trace 0`` and reports, for each end-to-end metric, the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread: the distance between the quartiles as a share of the
median. A spread above the metric's bound fails (setup_s excepted, as its
bound applies to medians only); a spread above a third of the bound is
flagged as not steady. ``--record`` writes the medians and quartiles, with
the environment, under the ``measured`` key of a baseline record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import environment  # noqa: E402


def measure(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--record", help="baseline record to update with the medians")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    measured = {}
    ok = True
    for workload in workloads:
        values = {}
        for seed in seeds:
            result = measure(bench, workload, seed)
            print(f"  {workload} seed {seed}: "
                  + " ".join(f"{name} {value:.4f}" for name, value in result.items()),
                  file=sys.stderr, flush=True)
            for name, value in result.items():
                values.setdefault(name, []).append(value)
        measured[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med
            measured[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                        "n": len(values[name]), "unit": metric["unit"]}
            if spread > metric["bound"] and name != "setup_s":
                flag, ok = "FAIL", False
            else:
                flag = "ok" if spread <= metric["bound"] / 3 else "not steady"
            print(f"{workload:16} {name:12} median {med:10.4f} {metric['unit']:3} "
                  f"[q1 {q1:.4f}, q3 {q3:.4f}] n={len(values[name])} "
                  f"spread {spread:.3f} bound {metric['bound']} {flag}", flush=True)
    if args.record:
        record = {}
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as fh:
                record = json.load(fh)
        record["measured"] = {"environment": environment(os.getcwd()),
                              "run_seconds": bench["run_seconds"],
                              "seeds": seeds,
                              "workloads": measured}
        with open(args.record, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
