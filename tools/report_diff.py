"""Which workload reports differ between this tree and another checkout of the repository.

For each tree, this one and then ``OTHER_ROOT``, one fresh interpreter runs
the four workloads of that tree's ``bench/workloads.py`` at seeds 1-4
through ``unirep.cli.main``, as the command line runs them, and verifies
each report with ``unirep verify``. A report is compared without its
``timestamp``: by the SHA-256 of its remaining JSON in the report's own
encoding (sorted keys, no spaces), so two reports match exactly when their
bytes do apart from the timestamp.

Usage: ``python tools/report_diff.py OTHER_ROOT``. Every report that differs
is printed as ``<workload> seed <seed> <task>``. The exit code is 0 when no
report differs, and 1 when one does or when a run or its verify fails in
either tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES = [(workload, seed)
         for workload in ("probe-free", "probe-abelian", "probe-rewriting", "witness-free")
         for seed in (1, 2, 3, 4)]

# The fresh interpreter's program; its arguments are the tree, the cases as JSON and the path
# its digests are written to.
CHILD = r"""
import contextlib, hashlib, io, json, os, sys, tempfile
root, cases, digests_path = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
from unirep.cli import main
from workloads import WORKLOADS
digests = {}
with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
    for workload, seed in cases:
        for i, (task, config) in enumerate(WORKLOADS[workload](seed)):
            name = f"{workload} seed {seed} {task}"
            config_path, report_path = (os.path.join(work, f"{i}-{task}.{kind}.json")
                                        for kind in ("config", "report"))
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            if main([task, "--config", config_path, "--out", report_path]) != 0:
                sys.exit(f"{root}: {name} did not run")
            if main(["verify", "--report", report_path]) != 0:
                sys.exit(f"{root}: {name} does not verify")
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            del report["timestamp"]
            text = json.dumps(report, sort_keys=True, separators=(",", ":"))
            digests[name] = hashlib.sha256(text.encode()).hexdigest()
with open(digests_path, "w", encoding="utf-8") as fh:
    json.dump(digests, fh)
"""


def report_digests(root, cases=CASES) -> dict:
    """``{"<workload> seed <seed> <task>": digest}`` of the tree ``root``, in a fresh interpreter.

    A run or verify that fails raises ``subprocess.CalledProcessError``.
    """
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "digests.json"
        subprocess.run([sys.executable, "-c", CHILD, str(root), json.dumps(cases), str(path)],
                       cwd=root, env=env, check=True)
        return json.loads(path.read_text(encoding="utf-8"))


def differing(mine: dict, theirs: dict) -> list:
    """The sorted names of the reports whose digests in ``mine`` and ``theirs`` differ."""
    return sorted(name for name in mine.keys() | theirs.keys()
                  if mine.get(name) != theirs.get(name))


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/report_diff.py OTHER_ROOT", file=sys.stderr)
        return 2
    try:
        mine, theirs = report_digests(ROOT), report_digests(Path(argv[0]).resolve())
    except subprocess.CalledProcessError:
        return 1  # the child named the failing report on stderr
    names = differing(mine, theirs)
    for name in names:
        print(name)
    print(f"{len(names)} of {len(mine.keys() | theirs.keys())} reports differ")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
