"""Smoke test of the benchmark workloads: each seed-1 task runs, verifies, meets its invariants."""

import json
import sys
from pathlib import Path

import pytest

from unirep.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS, invariant_errors  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_seed_1_runs_verifies_and_meets_invariants(tmp_path, workload):
    for i, (task, config) in enumerate(WORKLOADS[workload](1)):
        cfg = tmp_path / f"{i}-{task}.config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"{i}-{task}.json"
        assert main([task, "--config", str(cfg), "--out", str(out)]) == 0, task
        assert main(["verify", "--report", str(out)]) == 0, task
        assert invariant_errors(workload, json.loads(out.read_text())) == [], task
