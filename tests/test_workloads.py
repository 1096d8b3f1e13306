"""The benchmark workloads: each seed-1 task runs, verifies and meets its invariants, and the
witness-free stability outputs of seeds 1-4 stay as recorded."""

import json
import sys
from pathlib import Path

import pytest

from unirep import closure
from unirep.cli import main
from unirep.serialize import parse_config, parse_vector

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import MATRIX_DIM, STABILITY_RADIUS, WORKLOADS, invariant_errors  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_seed_1_runs_verifies_and_meets_invariants(tmp_path, workload):
    for i, (task, config) in enumerate(WORKLOADS[workload](1)):
        cfg = tmp_path / f"{i}-{task}.config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"{i}-{task}.json"
        assert main([task, "--config", str(cfg), "--out", str(out)]) == 0, task
        assert main(["verify", "--report", str(out)]) == 0, task
        assert invariant_errors(workload, json.loads(out.read_text())) == [], task


# Witness-free stability outputs at seeds 1-4, recorded before closures, nondividing,
# canonical bases and superstable picks moved onto one dense orbit block: closure
# dimensions, the canonical base's size, each independence flag and the superstable
# picks (every one a translate of A[0], in order) must stay exact; headlines to 1e-12.
WITNESS_FREE_PINS = {
    1: {"canonical-base": 2.83250800398999e-16, "nondividing": 0.25269857484097025,
        "independence-worst": 4.227969982212459e-32, "superstable": 1.5555381249210154e-16,
        "selected": "1 1 2 / -2 1 / -1 -2 / -1 / -1 -2 1 / -1 -1 / 2 / e / -2 -1 2 / 2 1 / "
                    "-1 -1 -2 / 1 2 2 / 2 1 -2 / 1 -2 1 / 1 2 / -1 2 1 / 1 -2 -1 / -2 1 -2 / "
                    "-2 -1 -1 / 1 / 2 1 1 / -2 / 2 -1 -2 / -2 -1 -2 / -2 -1 / 1 -2 / -2 -2 -2 / "
                    "1 2 -1 / -2 -2 -1 / 2 2 / -1 -2 -1 / 1 1"},
    2: {"canonical-base": 2.7750865712825457e-16, "nondividing": 0.2407389434519924,
        "independence-worst": 2.0636220208846485e-17, "superstable": 0.0006282436463666639,
        "selected": "-2 -1 2 / -1 -1 -2 / 2 1 1 / 2 2 1 / -2 -1 -2 / 1 1 2 / -2 / 1 2 -1 / "
                    "-1 2 / -2 -2 1 / -2 1 2 / 2 2 / 1 -2 -2 / -1 -1 -1 / 2 2 -1 / -1 / 1 2 / "
                    "-1 -1 2 / -1 -1 / 1 1 1 / 1 -2 / -1 2 1 / 2 1 -2 / 2 -1 -1 / -2 -2 -2 / "
                    "1 2 1 / -2 -1 -1 / -2 -1 / 2 2 2 / -1 -2 / 1 2 2"},
    3: {"canonical-base": 2.821556530045685e-16, "nondividing": 0.23577317036616185,
        "independence-worst": 1.7477920360275366e-32, "superstable": 1.834277904801175e-16,
        "selected": "-1 -1 2 / -2 -1 2 / 2 2 -1 / 1 1 2 / -2 1 / -2 -1 / -1 2 2 / 1 / "
                    "-2 1 -2 / -1 -2 1 / -1 2 -1 / -2 / 1 1 -2 / -1 -2 -2 / 2 -1 2 / 2 -1 / "
                    "2 1 2 / 1 1 1 / 1 2 1 / 2 -1 -2 / -1 -2 / 2 / 1 2 / 2 2 1 / 2 1 / -1 2 / "
                    "2 1 1 / -1 2 1 / 1 -2 / 2 -1 -1 / 1 -2 -1 / e"},
    4: {"canonical-base": 2.7165557780416304e-16, "nondividing": 0.25075758649205854,
        "independence-worst": 4.521826839954472e-32, "superstable": 1.7473852484964708e-16,
        "selected": "2 -1 / -2 -2 / 1 2 1 / -1 2 / -1 / -2 / 1 / -2 1 / -2 1 -2 / 1 -2 -1 / "
                    "1 1 1 / -2 -2 -2 / -1 -1 -2 / 2 1 1 / 2 2 -1 / -1 -2 / -1 2 2 / 2 2 1 / "
                    "2 2 / 2 1 2 / -1 -2 -2 / -2 -1 2 / -1 2 1 / 2 1 -2 / -1 -2 -1 / "
                    "-2 -1 -1 / -2 -1 / -2 1 1 / 2 -1 2 / -1 -2 1 / -1 -1 -1 / e"},
}


@pytest.mark.parametrize("seed", sorted(WITNESS_FREE_PINS))
def test_witness_free_stability_outputs_are_pinned(tmp_path, seed):
    pins = WITNESS_FREE_PINS[seed]
    reports = {}
    for i, (task, config) in enumerate(WORKLOADS["witness-free"](seed)):
        cfg = tmp_path / f"{i}-{task}.config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"{i}-{task}.json"
        assert main([task, "--config", str(cfg), "--out", str(out)]) == 0, task
        assert main(["verify", "--report", str(out)]) == 0, task
        reports[task] = json.loads(out.read_text())
        if task != "contain":
            pi = parse_config(config).representation
            spec = config["task"]
            raw = spec["A"] if task == "superstable" else spec["closure"]["vectors"]
            A = [parse_vector(v, pi, "A") for v in raw]
            assert closure(pi, A, STABILITY_RADIUS).dim == MATRIX_DIM, task
    base = reports["canonical-base"]
    assert len(base["outputs"]["base"]) == MATRIX_DIM
    assert abs(base["headline"] - pins["canonical-base"]) <= 1e-12
    nondividing = reports["nondividing"]
    assert nondividing["outputs"]["independent"] is False
    assert abs(nondividing["headline"] - pins["nondividing"]) <= 1e-12
    superstable = reports["superstable"]["outputs"]
    assert superstable["selected"] == [[g, 0] for g in pins["selected"].split(" / ")]
    assert superstable["independent"] is True
    assert abs(superstable["independence-worst"] - pins["independence-worst"]) <= 1e-12
    assert abs(reports["superstable"]["headline"] - pins["superstable"]) <= 1e-12
