"""The benchmark workloads: each seed-1 task runs, verifies and meets its invariants, its
report holds its float arrays as packed blocks, and the witness-free stability outputs of
seeds 1-4 stay as recorded."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from unirep import FreeGroupOracle, closure, serialize
from unirep.cli import main
from unirep.serialize import (_matrix_from_json, parse_config, parse_floats, parse_vector,
                              parse_vectors)
from unirep.vectors import KeyIndex, from_dense
from util import read_report

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


def test_witness_free_contain_verify_parses_no_witness_key(tmp_path, monkeypatch):
    """verify reads each of the seed-1 witness's 161 keys off the rebuilt ball's spelling index,
    with no oracle parse: the oracle checks only the report's group, target and ball elements
    (30 calls; 190 when every key was parsed and checked)."""
    task, config = WORKLOADS["witness-free"](1)[0]
    assert task == "contain"
    cfg, out = tmp_path / "contain.config.json", tmp_path / "contain.json"
    cfg.write_text(json.dumps(config))
    assert main([task, "--config", str(cfg), "--out", str(out)]) == 0
    calls = []
    check = FreeGroupOracle.check_element

    def counted(self, a):
        calls.append(a)
        return check(self, a)

    monkeypatch.setattr(FreeGroupOracle, "check_element", counted)
    assert main(["verify", "--report", str(out)]) == 0
    assert len(calls) <= 30


# JSON floats a top-level report field may hold outside packed blocks; the config echo
# ``inputs.closure`` is the one field exempt
LOOSE_FLOATS = 256


def _loose_floats(node):
    """The JSON floats in ``node`` outside packed blocks."""
    if isinstance(node, float):
        return 1
    if isinstance(node, dict):
        return 0 if "f64" in node else sum(map(_loose_floats, node.values()))
    return sum(map(_loose_floats, node)) if isinstance(node, list) else 0


def _packed_blocks(node, path="report"):
    """``(path, block)`` for every packed block in ``node``."""
    if isinstance(node, dict) and "f64" in node:
        yield path, node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _packed_blocks(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _packed_blocks(value, f"{path}[{i}]")


def _bits(vectors):
    return [{k: (a.real.hex(), a.imag.hex()) for k, a in v.entries.items()} for v in vectors]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_pack_their_float_arrays(tmp_path, monkeypatch, workload):
    """At most ``LOOSE_FLOATS`` JSON floats per top-level field of ``inputs`` and ``outputs``
    lie outside packed blocks, and every packed block, read through ``serialize``'s parsers,
    is bit for bit what the run packed: the array, or the vectors over their keys."""
    arrays, vectors = {}, {}
    pack, block_to_json = serialize.pack_floats, serialize.block_to_json

    def record_array(a):
        block = pack(a)
        arrays[block["f64"]] = np.array(a)
        return block

    def record_vectors(space, keys, X):
        block = block_to_json(space, keys, X)
        vectors[block["f64"]] = (space, from_dense(space, KeyIndex.of_keys(keys), X))
        return block

    for module in ("serialize", "cli"):
        monkeypatch.setattr(f"unirep.{module}.pack_floats", record_array)
        monkeypatch.setattr(f"unirep.{module}.block_to_json", record_vectors)
    for i, (task, config) in enumerate(WORKLOADS[workload](1)):
        cfg = tmp_path / f"{i}-{task}.config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"{i}-{task}.json"
        assert main([task, "--config", str(cfg), "--out", str(out)]) == 0, task
        report = json.loads(out.read_text())
        for part in ("inputs", "outputs"):
            for key, value in report[part].items():
                if (part, key) != ("inputs", "closure"):
                    assert _loose_floats(value) <= LOOSE_FLOATS, (task, part, key)
        blocks = list(_packed_blocks(report))
        assert blocks, task
        for path, block in blocks:
            packed = arrays[block["f64"]]
            if "keys" in block:
                space, expected = vectors[block["f64"]]
                decoded = (parse_vectors(block, space, path) if len(block["shape"]) == 3
                           else [parse_vector(block, space, path)])
                assert _bits(decoded) == _bits(expected), path
            else:
                decoded = (parse_floats(block, path) if len(block["shape"]) == 1
                           else _matrix_from_json(block, path))
                assert decoded.dtype == packed.dtype and decoded.shape == packed.shape, path
                assert decoded.tobytes() == packed.tobytes(), path


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
        reports[task] = read_report(out)
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
