"""Command-line round trips, config error reporting, and import cost."""

import json
import os
import subprocess
import sys

import pytest

from unirep import ConvergenceError
from unirep.cli import main

Z = {"kind": "fg-abelian", "rank": 1, "torsion": []}
Z2_REWRITING = {"kind": "rewriting-presented", "num_generators": 2, "rules": [
    [[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[-2, 1], [1, -2]], [[-2, -1], [-1, -2]]]}


def run_task(tmp_path, task, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    return main([task, "--config", str(cfg), "--out", str(out)]), out


def test_probe_round_trip_one_defect_per_radius(tmp_path):
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": Z, "task": {"nmax": 10, "radius": 4}})
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    table = report["outputs"]["defect-table"]
    assert [row["radius"] for row in table] == [1, 2, 3, 4]
    spectral = report["outputs"]["spectral"]
    assert spectral["radius"] == 4
    assert spectral["lower"] == 1 - table[-1]["value"] / 2
    assert all(0 <= row["certified-lower"] <= row["value"] for row in table)


def test_probe_round_trip_on_rewriting_oracle(tmp_path):
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": Z2_REWRITING, "task": {"nmax": 8, "radius": 3}})
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0
    table = json.loads(out.read_text())["outputs"]["defect-table"]
    assert [row["radius"] for row in table] == [1, 2, 3]


def _raise_certified_lower(out):
    out["defect-table"][0]["certified-lower"] = 5.0  # above the row's value


def _lower_spectral_lower(out):
    out["spectral"]["lower"] = 0.1


def _negate_argmin_entry(out):
    out["defect-table"][0]["argmin"][0][2] = -1.0


def _rotate_argmin_entry(out):
    out["defect-table"][0]["argmin"][0][3] = 0.5


def _zero_argmin(out):
    for entry in out["defect-table"][0]["argmin"]:
        entry[2] = 0.0


@pytest.mark.parametrize("tamper, check", [
    (_raise_certified_lower, "certified-lower-r1"),
    (_lower_spectral_lower, "spectral-lower"),
    (_negate_argmin_entry, "certified-lower-r1"),
    (_rotate_argmin_entry, "certified-lower-r1"),
    (_zero_argmin, "defect-r1"),
])
def test_verify_probe_rejects_tampered_certificates(tmp_path, capsys, tamper, check):
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": Z, "task": {"nmax": 4, "radius": 2}})
    assert code == 0
    report = json.loads(out.read_text())
    tamper(report["outputs"])
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"FAILED {check}:" in err
    assert "Traceback" not in err


def _claim_radius_seven(out):
    out["spectral"].update({"lower": 0.9, "radius": 7})


def _drop_defect_rows(out):
    out["defect-table"] = []
    out["spectral"].update({"lower": 0.0, "upper": 1.0})  # the one-point ball's interval


@pytest.mark.parametrize("radius, tamper, failed", [
    (0, _claim_radius_seven, ["spectral-radius", "spectral-lower"]),
    (2, _drop_defect_rows, ["defect-rows"]),
])
def test_verify_probe_checks_radius_and_rows(tmp_path, capsys, radius, tamper, failed):
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": Z, "task": {"nmax": 4, "radius": radius}})
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["outputs"]["defect-table"]) == radius
    tamper(report["outputs"])
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line.split(":")[0] for line in err.splitlines()] == [
        f"verify FAILED {check}" for check in failed]
    assert "Traceback" not in err


def test_convergence_error_exits_4_with_best(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("Lanczos did not converge", best=0.123456)

    monkeypatch.setattr("unirep.cli.defect_table", no_convergence)
    code, _out = run_task(tmp_path, "probe-amenability",
                          {"group": Z, "task": {"nmax": 4, "radius": 2}})
    err = capsys.readouterr().err
    assert code == 4
    assert "0.123456" in err
    assert "internal error" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("task, block, field", [
    ("probe-amenability", {"nmax": "abc"}, "task.nmax"),
    ("probe-amenability", {"exact-steps": "x"}, "task.exact-steps"),
    ("probe-amenability", {"nmax": 4.7}, "task.nmax"),
    ("probe-amenability", {"radius": 2.9}, "task.radius"),
    ("probe-amenability", {"radius": True}, "task.radius"),
    ("contain", {"target": {}, "budget": "many"}, "task.budget"),
    ("contain", {"target": {}, "restarts": [1]}, "task.restarts"),
    ("nondividing", {"tol": "tight"}, "task.tol"),
    ("nondividing", {"closure": {"radius": "x"}}, "task.closure.radius"),
    ("canonical-base", {"closure": {"radius": "x"}}, "task.closure.radius"),
    ("amalgamate", {"check-radius": "x"}, "task.check-radius"),
])
def test_malformed_number_exits_2_with_field(tmp_path, capsys, task, block, field):
    code, _out = run_task(tmp_path, task, {"group": Z, "task": block})
    err = capsys.readouterr().err
    assert code == 2
    assert f"'{field}'" in err
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = "import sys, unirep.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
