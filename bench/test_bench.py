"""Tests of the benchmark's own code: span arithmetic, rebinding, and the gate."""

import json
import os
import subprocess
import sys

import pytest

import speed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracer, "perf_counter", lambda: clock[0])
    t = tracer.Tracer()

    def leaf():
        clock[0] += 3.0

    def middle():
        clock[0] += 1.0
        leaf_w()
        leaf_w()

    def outer():
        clock[0] += 2.0
        middle_w()
        clock[0] += 0.5

    leaf_w = t.wrap("leaf", leaf)
    middle_w = t.wrap("middle", middle)
    t.wrap("outer", outer)()
    leaf_w()
    assert t.stats[("outer", None)] == [1, 9.5, 2.5]
    assert t.stats[("middle", "outer")] == [1, 7.0, 1.0]
    assert t.stats[("leaf", "middle")] == [2, 6.0, 6.0]
    assert t.stats[("leaf", None)] == [1, 3.0, 3.0]
    assert t.by_name()["leaf"] == (3, 9.0, 9.0)


def test_span_closes_when_the_call_raises(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracer, "perf_counter", lambda: clock[0])
    t = tracer.Tracer()

    def boom():
        clock[0] += 1.0
        raise ValueError

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    t.wrap("after", lambda: None)()
    assert t.stats[("boom", None)] == [1, 1.0, 1.0]
    assert ("after", None) in t.stats


def test_probe_time_is_not_charged_to_the_open_span(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracer, "perf_counter", lambda: clock[0])
    t = tracer.Tracer()

    def work():
        clock[0] += 2.0
        clock[0] += 0.5          # a speed sample fires inside the span
        t.exclude(0.5)

    t.wrap("outer", lambda: t.wrap("work", work)())()
    t.exclude(1.0)               # no open span: nothing to charge
    assert t.stats[("work", "outer")] == [1, 2.5, 2.0]
    assert t.stats[("outer", None)] == [1, 2.5, 0.0]


def test_rescale_takes_out_handler_time_and_scales_by_kernel_speed():
    slow = [2 * speed.NOMINAL_S] * 3
    assert speed.rescale(2.1, 0.1, slow) == pytest.approx(1.0)
    assert speed.rescale(2.1, 0.1, [speed.NOMINAL_S]) == pytest.approx(2.0)


def test_mark_samples_once_and_since_counts_later_samples():
    probe = speed.SpeedProbe()
    before = probe.mark()
    assert len(probe.durations) == 1
    spent = probe.spent
    probe._sample()
    handler, durations = probe.since(before)
    assert durations == probe.durations
    assert handler == pytest.approx(probe.spent - spent)
    assert 0 < handler < probe.spent


REBIND_CHECK = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer, unirep
from unirep import amenability, cli, containment, groups, reps, stability, vectors
t = tracer.Tracer()
originals = tracer.install(t)
bindings = {
    "ball": [unirep, groups, amenability, containment, stability],
    "inner": [unirep, vectors, reps, containment, stability, cli],
    "orthonormalize": [unirep, vectors, reps, containment, stability, cli],
}
wrapped = {name: [hasattr(getattr(ns, name), "__wrapped__") for ns in spaces]
           for name, spaces in bindings.items()}
methods = [hasattr(getattr(groups, c).__dict__[m], "__wrapped__")
           for c in tracer.ORACLES for m in ("multiply", "invert", "check_element")]
methods.append(hasattr(groups.RewritingOracle.__dict__["normalize"], "__wrapped__"))
left_after_install = tracer.unwrapped_bindings(unirep, originals)
stability.ball = groups.ball.__wrapped__
planted = tracer.unwrapped_bindings(unirep, originals)
print(json.dumps({"wrapped": wrapped, "methods": methods,
                  "left": left_after_install, "planted": planted}))
"""


def test_install_rebinds_every_namespace():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", REBIND_CHECK, HERE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(all(flags) for flags in out["wrapped"].values()), out["wrapped"]
    assert all(out["methods"])
    assert out["left"] == []
    assert out["planted"] == [["unirep.stability", "ball"]]


@pytest.fixture(scope="module")
def free_probe_report(tmp_path_factory):
    from unirep import cli

    work = tmp_path_factory.mktemp("gate")
    config = work / "config.json"
    config.write_text(json.dumps({"group": {"kind": "free", "rank": 2},
                                  "task": {"nmax": 8, "radius": 3}}))
    report = work / "report.json"
    assert cli.main(["probe-amenability", "--config", str(config), "--out", str(report)]) == 0
    return json.loads(report.read_text())


def _verify(report, path):
    from unirep import cli

    path.write_text(json.dumps(report))
    return cli.main(["verify", "--report", str(path)])


def test_gate_accepts_the_untampered_report(free_probe_report, tmp_path):
    assert _verify(free_probe_report, tmp_path / "r.json") == 0
    assert workloads.invariant_errors("probe-free", free_probe_report) == []


def test_gate_rejects_a_headline_edited_by_1e6(free_probe_report, tmp_path):
    tampered = json.loads(json.dumps(free_probe_report))
    tampered["headline"] += 1e-6
    assert _verify(tampered, tmp_path / "r.json") == 1


def test_gate_rejects_an_f2_interval_excluding_kesten(free_probe_report):
    tampered = json.loads(json.dumps(free_probe_report))
    tampered["outputs"]["spectral"]["upper"] = workloads.SQRT3_2 - 1e-3
    errors = workloads.invariant_errors("probe-free", tampered)
    assert any("excludes sqrt(3)/2" in e for e in errors)


def test_gate_rejects_a_z2_return_probability_off_polya(tmp_path):
    from unirep import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"group": {"kind": "fg-abelian", "rank": 2, "torsion": []},
                                  "task": {"nmax": 6, "radius": 3}}))
    report_path = tmp_path / "report.json"
    assert cli.main(["probe-amenability", "--config", str(config),
                     "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["outputs"]["return-probabilities"]["p-exact"][1:3] == ["1/4", "9/64"]
    assert workloads.invariant_errors("probe-abelian", report) == []
    report["outputs"]["return-probabilities"]["p-exact"][2] = "9/65"
    errors = workloads.invariant_errors("probe-abelian", report)
    assert any("step 4" in e for e in errors)


def test_configs_follow_the_seed():
    witness = workloads.WORKLOADS["witness-free"]
    assert witness(3) == witness(3)
    assert witness(3) != witness(4)


def test_traced_runs_must_agree_on_exact_counts():
    import run

    def traced(calls, self_s, kept):
        return {"layers": {"reps.apply.calls": calls, "reps.apply.self_s": self_s,
                           "vectors.orthonormalize.kept_ratio": kept}}

    layers, mismatches = run.merge_traced([traced(5, 1.0, 0.5), traced(5, 3.0, 0.5),
                                           traced(5, 2.0, 0.5)])
    assert mismatches == []
    assert layers == {"reps.apply.calls": 5, "reps.apply.self_s": 2.0,
                      "vectors.orthonormalize.kept_ratio": 0.5}
    _layers, mismatches = run.merge_traced([traced(5, 1.0, 0.5), traced(6, 1.0, 0.5)])
    assert mismatches == ["reps.apply.calls"]
