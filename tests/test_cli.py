"""Command-line round trips, config error reporting, and import cost."""

import argparse
import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirep import (ConvergenceError, DirectSum, Multiple, Regular, Representation, Trivial,
                    amenability, ball, discrepancy, folner_witness, gram, groups,
                    symmetric_generators)
from unirep.cli import HANDLERS, TASKS, VERIFIERS, build_parser, main
from unirep.containment import deviation
from unirep.serialize import (DEFAULT_CAPS, gram_to_json, parse_gram, parse_group,
                              parse_representation, parse_vector, parse_vectors)
from util import (H3_RULES, character_action, phase, random_unitary, read_report,
                  swapped_intercalate_table)

Z = {"kind": "fg-abelian", "rank": 1, "torsion": []}
F2 = {"kind": "free", "rank": 2}
Z2_REWRITING = {"kind": "rewriting-presented", "num_generators": 2, "rules": [
    [[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[-2, 1], [1, -2]], [[-2, -1], [-1, -2]]]}
H3 = {"kind": "rewriting-presented", "num_generators": 3, "rules": H3_RULES}


Z2 = {"kind": "fg-abelian", "rank": 2, "torsion": []}
C3 = {"kind": "finite-table", "table": [[(i + j) % 3 for j in range(3)] for i in range(3)],
      "generators": [1]}

FOLNER = {"group": Z2, "task": {"eps": 0.3}}

# the trivial F2 target on a radius-2 ball basis: the scaled Perron start, with both bounds
TRIVIAL_F2 = {"target": {"F": ["e", "1", "-1", "2", "-2"], "n": 1,
                         "matrices": [[[[1.0, 0.0]]]] * 5}}
CONTAIN_F2 = {"group": F2, "task": {**TRIVIAL_F2, "radius": 2, "tol": 1e-2}}

TRANSFER = {"group": Z, "task": {
    "pi": {"kind": "trivial", "dim": 1}, "F": ["0", "1", "-1"],
    "params": [[[1, "0", 1, 0]]], "targets": [[[2, "5", 1, 0]]], "eps": 0.05}}


def run_task(tmp_path, task, config, *flags, name="report"):
    cfg = tmp_path / f"{name}.config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{name}.json"
    return main([task, "--config", str(cfg), "--out", str(out), *flags]), out


def test_probe_round_trip_one_defect_per_radius(tmp_path):
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": Z, "task": {"nmax": 10, "radius": 4}})
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0
    report = read_report(out)
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
    table = read_report(out)["outputs"]["defect-table"]
    assert [row["radius"] for row in table] == [1, 2, 3]


@pytest.mark.parametrize("group, radius, sizes", [
    ({"kind": "fg-abelian", "rank": 0, "torsion": []}, 2, [1, 1]),
    (C3, 4, [3, 3, 3, 3]),
])
def test_probe_round_trip_on_finite_groups(tmp_path, group, radius, sizes):
    """The trivial group has no steps; the cyclic group of order 3 saturates at radius 1."""
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": group, "task": {"nmax": 6, "radius": radius}})
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0
    table = read_report(out)["outputs"]["defect-table"]
    assert [len(row["argmin"]) for row in table] == sizes
    assert all(row["value"] <= 1e-9 for row in table)


@pytest.mark.parametrize("group, nmax, radius, built", [
    (Z2, 4, 3, 3),    # the walk's radius nmax // 2 below the defect radius
    (Z2, 12, 3, 6),   # and above it
    (F2, 12, 3, None),  # free walks and defects run on the distance chain, with no ball
    (Z2, 6, 0, 3),    # the spectral end of the one-point ball
])
def test_probe_builds_one_ball(tmp_path, monkeypatch, group, nmax, radius, built):
    """The walk, the defect rows and the spectral end read prefixes of one ball.

    ``verify`` builds at most that ball again, and a free group neither.
    """
    radii = []

    def counted(*args, **kwargs):
        B = ball(*args, **kwargs)
        radii.append(B.radius)
        return B

    for module in ("cli", "amenability"):
        monkeypatch.setattr(f"unirep.{module}.ball", counted)
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": group, "task": {"nmax": nmax, "radius": radius}})
    assert code == 0
    assert radii == ([] if built is None else [built])
    report = read_report(out)
    assert [row["radius"] for row in report["outputs"]["defect-table"]] == list(
        range(1, radius + 1))
    assert report["outputs"]["spectral"]["radius"] == radius
    if built is None:  # one amplitude per sphere
        assert [len(row["argmin"]) for row in report["outputs"]["defect-table"]] == [2, 3, 4]
    assert main(["verify", "--report", str(out)]) == 0
    assert radii == ([] if built is None else [built, radius])


def test_probe_builds_one_neighbour_table_per_ball(tmp_path, monkeypatch):
    """The defect rows share their ball's in-neighbour table, and so do verify's certificates."""
    built = []
    table = groups.Ball.in_neighbours.func

    def counted(B):
        built.append(len(B))
        return table(B)

    prop = functools.cached_property(counted)
    prop.__set_name__(groups.Ball, "in_neighbours")
    monkeypatch.setattr(groups.Ball, "in_neighbours", prop)
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": Z2, "task": {"nmax": 12, "radius": 3}})
    assert code == 0 and built == [85]  # rows 0..3 on the walk's radius-6 ball
    assert main(["verify", "--report", str(out)]) == 0
    assert built == [85, 25]  # verify's certificates on its own radius-3 ball


def test_probe_underflow_exits_2_at_nmax(tmp_path, capsys):
    """A return probability under a double's range is a config error at ``task.nmax``."""
    config = {"group": {"kind": "free", "rank": 50}, "task": {"nmax": 600, "radius": 1}}
    code, _out = run_task(tmp_path, "probe-amenability", config)
    err = capsys.readouterr().err
    assert code == 2
    assert "config field 'task.nmax': return probability underflows at step 458" in err
    assert "Traceback" not in err


def test_contain_builds_one_ball(tmp_path, monkeypatch):
    """The delta basis and the Perron start share one ball; ``verify`` builds one, no solve."""
    radii, solves = [], []

    def counted(*args, **kwargs):
        B = ball(*args, **kwargs)
        radii.append(B.radius)
        return B

    solve = amenability._perron_solve

    def counted_solve(matvec, dim):
        solves.append(dim)
        return solve(matvec, dim)

    for module in ("cli", "containment", "amenability"):
        monkeypatch.setattr(f"unirep.{module}.ball", counted)
    monkeypatch.setattr(amenability, "_perron_solve", counted_solve)
    code, out = run_task(tmp_path, "contain", CONTAIN_F2)
    assert code == 0
    assert radii == [2] and solves == [17]  # the Lanczos solve on the 17-element ball
    report = read_report(out)
    assert report["outputs"]["iterations"] == 0 and report["outputs"]["certified-lower"] > 0
    assert main(["verify", "--report", str(out)]) == 0
    assert radii == [2, 2] and solves == [17]


def _count_applies(monkeypatch):
    """The list each ``Representation.apply`` call appends its element to."""
    calls = []
    apply = Representation.apply

    def counted(self, g, v):
        calls.append(g)
        return apply(self, g, v)

    monkeypatch.setattr(Representation, "apply", counted)
    return calls


def test_contain_verify_builds_one_ball_and_no_apply_for_a_nontrivial_target(tmp_path,
                                                                             monkeypatch):
    """A descent on a non-trivial target, run and verify, each build the basis ball once and
    read the witnesses' Gram data off it, with no ``apply``: the ball's tables replace
    n |F| |B| = 2 * 5 * 53 checked products."""
    radii = []

    def counted(*args, **kwargs):
        B = ball(*args, **kwargs)
        radii.append(B.radius)
        return B

    for module in ("cli", "containment", "amenability"):
        monkeypatch.setattr(f"unirep.{module}.ball", counted)
    applies = _count_applies(monkeypatch)
    swap = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    sign = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    target = {"F": ["e", "1", "-1", "2", "-2"], "n": 2, "matrices": [eye, swap, swap, sign, sign]}
    code, out = run_task(tmp_path, "contain", {"group": F2, "task": {
        "target": target, "radius": 3, "tol": 1e-3, "budget": 20, "restarts": 1}})
    assert code == 0
    assert radii == [3] and applies == []
    assert read_report(out)["outputs"]["certified-lower"] is None
    assert main(["verify", "--report", str(out)]) == 0
    assert radii == [3, 3] and applies == []


@pytest.mark.parametrize("config", [
    CONTAIN_F2,  # the Perron start, returned at once
    {"group": Z, "task": {"target": {"F": ["0", "1", "-1", "2"], "n": 1,
                                     "matrices": [[[[1.0, 0.0]]]] * 4},
                          "radius": 6, "tol": 0.06, "budget": 50, "restarts": 1}},  # descended
], ids=["start", "descent"])
def test_ball_basis_contain_run_and_verify_make_no_apply_call(tmp_path, monkeypatch, config):
    applies = _count_applies(monkeypatch)
    code, out = run_task(tmp_path, "contain", config)
    assert code == 0
    iterations = read_report(out)["outputs"]["iterations"]
    assert (iterations == 0) == (config is CONTAIN_F2)
    assert main(["verify", "--report", str(out)]) == 0
    assert applies == []


def _witness_entry_off_the_span(entry):
    """Adds ``entry`` to the first witness, with its Gram data, discrepancy and headline as
    ``gram`` recomputes them, so that only the span check can refuse the report."""
    def tamper(report):
        out = report["outputs"]
        out["witnesses"][0].append(entry)
        oracle = parse_group(report["inputs"]["group"])
        space = parse_representation(report["inputs"]["representation"], oracle)
        target = parse_gram(report["inputs"]["target"], oracle)
        witnesses = parse_vectors(out["witnesses"], space)
        witness_gram = gram(space, witnesses, target.F, oracle=oracle)
        out["witness-gram"] = gram_to_json(witness_gram)
        out["discrepancy"] = report["headline"] = deviation(target, witness_gram.M)
    return tamper


@pytest.mark.parametrize("representation, entry, message", [
    ({"kind": "regular"}, [0, "1 1 1", 0.01, 0.0], "entry at 1 1 1 is off the span"),
    ({"kind": "multiple", "base": {"kind": "regular"}, "count": 2}, [1, "e", 0.01, 0.0],
     "entry at copy 1 is off the span"),
], ids=["off-the-ball", "another-copy"])
def test_contain_verify_refuses_a_witness_off_its_span(tmp_path, capsys, representation, entry,
                                                       message):
    """A witness of a ball-basis report lies in the deltas of copy 0 on the radius-r ball; a key
    off that ball, or in another copy of a multiple, exits 2 at the witness, even where the
    stored Gram data, discrepancy and headline are those ``gram`` gives."""
    config = {**CONTAIN_F2, "representation": representation}
    code, out = run_task(tmp_path, "contain", config)
    assert code == 0
    report = read_report(out)
    _witness_entry_off_the_span(entry)(report)
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config field 'report.outputs.witnesses[0]': {message}: the deltas of copy 0" in err
    assert "Traceback" not in err


def test_probe_walk_ball_stops_at_the_ball_cap(tmp_path, capsys):
    """The walk reads the probe's one ball, so ``caps.ball`` bounds it."""
    config = {"group": Z2, "task": {"nmax": 12, "radius": 1}}
    code, _out = run_task(tmp_path, "probe-amenability", config, "--cap-ball", "30")
    err = capsys.readouterr().err
    assert code == 3
    assert "ball element cap 30 exceeded at radius 4" in err


def test_free_probe_chain_stops_at_the_ball_cap(tmp_path, capsys):
    """``caps.ball`` bounds a free group's distance chain, radius + 1 points, as it bounds a ball."""
    config = {"group": F2, "task": {"nmax": 12, "radius": 29}}
    code, _out = run_task(tmp_path, "probe-amenability", config, "--cap-ball", "30")
    assert code == 0
    code, _out = run_task(tmp_path, "probe-amenability", config, "--cap-ball", "29")
    err = capsys.readouterr().err
    assert code == 3
    assert "ball element cap 29 exceeded at radius 29 of the distance chain" in err


def test_free_probe_walk_chain_stops_at_the_ball_cap(tmp_path, capsys):
    """The free walk reads the probe's one chain, of max(radius, nmax // 2) + 1 points, capped."""
    config = {"group": F2, "task": {"nmax": 60, "radius": 3}}
    code, _out = run_task(tmp_path, "probe-amenability", config, "--cap-ball", "31")
    assert code == 0
    code, _out = run_task(tmp_path, "probe-amenability", config, "--cap-ball", "30")
    err = capsys.readouterr().err
    assert code == 3
    assert "ball element cap 30 exceeded at radius 30 of the distance chain" in err


def test_report_is_written_compact(tmp_path):
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": Z, "task": {"nmax": 4, "radius": 2}})
    assert code == 0
    text = out.read_text()
    assert text.endswith("}\n") and "\n" not in text[:-1]
    assert ": " not in text and ", " not in text
    assert json.loads(text)["task"] == "probe-amenability"


def _matrix_json(U):
    return [[[float(z.real), float(z.imag)] for z in row] for row in U]


def _unit_vector(rng, copies, dim):
    """Unit vector literal ``[copy, coordinate, re, im]`` over the given summands."""
    amps = rng.standard_normal((len(copies), dim)) + 1j * rng.standard_normal((len(copies), dim))
    amps /= np.linalg.norm(amps)
    return [[c, str(k), float(amps[i, k].real), float(amps[i, k].imag)]
            for i, c in enumerate(copies) for k in range(dim)]


def _stability_configs(dim=8, seed=3):
    """Small versions of the witness search and stability tasks on two dim-dimensional F2 actions."""
    rng = np.random.default_rng(seed)
    rep = {"kind": "direct-sum", "parts": [
        {"kind": "matrix", "matrices": [_matrix_json(random_unitary(rng, dim)) for _ in range(2)]}
        for _ in range(2)]}
    first = _unit_vector(rng, [0], dim)
    closure = {"vectors": [first], "radius": 2}

    def config(task):
        return {"group": F2, "representation": rep, "seed": seed, "task": task}

    return {
        "contain": config({
            "target": {"F": ["e", "1", "-1", "2", "-2"], "n": 1, "matrices": [[[[1.0, 0.0]]]] * 5},
            "basis": [_unit_vector(rng, [0, 1], dim) for _ in range(3)],
            "tol": 1e-2, "budget": 50, "restarts": 2}),
        "canonical-base": config({"closure": closure, "a": [_unit_vector(rng, [0, 1], dim)]}),
        "nondividing": config({"closure": closure, "a": [_unit_vector(rng, [0, 1], dim)],
                               "B": [_unit_vector(rng, [0, 1], dim)]}),
        "superstable": config({"A": [first], "a": [_unit_vector(rng, [0, 1], dim)],
                               "eps": 1e-3, "radius": 2}),
    }


@pytest.mark.parametrize("task", ["contain", "canonical-base", "nondividing", "superstable"])
def test_stability_and_witness_round_trips(tmp_path, task):
    code, out = run_task(tmp_path, task, _stability_configs()[task])
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0
    report = read_report(out)
    outputs = report["outputs"]
    if task == "contain":
        assert outputs["iterations"] >= 1
        assert report["headline"] == outputs["discrepancy"]
    elif task == "canonical-base":
        # the closure of an 8-dim irreducible summand at radius 2 is the whole summand
        assert len(outputs["base"]) == 8
        assert outputs["worst-residual"] <= report["tolerances"]["reproduction"]
    elif task == "nondividing":
        assert report["headline"] == abs(complex(*outputs["worst"]["value"]))
    else:
        assert max(outputs["gaps"]) < report["tolerances"]["eps"]
        assert outputs["independent"]


@pytest.mark.parametrize("task, block, headline", [
    ("nondividing", {"closure": {"vectors": [[]]}, "a": [[[0, "1", 1.0, 0.0]]],
                     "B": [[[0, "4", 1.0, 0.0]]]}, 1.0),
    ("canonical-base", {"closure": {"vectors": [[]]}, "a": [[[0, "1", 1.0, 0.0]]]}, 0.0),
    ("superstable", {"A": [[]], "a": [[[0, "1", 1.0, 0.0]]], "eps": 0.01, "radius": 2}, 0.0),
])
def test_closure_of_zero_vectors_is_the_zero_space(tmp_path, capsys, task, block, headline):
    """On the regular representation of Z a closure of zero vectors has no column and dimension 0.

    Nothing is projected away: delta_1 and delta_4 meet under the translates 2 and -1, and the
    zero closure holds no part of a."""
    code, out = run_task(tmp_path, task, {"group": Z, "task": block})
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert read_report(out)["headline"] == headline
    assert main(["verify", "--report", str(out)]) == 0


@pytest.mark.parametrize("task", ["nondividing", "canonical-base", "superstable"])
def test_closure_tasks_honour_the_ball_cap(tmp_path, capsys, task):
    """The closure ball (53 elements of F2 at radius 3) stops at ``caps.ball``."""
    config = _stability_configs()[task]
    block = config["task"]
    if task == "superstable":
        block["radius"] = 3
    else:
        block["closure"] = {**block["closure"], "radius": 3}
    code, out = run_task(tmp_path, task, config, "--cap-ball", "10")
    err = capsys.readouterr().err
    assert code == 3
    assert "ball element cap 10 exceeded at radius 2" in err
    assert "Traceback" not in err
    code, out = run_task(tmp_path, task, config)
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0


@pytest.mark.parametrize("task", ["nondividing", "canonical-base", "superstable"])
def test_closure_tasks_honour_the_dimension_cap(tmp_path, capsys, task):
    """The closure (the whole 8-dim summand) stops at ``caps.dimension``."""
    code, _out = run_task(tmp_path, task, _stability_configs()[task], "--cap-dimension", "5")
    err = capsys.readouterr().err
    assert code == 3
    assert "dimension cap 5 exceeded" in err
    assert "Traceback" not in err


def test_transfer_frame_honours_the_dimension_cap(tmp_path, capsys):
    """On Z^2 at eps 0.02 the shifted remainders have 481 keys, one fresh copy each: they
    fit the default cap, not cap 100."""
    config = {"group": Z2, "task": {
        "pi": {"kind": "trivial", "dim": 1}, "F": ["1,0", "0,1"],
        "params": [[[1, "0,0", 1, 0]]], "targets": [[[2, "0,0", 1, 0]]], "eps": 0.02}}
    code, out = run_task(tmp_path, "transfer", config)
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0
    assert read_report(out)["outputs"]["converged"]
    capsys.readouterr()
    code, _out = run_task(tmp_path, "transfer", config, "--cap-dimension", "100")
    err = capsys.readouterr().err
    assert code == 3
    assert "dimension cap 100 exceeded" in err
    assert "Traceback" not in err


# 0.6 delta_0 + 0.8 delta_1 in stack copy 1: its translates overlap, so they span fewer
# dimensions than they have keys
OVERLAPPING_TRANSFER = {"group": Z, "task": {
    **TRANSFER["task"], "targets": [[[2, "0", 0.6, 0], [2, "1", 0.8, 0]]]}}


def test_transfer_takes_one_fresh_copy_per_key_of_overlapping_translates(tmp_path, capsys):
    """The translates of the target by the support of f have one key more than there are
    translates, so more keys than any frame of them has vectors. Each key is one fresh
    copy, the witnesses match the target Gram data within eps, and a dimension cap one
    below the key count exits 3."""
    code, out = run_task(tmp_path, "transfer", OVERLAPPING_TRANSFER)
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0
    report = read_report(out)
    oracle = parse_group(Z)
    rho = DirectSum([Trivial(1), Multiple(Regular(oracle), None)])
    F = [(0,), (1,), (-1,)]
    vectors = (parse_vectors(report["inputs"]["params"], rho)
               + parse_vectors(report["inputs"]["targets"], rho))
    witnesses = parse_vectors(report["outputs"]["witnesses"], rho)
    assert discrepancy(gram(rho, vectors, F, oracle=oracle), rho, witnesses) <= 0.05
    f = folner_witness(oracle, F, 0.05)  # the target's Gram data has max modulus 1
    translates = [rho.apply(oracle.invert(h), vectors[1]) for (_c, h) in f.entries]
    keys = {key for t in translates for key in t.entries}
    assert len(keys) == len(translates) + 1
    assert len({leaf for (leaf, _x) in witnesses[1].entries}) == len(keys)
    capsys.readouterr()
    code, _out = run_task(tmp_path, "transfer", OVERLAPPING_TRANSFER,
                          "--cap-dimension", str(len(keys) - 1), name="capped")
    err = capsys.readouterr().err
    assert code == 3
    assert f"dimension cap {len(keys) - 1} exceeded" in err


def test_transfer_parameter_in_the_complement_exits_2(tmp_path, capsys):
    config = {"group": Z, "task": {**TRANSFER["task"], "complement": {"kind": "trivial", "dim": 1},
                                   "params": [[[1, 0, 1, 0]]], "targets": [[[3, "5", 1, 0]]]}}
    code, _out = run_task(tmp_path, "transfer", config)
    err = capsys.readouterr().err
    assert code == 2
    assert "parameters must be supported in the common part and the shift stack" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("task, config, check", [
    ("folner-witness", FOLNER,
     lambda out: out["max-defect"] <= 0.3 and len(out["defects"]) == 2),
    ("transfer", TRANSFER,
     lambda out: out["converged"] and out["discrepancy"] <= 0.05),
    ("amalgamate", {"group": C3, "task": {
        "pi": {"kind": "regular"},
        "rho": {"kind": "direct-sum",
                "parts": [{"kind": "regular"}, {"kind": "trivial", "dim": 1}]},
        "eta": {"kind": "regular"}, "check-radius": 2}},
     lambda out: out["dim"] == 4 and out["gram-defect"] <= 1e-8),
])
def test_folner_transfer_amalgamate_round_trips(tmp_path, task, config, check):
    code, out = run_task(tmp_path, task, config)
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0
    assert check(read_report(out)["outputs"])


def _without_timestamp(path):
    report = read_report(path)
    del report["timestamp"]
    return report


@pytest.mark.parametrize("task, config, flags, overridden", [
    ("probe-amenability", {"group": Z, "task": {"nmax": 4, "radius": 4}}, ["--radius", "2"],
     {"radius": 2}),
    ("nondividing", _stability_configs()["nondividing"], ["--tol", "1e-3"], {"tol": 1e-3}),
])
def test_flag_overrides_its_config_key(tmp_path, task, config, flags, overridden):
    """A run with the flag writes the report of a config that holds the flag's value."""
    code, out = run_task(tmp_path, task, config, *flags, name="flag")
    assert code == 0
    report = _without_timestamp(out)
    assert {**report["inputs"], **report["tolerances"]}.items() >= overridden.items()
    expected = copy.deepcopy(config)
    expected["task"].update(overridden)
    code, expected_out = run_task(tmp_path, task, expected, name="config")
    assert code == 0
    assert report == _without_timestamp(expected_out)


def test_csv_export_writes_step_and_radius_tables(tmp_path):
    table = tmp_path / "traces.csv"
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": Z, "task": {"nmax": 4, "radius": 2}}, "--csv", str(table))
    assert code == 0
    outputs = read_report(out)["outputs"]
    with open(table, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    steps = outputs["return-probabilities"]["steps"]
    blank = rows.index([])
    assert rows[0] == ["step", "p", "root-estimate", "ratio-estimate"]
    assert [int(r[0]) for r in rows[1:blank]] == steps
    assert rows[blank + 1] == ["radius", "min-defect", "certified-lower"]
    assert [[int(r[0]), float(r[1])] for r in rows[blank + 2:]] == [
        [row["radius"], row["value"]] for row in outputs["defect-table"]]


def test_registry_declares_each_subcommand_once():
    """Subcommands, handlers and verifiers agree; each task's flags are its declared ones."""
    parser = build_parser()
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subcommands) == set(HANDLERS) | {"verify"}
    assert HANDLERS.keys() == VERIFIERS.keys() == TASKS.keys()
    common = {"--config", "--out", "--seed", "--cap-ball", "--cap-dimension"}
    for name, task in TASKS.items():
        flags = {s for a in subcommands[name]._actions for s in a.option_strings}
        declared = {f"--{p.name}" for p in task.params if "." not in p.name}
        assert flags - {"-h", "--help"} == common | declared | {f"--{f}" for f in task.files}


def test_contain_reports_the_gram_data_of_its_search(tmp_path, monkeypatch):
    """``witness-gram`` is the search's own Gram function: ``contain`` forms no second one."""
    def no_gram(*args, **kwargs):
        raise AssertionError("gram was formed again")

    monkeypatch.setattr("unirep.cli.gram", no_gram)
    code, out = run_task(tmp_path, "contain", CONTAIN_F2)
    assert code == 0
    monkeypatch.undo()
    assert main(["verify", "--report", str(out)]) == 0


def test_contain_target_forms_give_one_report(tmp_path):
    """A target given by a representation and vectors, as Gram matrices, or by ``--target``
    gives one report: the F2 action by a swap and a sign on C^2, at the coordinate vectors."""
    swap = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    sign = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    F = ["e", "1", "-1", "2", "-2"]
    by_rep = {"representation": {"kind": "matrix", "matrices": [swap, sign]}, "F": F,
              "vectors": [[[0, "0", 1.0, 0.0]], [[0, "1", 1.0, 0.0]]]}
    by_gram = {"F": F, "n": 2, "matrices": [eye, swap, swap, sign, sign]}
    task = {"radius": 1, "tol": 1e-3, "budget": 20, "restarts": 1}
    target_file = tmp_path / "target.json"
    target_file.write_text(json.dumps(by_rep))
    reports = []
    for name, block, flags in [("rep", {**task, "target": by_rep}, []),
                               ("gram", {**task, "target": by_gram}, []),
                               ("file", task, ["--target", str(target_file)])]:
        code, out = run_task(tmp_path, "contain", {"group": F2, "task": block}, *flags, name=name)
        assert code == 0
        assert main(["verify", "--report", str(out)]) == 0
        reports.append(_report_bytes_without_timestamp(out))
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_transfer_forms_its_target_gram_data_once(tmp_path, monkeypatch):
    """``target-gram`` is the Gram data ``transfer_witness`` realized: a Z run passes
    ``params + targets`` to ``gram`` once, and its remainder once."""
    calls = []

    def counted(rep, vectors, F, **kwargs):
        calls.append([v.entries for v in vectors])
        return gram(rep, vectors, F, **kwargs)

    for module in ("cli", "containment"):
        monkeypatch.setattr(f"unirep.{module}.gram", counted)
    code, out = run_task(tmp_path, "transfer", TRANSFER)
    assert code == 0
    params_and_targets = [{(1, (0,)): 1}, {(2, (5,)): 1}]  # TRANSFER's params, then targets
    assert calls == [params_and_targets, [{(2, (5,)): 1}]]
    monkeypatch.undo()
    assert main(["verify", "--report", str(out)]) == 0


@pytest.mark.parametrize("argv", [["--help"], ["contain", "--help"]], ids=["top", "contain"])
def test_help_lists_the_subcommands_and_the_task_flags(argv):
    """``main`` gives only the subcommand it runs its arguments; help still shows everything."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run([sys.executable, "-m", "unirep.cli", *argv], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    if argv == ["--help"]:
        for name in [*TASKS, "verify"]:
            assert name in result.stdout
    else:
        for flag in ["--config", "--out", "--seed", "--cap-ball", "--cap-dimension", "--radius",
                     "--tol", "--budget", "--restarts", "--target"]:
            assert flag in result.stdout


@pytest.mark.parametrize("command", [None, "verify", *TASKS])
def test_parser_holds_only_the_subcommand_it_runs(command):
    """A task or ``verify`` gets its own subparser alone; no command gets all of them."""
    subcommands = next(a for a in build_parser(command)._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subcommands) == ([*TASKS, "verify"] if command is None else [command])


def test_mistyped_command_exits_2_and_lists_every_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["contian", "--config", "c.json", "--out", "r.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'contian'" in err
    choices = re.search(r"choose from (.*)\)", err).group(1)
    assert sorted(re.findall(r"[\w-]+", choices)) == sorted([*TASKS, "verify"])


def test_main_parses_a_subcommand_with_only_its_own_arguments(tmp_path, capsys):
    """A flag of another task is refused, as with the full parser."""
    cfg = tmp_path / "probe.config.json"
    cfg.write_text(json.dumps({"group": Z, "task": {"nmax": 4, "radius": 2}}))
    with pytest.raises(SystemExit) as exc:
        main(["probe-amenability", "--config", str(cfg), "--out", str(tmp_path / "r.json"),
              "--tol", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def _set_spectral_radius_to_string(report):
    report["outputs"]["spectral"]["radius"] = "x"


def _delete_spectral(report):
    del report["outputs"]["spectral"]


def _set_amplitude_to_string(report):
    report["outputs"]["defect-table"][1]["argmin"][2] = "x"


def _set_row_radius_past_input(report):
    report["outputs"]["defect-table"][1]["radius"] = 3


@pytest.mark.parametrize("tamper", [_set_spectral_radius_to_string, _delete_spectral,
                                    _set_amplitude_to_string, _set_row_radius_past_input])
def test_malformed_report_exits_2_with_field(tmp_path, capsys, tamper):
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": Z, "task": {"nmax": 4, "radius": 2}})
    assert code == 0
    report = read_report(out)
    tamper(report)
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config field 'report." in err
    assert "Traceback" not in err


def _zero_denominator(rp):
    rp["p-exact"][1] = "1/0"


def _zero_p0(rp):
    rp["p"][0] = 0.0


@pytest.mark.parametrize("tamper", [_zero_denominator, _zero_p0])
def test_verify_probe_zero_division_exits_2(tmp_path, capsys, tamper):
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": Z, "task": {"nmax": 4, "radius": 2}})
    assert code == 0
    report = read_report(out)
    tamper(report["outputs"]["return-probabilities"])
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config field 'report'" in err
    assert "Traceback" not in err


def _raise_certified_lower(out):
    out["defect-table"][0]["certified-lower"] = 5.0  # above the row's value


def _lower_spectral_lower(out):
    out["spectral"]["lower"] = 0.1


def _negate_argmin_entry(out):
    argmin = out["defect-table"][0]["argmin"]
    argmin[0] = -argmin[0]


def _truncate_argmin(out):
    out["defect-table"][0]["argmin"].pop()


def _zero_argmin(out):
    argmin = out["defect-table"][0]["argmin"]
    argmin[:] = [0.0] * len(argmin)


def _raise_p(out):
    out["return-probabilities"]["p"][1] += 0.01


def _change_p_exact(out):
    out["return-probabilities"]["p-exact"][2] = "3/7"


def _raise_root_estimate(out):
    out["return-probabilities"]["root-estimates"][1] += 0.01


def _raise_ratio_estimate(out):
    out["return-probabilities"]["ratio-estimates"][0] += 0.01


def _skip_a_step(out):
    out["return-probabilities"]["steps"][1] = 3


PROBE_TAMPERS = [
    (_raise_certified_lower, "certified-lower-r1"),
    (_lower_spectral_lower, "spectral-lower"),
    (_negate_argmin_entry, "certified-lower-r1"),
    (_truncate_argmin, "argmin-length-r1"),
    (_zero_argmin, "defect-r1"),
    (_raise_p, "p-2"),
    (_change_p_exact, "p-4"),
    (_raise_root_estimate, "root-estimate-2"),
    (_raise_ratio_estimate, "ratio-estimate-0"),
    (_skip_a_step, "steps"),
]


def _tampered_probe_fails(tmp_path, capsys, group, tamper, check):
    code, out = run_task(tmp_path, "probe-amenability",
                         {"group": group, "task": {"nmax": 8, "radius": 2}})
    assert code == 0
    report = read_report(out)
    tamper(report["outputs"])
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"FAILED {check}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tamper, check", PROBE_TAMPERS)
def test_verify_probe_rejects_tampered_certificates(tmp_path, capsys, tamper, check):
    _tampered_probe_fails(tmp_path, capsys, Z, tamper, check)


@pytest.mark.parametrize("tamper, check", PROBE_TAMPERS)
def test_verify_free_probe_rejects_tampered_certificates(tmp_path, capsys, tamper, check):
    """F2 rows hold one amplitude per sphere, checked on the distance chain."""
    _tampered_probe_fails(tmp_path, capsys, F2, tamper, check)


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
    report = read_report(out)
    assert len(report["outputs"]["defect-table"]) == radius
    tamper(report["outputs"])
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line.split(":")[0] for line in err.splitlines()] == [
        f"verify FAILED {check}" for check in failed]
    assert "Traceback" not in err


def test_non_numeric_vector_amplitude_exits_2_with_field(tmp_path, capsys):
    config = {"group": Z, "task": {"closure": {"vectors": [[[0, "0", 1.0, 0.0]]], "radius": 1},
                                   "a": [[[0, "0", "x", 0]]]}}
    code, _out = run_task(tmp_path, "canonical-base", config)
    err = capsys.readouterr().err
    assert code == 2
    assert "'task.a[0][0]'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("task, config, key", [
    ("canonical-base", {"group": Z, "task": {
        "closure": {"vectors": [[[0, "0", 1.0, 0.0]]], "radius": 1},
        "a": [[[0, "0", 1.0, 0.0]]]}}, "base"),
    ("contain", _stability_configs()["contain"], "witnesses"),
])
def test_malformed_report_vector_exits_2_at_its_field(tmp_path, capsys, task, config, key):
    code, out = run_task(tmp_path, task, config)
    assert code == 0
    report = read_report(out)
    report["outputs"][key][0][0][2] = "x"  # the real part of the first amplitude
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config field 'report.outputs.{key}[0][0]'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("representation, coordinate", [
    ("matrix", "32"), ("matrix", "-1"), ("trivial", "2")])
def test_config_coordinate_off_its_leaf_exits_2_at_its_entry(tmp_path, capsys, representation,
                                                              coordinate):
    """A finite leaf's keys are its coordinates 0..dim-1, read and checked by that leaf: one
    outside them exits 2 at its entry, on a 32-dim matrix leaf and on the trivial leaf of dim 2."""
    if representation == "matrix":
        config, j, dim = copy.deepcopy(_stability_configs(dim=32)["canonical-base"]), 5, 32
    else:
        config, j, dim = {"group": Z, "representation": {"kind": "trivial", "dim": 2}, "task": {
            "closure": {"vectors": [[[0, "0", 1.0, 0.0]]], "radius": 1},
            "a": [[[0, "1", 1.0, 0.0], [0, "0", 0.5, 0.0]]]}}, 1, 2
    config["task"]["a"][0][j][1] = coordinate
    code, _out = run_task(tmp_path, "canonical-base", config)
    err = capsys.readouterr().err
    assert code == 2
    assert (f"config field 'task.a[0][{j}]': coordinate {coordinate} out of range for dim {dim}"
            in err)
    assert "Traceback" not in err


def _nan_amplitude(entries):
    entries[0][2] = math.nan
    return 0, "amplitude must be finite"


def _repeated_entry(entries):
    entries.append(list(entries[0]))
    return len(entries) - 1, "repeated entry"


@pytest.mark.parametrize("tamper", [_nan_amplitude, _repeated_entry])
def test_report_vector_entry_is_checked_under_verify(tmp_path, capsys, tamper):
    """A stored witness with a NaN amplitude or a repeated entry exits 2 at that entry."""
    code, out = run_task(tmp_path, "transfer", TRANSFER)
    assert code == 0
    report = read_report(out)
    i, message = tamper(report["outputs"]["witnesses"][1])
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config field 'report.outputs.witnesses[1][{i}]': {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("label", [["1 1 1", 0], ["x", 0], [None, 0], ["e", 1], ["e", -1],
                                   ["e"]])
def test_superstable_label_off_its_ball_exits_2_at_its_field(tmp_path, capsys, label):
    """A ``selected`` label names an element of the radius-``inputs.radius`` ball and an index
    into A; ``verify`` reads each from that ball's orbit block, and any other exits 2 there."""
    code, out = run_task(tmp_path, "superstable", _stability_configs()["superstable"])
    assert code == 0
    report = read_report(out)
    assert report["inputs"]["radius"] == 2 and len(report["outputs"]["selected"]) > 1
    report["outputs"]["selected"][1] = label
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("config field 'report.outputs.selected[1]': expected [element of the radius-2 ball"
            in err)
    assert "Traceback" not in err


def _empty_b_and_gaps(report):
    report["outputs"].update({"b": [], "gaps": []})
    report["headline"] = 0.0


def _flip_converged(report):
    report["outputs"]["converged"] = not report["outputs"]["converged"]


def _raise_witness_gram_entry(report):
    report["outputs"]["witness-gram"]["matrices"][0][0][0] = [5.0, 0.0]


def _raise_certified_lower(report):
    report["outputs"]["certified-lower"] += 1e-6


def _raise_certified_floor(report):
    report["outputs"]["certified-floor"] += 1e-6


def _claim_certified_lower(report):
    """A bound on an explicit-basis report, whose span no ball bound covers."""
    report["outputs"]["certified-lower"] = 0.0


def _zero_a_ball_point(report):
    """The witness with its last ball point dropped; its Gram data and discrepancy follow."""
    out = report["outputs"]
    del out["witnesses"][0][-1]
    oracle = parse_group(report["inputs"]["group"])
    target = parse_gram(report["inputs"]["target"], oracle)
    reg = Regular(oracle)
    witness_gram = gram(reg, [parse_vector(out["witnesses"][0], reg)], target.F, oracle=oracle)
    out["witness-gram"] = gram_to_json(witness_gram)
    out["discrepancy"] = report["headline"] = deviation(target, witness_gram.M)


def _flip_independent(report):
    report["outputs"]["independent"] = not report["outputs"]["independent"]


def _raise_independence_worst(report):
    report["outputs"]["independence-worst"] = 7.0


def _independence_worst_half_eps(report):
    report["outputs"]["independence-worst"] = report["tolerances"]["eps"] / 2


def _halve_value_exact(report):
    row = report["outputs"]["defects"][0]
    row["value-exact"] = str(Fraction(row["value-exact"]) / 2)


def _swap_in_a_two_by_two_box(report):
    """A consistent report for the normalized 2x2 box, whose defect 1 exceeds eps 0.3."""
    out = report["outputs"]
    out["witness"] = [[0, f"{i},{j}", 0.5, 0.0] for i in range(2) for j in range(2)]
    out["support-size"] = 4
    for row in out["defects"]:
        row.update({"value": 1.0, "value-exact": "1"})
    out["max-defect"] = report["headline"] = 1.0


def _shrink_support_size(report):
    report["outputs"]["support-size"] = 3


def _zero_max_defect_and_headline(report):
    report["outputs"]["max-defect"] = report["headline"] = 0.0


def _delete_a_defect_row(report):
    del report["outputs"]["defects"][1]


def _move_target_to_common_part(report):
    """Targets that the stored witnesses and target Gram data do not belong to."""
    report["inputs"]["targets"] = [[[0, "0", 1, 0]]]


@pytest.mark.parametrize("task, config, tamper, failed", [
    ("superstable", _stability_configs()["superstable"], _empty_b_and_gaps,
     ["b-count", "gaps-count"]),
    ("superstable", _stability_configs()["superstable"], _flip_independent, ["independent"]),
    ("superstable", _stability_configs()["superstable"], _raise_independence_worst,
     ["independence-worst"]),
    ("nondividing", _stability_configs()["nondividing"], _flip_independent, ["independent"]),
    ("folner-witness", FOLNER, _halve_value_exact, ["defect-exact-1,0"]),
    ("folner-witness", FOLNER, _shrink_support_size, ["support-size"]),
    ("folner-witness", FOLNER, _zero_max_defect_and_headline, ["max-defect", "headline"]),
    ("contain", _stability_configs()["contain"], _flip_converged, ["converged"]),
    ("contain", _stability_configs()["contain"], _raise_witness_gram_entry, ["witness-gram"]),
    ("contain", CONTAIN_F2, _raise_certified_lower, ["certified-lower"]),
    ("contain", CONTAIN_F2, _raise_certified_floor, ["certified-floor"]),
    ("contain", _stability_configs()["contain"], _claim_certified_lower, ["certified-lower"]),
    ("contain", CONTAIN_F2, _zero_a_ball_point, ["certified-lower"]),
    ("transfer", TRANSFER, _flip_converged, ["converged"]),
    ("superstable", _stability_configs()["superstable"], _independence_worst_half_eps,
     ["independence-worst"]),
    ("folner-witness", FOLNER, _swap_in_a_two_by_two_box, ["within-eps-1,0", "within-eps-0,1"]),
    ("folner-witness", FOLNER, _delete_a_defect_row, ["defect-elements"]),
    ("transfer", TRANSFER, _move_target_to_common_part, ["discrepancy", "target-gram"]),
])
def test_verify_rejects_tampered_witness_reports(tmp_path, capsys, task, config, tamper, failed):
    """Each stored output is recomputed: a consistent-looking edit still fails its check."""
    code, out = run_task(tmp_path, task, config)
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0
    report = read_report(out)
    tamper(report)
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line.split(":")[0] for line in err.splitlines()] == [
        f"verify FAILED {check}" for check in failed]
    assert "Traceback" not in err


CAPS = [1, 3, 10, 30, 100, 300, 1000]
PROBE_GROUPS = [Z, Z2, {"kind": "fg-abelian", "rank": 1, "torsion": [3]},
                {"kind": "fg-abelian", "rank": 0, "torsion": [2]},
                {"kind": "fg-abelian", "rank": 0, "torsion": []}, C3, F2,
                {"kind": "free", "rank": 3}, Z2_REWRITING]


def test_probe_fuzz_exits_cleanly_and_verifies(tmp_path, capsys):
    """Random small probe configs exit 0, 2, 3 or 4 without a traceback; each report verifies.

    Exit 2 comes exactly from an nmax below the first return step or a negative radius.
    """
    rng = random.Random(0)
    for i in range(60):
        nmax, radius = rng.randint(-1, 24), rng.randint(-1, 4)
        config = {"group": rng.choice(PROBE_GROUPS), "caps": {"ball": rng.choice(CAPS)},
                  "task": {"nmax": nmax, "radius": radius}}
        code, out = run_task(tmp_path, "probe-amenability", config, name=f"fuzz-{i}")
        assert code in (0, 2, 3, 4), config
        assert (code == 2) == (nmax < 2 or radius < 0), config
        if code == 0:
            assert main(["verify", "--report", str(out)]) == 0, config
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("config, flags, field", [
    ({}, ["--cap-dimension", "-5"], "config.caps.dimension"),
    ({}, ["--cap-ball", "0"], "config.caps.ball"),
    ({"caps": [1]}, [], "config.caps"),
    ({"caps": {"ball": True}}, [], "config.caps.ball"),
    ({"seed": True}, [], "config.seed"),
    ({"caps": {"support": 10}}, [], "config.caps"),
    ({"caps": {"fresh-copies": 10}}, [], "config.caps"),
])
def test_bad_seed_or_cap_exits_2_with_field(tmp_path, capsys, config, flags, field):
    """A seed or cap is checked in one place, whether it comes from the config or a flag."""
    config = {"group": F2, "task": {"nmax": 4, "radius": 2}, **config}
    code, _out = run_task(tmp_path, "probe-amenability", config, *flags)
    err = capsys.readouterr().err
    assert code == 2
    assert f"config field '{field}'" in err
    assert "Traceback" not in err


AMALGAMATE_Z = {"group": Z, "task": {
    "pi": {"kind": "trivial", "dim": 1},
    "rho": {"kind": "direct-sum", "parts": [{"kind": "trivial", "dim": 1}] * 2},
    "eta": {"kind": "trivial", "dim": 1}, "check-radius": 2}}


@pytest.mark.parametrize("task, config, size", [
    ("probe-amenability", {"group": Z, "task": {"nmax": 4, "radius": 3}}, 7),
    ("probe-amenability", {"group": F2, "task": {"nmax": 4, "radius": 3}}, 4),
    ("contain", CONTAIN_F2, 17),
    ("superstable", _stability_configs()["superstable"], 17),
    ("amalgamate", AMALGAMATE_Z, 5),
])
def test_verify_rebuilds_each_ball_under_the_reports_caps(tmp_path, capsys, task, config, size):
    """A run whose ball has ``size`` points fits ``caps.ball`` = size, and its report echoes
    its caps. ``verify`` rebuilds the ball under the report's cap: one below exits 3, and a
    report without a ``caps`` block reads as the default caps."""
    code, out = run_task(tmp_path, task, {**config, "caps": {"ball": size}})
    assert code == 0
    report = read_report(out)
    assert report["caps"] == {**DEFAULT_CAPS, "ball": size}
    assert main(["verify", "--report", str(out)]) == 0
    del report["caps"]
    out.write_text(json.dumps(report))
    assert main(["verify", "--report", str(out)]) == 0
    report["caps"] = {"ball": size - 1}
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"ball element cap {size - 1} exceeded" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("caps, field", [
    ({"ball": 0}, "report.caps.ball"),
    ({"ball": "x"}, "report.caps.ball"),
    ({"ball": True}, "report.caps.ball"),
    ({"support": 10}, "report.caps"),
    ([1], "report.caps"),
])
def test_bad_report_cap_exits_2_with_field(tmp_path, capsys, caps, field):
    """A report's caps go through the reader a config's caps go through."""
    code, out = run_task(tmp_path, "amalgamate", AMALGAMATE_Z)
    assert code == 0
    report = read_report(out)
    report["caps"] = caps
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err
    assert "Traceback" not in err


Z_BY_2_AND_3 = {"kind": "fg-abelian", "rank": 1, "torsion": [], "generators": [[2], [3]]}
CHARACTER_2_3 = {"kind": "matrix", "matrices": [[[[-1.0, 0.0]]], [[[0.0, -1.0]]]]}


def test_amalgamate_check_ball_reaches_past_the_word_ball_cap(tmp_path, monkeypatch):
    """``_gram_defect`` forms its rows along the check ball's left tree (``B.left_tree``), so
    only B's steps reach ``matrix_of`` and no far element is looked up by ``word_ball`` under
    ``DEFAULT_BALL_CAP``: with that cap at 100, a check ball of 241 points (Z on the steps 2
    and 3, radius 40) still runs and verifies."""
    monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 100)
    config = {"group": Z_BY_2_AND_3, "task": {
        "pi": CHARACTER_2_3,
        "rho": {"kind": "direct-sum", "parts": [CHARACTER_2_3, {"kind": "trivial", "dim": 1}]},
        "eta": CHARACTER_2_3, "check-radius": 40}}
    code, out = run_task(tmp_path, "amalgamate", config)
    assert code == 0
    assert read_report(out)["outputs"]["gram-defect"] <= 1e-12
    assert main(["verify", "--report", str(out)]) == 0


@pytest.mark.parametrize("element", ["1,0,0", "1,x"])
def test_folner_verify_names_the_field_of_a_bad_element(tmp_path, capsys, element):
    """A defect row's element is read by the one element reader, which names its row."""
    code, out = run_task(tmp_path, "folner-witness", FOLNER)
    assert code == 0
    report = read_report(out)
    report["outputs"]["defects"][0]["element"] = element
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config field 'report.outputs.defects[0]'" in err
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
    ("probe-amenability", {"nmax": 4.7}, "task.nmax"),
    ("probe-amenability", {"radius": 2.9}, "task.radius"),
    ("probe-amenability", {"radius": True}, "task.radius"),
    ("contain", {"target": {}, "budget": "many"}, "task.budget"),
    ("contain", {"target": {}, "restarts": [1]}, "task.restarts"),
    ("nondividing", {"tol": "tight"}, "task.tol"),
    ("nondividing", {"closure": {"radius": "x"}}, "task.closure.radius"),
    ("canonical-base", {"closure": {"radius": "x"}}, "task.closure.radius"),
    ("amalgamate", {"check-radius": "x"}, "task.check-radius"),
    ("folner-witness", {"eps": 0.1, "F": ["x"]}, "task.F[0]"),
    ("contain", {"target": {"F": ["0", "x"], "n": 1, "matrices": [[[[1.0, 0.0]]]] * 2}},
     "target.F[1]"),
    ("superstable", {"eps": 1e-3, "A": [[[0, "0", 1.0, 0.0]]]}, "task.a"),
    ("folner-witness", {"eps": math.inf, "F": ["1"]}, "task.eps"),
    ("folner-witness", {"eps": math.nan, "F": ["1"]}, "task.eps"),
    ("transfer", {"eps": "inf"}, "task.eps"),
    ("contain", {"target": {}, "tol": math.nan}, "task.tol"),
    ("canonical-base", {"closure": {"vectors": [[[0, "0", "nan", 0]]]}},
     "task.closure.vectors[0][0]"),
    ("nondividing", {"closure": {"vectors": [[[0, "0", 1, 0]]]}, "a": [[[0, "0", 0, -math.inf]]]},
     "task.a[0][0]"),
    ("canonical-base", {"closure": {"vectors": [[[0, "1", 1, 0], [0, " 1 ", -1, 0]]]}},
     "task.closure.vectors[0][1]"),
    ("contain", {"target": {"F": ["0"], "n": 1, "matrices": [[[[math.nan, 0.0]]]]}}, "target"),
    ("amalgamate", {"pi": {"kind": "matrix", "matrices": [[[[math.nan, 0.0]]]]}}, "task.pi"),
])
def test_malformed_number_exits_2_with_field(tmp_path, capsys, task, block, field):
    """A malformed or non-finite number, a bad element string, a repeated vector entry or a
    missing vector list exits 2 at its field."""
    code, _out = run_task(tmp_path, task, {"group": Z, "task": block})
    err = capsys.readouterr().err
    assert code == 2
    assert f"'{field}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("task, flags", [
    ("folner-witness", ["--eps", "inf"]),
    ("contain", ["--tol", "nan"]),
])
def test_non_finite_flag_exits_2_with_field(tmp_path, capsys, task, flags):
    """A flag's value is checked as its config value is: infinity and NaN exit 2."""
    code, _out = run_task(tmp_path, task, {"group": Z, "task": {"F": ["1"], "eps": 0.1}}, *flags)
    err = capsys.readouterr().err
    assert code == 2
    assert f"config field 'task.{flags[0][2:]}': expected a finite float" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("group", [
    {"kind": "fg-abelian", "rank": 0, "torsion": [4], "generators": [[2]]},
    {"kind": "finite-table", "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
     "generators": [2]},
])
def test_non_generating_group_exits_2_at_group(tmp_path, capsys, group):
    """Generators of a proper subgroup of a finite group are rejected at the group block."""
    code, _out = run_task(tmp_path, "probe-amenability",
                          {"group": group, "task": {"nmax": 4, "radius": 2}})
    err = capsys.readouterr().err
    assert code == 2
    assert "config field 'config.group'" in err and "do not generate" in err
    assert "Traceback" not in err


def test_non_associative_table_exits_2_at_group(tmp_path, capsys):
    group = {"kind": "finite-table", "table": swapped_intercalate_table(), "generators": [1]}
    code, _out = run_task(tmp_path, "probe-amenability",
                          {"group": group, "task": {"nmax": 4, "radius": 2}})
    err = capsys.readouterr().err
    assert code == 2
    assert "config field 'config.group'" in err and "not associative" in err
    assert "Traceback" not in err


def test_second_right_side_for_a_left_side_exits_2_at_group(tmp_path, capsys):
    group = {"kind": "rewriting-presented", "num_generators": 2,
             "rules": [*Z2_REWRITING["rules"], [[1, -1], [2]]]}
    code, _out = run_task(tmp_path, "probe-amenability",
                          {"group": group, "task": {"nmax": 4, "radius": 2}})
    err = capsys.readouterr().err
    assert code == 2
    assert "config field 'config.group'" in err and "1 -1 -> e and 1 -1 -> 2" in err
    assert "Traceback" not in err


def test_rule_that_never_fires_exits_2_at_group(tmp_path, capsys):
    group = {"kind": "rewriting-presented", "num_generators": 3, "rules": [[[1, -1, 2], [3]]]}
    code, _out = run_task(tmp_path, "probe-amenability",
                          {"group": group, "task": {"nmax": 4, "radius": 2}})
    err = capsys.readouterr().err
    assert code == 2
    assert "config field 'config.group'" in err and "1 -1 2 -> 3 never fires" in err
    assert "Traceback" not in err


def test_step_cap_hit_while_building_the_group_exits_3(tmp_path, capsys):
    """Checking ``1 -1 2 -> 2`` normalizes its left side, which loops on ``2 -> 3``, ``3 -> 2``."""
    group = {"kind": "rewriting-presented", "num_generators": 3,
             "rules": [[[1, -1, 2], [2]], [[2], [3]], [[3], [2]]]}
    code, _out = run_task(tmp_path, "probe-amenability",
                          {"group": group, "task": {"nmax": 4, "radius": 2}})
    err = capsys.readouterr().err
    assert code == 3
    assert "step cap" in err and "Traceback" not in err


def test_non_confluent_rules_whose_steps_lose_their_inverses_exit_2(tmp_path, capsys):
    group = {"kind": "rewriting-presented", "num_generators": 2, "rules": [[[-1], [1, 2]]]}
    code, _out = run_task(tmp_path, "probe-amenability",
                          {"group": group, "task": {"nmax": 4, "radius": 2}})
    err = capsys.readouterr().err
    assert code == 2
    assert "not a group" in err and "Traceback" not in err


Z_ON_2_3 = {"kind": "fg-abelian", "rank": 1, "torsion": [], "generators": [[2], [3]]}
Z4_ON_1_2 = {"kind": "fg-abelian", "rank": 0, "torsion": [4], "generators": [[1], [2]]}
CANONICAL_BASE = {"closure": {"vectors": [[[0, "0", 1, 0]]]}, "a": [[[0, "1", 1, 0]]]}


@pytest.mark.parametrize("group, matrices", [
    (Z_ON_2_3, [np.diag([1j, 1]), np.diag([1, -1])]),  # A^3 B^-2 = diag(-i, 1)
    (Z4_ON_1_2, [np.array([[1j]]), np.array([[1]])]),  # A^2 = -1, B = 1
])
def test_matrices_off_the_presentation_exit_2_at_representation(tmp_path, capsys, group,
                                                                   matrices):
    """Each oracle's presentation is checked whole; a genuine action on the group still runs."""
    rep = {"kind": "matrix", "matrices": [_matrix_json(U) for U in matrices]}
    config = {"group": group, "representation": rep, "task": CANONICAL_BASE}
    code, _out = run_task(tmp_path, "canonical-base", config)
    err = capsys.readouterr().err
    assert code == 2
    assert "config field 'config.representation'" in err and "violated" in err
    assert "Traceback" not in err
    w = random_unitary(np.random.default_rng(3), 2)
    genuine = [w @ w, w @ w @ w] if group is Z_ON_2_3 else [1j * np.eye(2), -np.eye(2)]
    rep["matrices"] = [_matrix_json(U) for U in genuine]
    code, out = run_task(tmp_path, "canonical-base", config, name="genuine")
    assert code == 0
    assert main(["verify", "--report", str(out)]) == 0


@pytest.mark.parametrize("task, config, field", [
    ("canonical-base", {"representation": {"kind": "matrix", "matrices": [[[[1.0, 0.0]]]] * 2,
                                           "relations": []}, "task": CANONICAL_BASE},
     "config.representation.relations"),
    ("amalgamate", {"task": {"pi": {"kind": "matrix", "matrices": [[[[1.0, 0.0]]]] * 2,
                                    "relations": [[1, 2, -1, -2]]}}},
     "task.pi.relations"),
])
def test_matrix_relations_key_exits_2_at_its_field(tmp_path, capsys, task, config, field):
    """A matrix block takes no relations: the group's oracle presents the group."""
    code, _out = run_task(tmp_path, task, {"group": F2, **config})
    err = capsys.readouterr().err
    assert code == 2
    assert f"config field '{field}'" in err
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = "import sys, unirep.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def _report_bytes_without_timestamp(path):
    return re.sub(rb'"timestamp":"[^"]*",', b"", path.read_bytes())


@pytest.mark.parametrize("group", [Z2_REWRITING, H3], ids=["z2-rewriting", "heisenberg"])
@pytest.mark.parametrize("task, block", [
    ("folner-witness", {"eps": 0.3}),
    ("transfer", {"pi": {"kind": "trivial", "dim": 1}, "F": ["e", "1", "-2"],
                  "params": [[[1, "e", 1, 0]]], "targets": [[[2, "1 2", 1, 0]]], "eps": 0.3}),
])
def test_folner_and_transfer_round_trip_beyond_abelian_kinds(tmp_path, task, block, group):
    """Both tasks run and verify on rewriting oracles; two runs give the same report bytes."""
    reports = []
    for name in ("first", "second"):
        code, out = run_task(tmp_path, task, {"group": group, "task": block}, name=name)
        assert code == 0
        assert main(["verify", "--report", str(out)]) == 0
        reports.append(_report_bytes_without_timestamp(out))
    assert reports[0] == reports[1]
    outputs = json.loads(reports[0])["outputs"]
    if task == "folner-witness":
        assert max(Fraction(row["value-exact"]) for row in outputs["defects"]) <= Fraction(0.3)
    else:
        assert outputs["converged"]


def test_folner_cap_names_the_best_defect_above_kesten_floor(tmp_path, capsys):
    """F2 at eps 0.1 exits 3; the message names the best max defect, at least 2 - sqrt(3)."""
    code, _out = run_task(tmp_path, "folner-witness", {"group": F2, "task": {"eps": 0.1}},
                          "--cap-ball", "2000")
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    match = re.search(r"best max defect over F (\S+) at radius (\d+)", err)
    assert match and int(match.group(2)) == 6
    assert float(match.group(1)) >= 2 - math.sqrt(3)


WITNESS_GROUPS = [Z, Z2, {"kind": "fg-abelian", "rank": 1, "torsion": [3]},
                  {"kind": "fg-abelian", "rank": 0, "torsion": [2]},
                  {"kind": "fg-abelian", "rank": 0, "torsion": []}, C3, F2, Z2_REWRITING, H3]


def _element_pool(group):
    oracle = parse_group(group)
    return [oracle.element_to_str(x) for x in ball(oracle, 2).elements]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(["folner-witness", "transfer"]),
       st.sampled_from(WITNESS_GROUPS), st.data(),
       st.sampled_from([0.5, 0.2, 1.5, 0.05, 0.0]),
       st.sampled_from(CAPS[::-1]), st.sampled_from([300, 30, 3]))
def test_witness_fuzz_exits_cleanly_and_verifies(task, group, data, eps, cap, dim_cap):
    """Small folner-witness and transfer configs exit 0, 2, 3 or 4; each report verifies.

    Exit 2 comes exactly from eps 0. An exit-0 folner report's exact defects
    are at most eps, and an exit-0 transfer report has converged.
    """
    pool = _element_pool(group)
    elements = st.sampled_from(pool)
    F = data.draw(st.lists(elements, min_size=1, max_size=3, unique=True))
    block = {"eps": eps, "F": F}
    if task == "transfer":
        block.update({"pi": {"kind": "trivial", "dim": 1},
                      "params": [[[1, pool[0], 1, 0]]],
                      "targets": [[[2, data.draw(elements), 1, 0]]]})
    config = {"group": group, "caps": {"ball": cap, "dimension": dim_cap}, "task": block}
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_task(Path(tmp), task, config)
        assert code in (0, 2, 3, 4), config
        assert (code == 2) == (eps == 0), config
        if code == 0:
            assert main(["verify", "--report", str(out)]) == 0, config
            report = read_report(out)
            if task == "folner-witness":
                assert all(Fraction(row["value-exact"]) <= Fraction(eps)
                           for row in report["outputs"]["defects"]), config
            else:
                assert report["outputs"]["converged"], config


STABILITY_GROUPS = [Z, Z2, F2, Z2_REWRITING]
# a 2-dimensional action of F2: any pair of unitaries is one
MATRIX_F2 = {"kind": "matrix", "matrices": [
    _matrix_json(U) for U in (random_unitary(np.random.default_rng(5), 2) for _ in range(2))]}


@st.composite
def _stability_fuzz_config(draw):
    """A small nondividing, canonical-base or superstable config, its closure radius, and the
    field of its first coordinate off its leaf, or None.

    On a finite leaf, some draws add the coordinates dim and -1 to the pool; the field is that
    of the first entry holding one, in the order the task reads its vector lists.
    """
    task = draw(st.sampled_from(["nondividing", "canonical-base", "superstable"]))
    group = draw(st.sampled_from(STABILITY_GROUPS))
    kind = draw(st.sampled_from(["regular", "trivial"] + (["matrix"] if group is F2 else [])))
    if kind == "regular":
        rep, keys = {"kind": "regular"}, _element_pool(group)
    elif kind == "trivial":
        dim = draw(st.integers(1, 3))
        rep, keys = {"kind": "trivial", "dim": dim}, [str(k) for k in range(dim)]
    else:
        rep, keys = MATRIX_F2, ["0", "1"]
    pool = keys + ([str(len(keys)), "-1"] if kind != "regular" and draw(st.booleans()) else [])
    amplitude = st.sampled_from([1.0, -0.5, 0.25])
    entry = st.tuples(st.sampled_from(pool), amplitude, amplitude).map(lambda e: [0, *e])
    vectors = st.lists(st.lists(entry, min_size=1, max_size=3, unique_by=lambda e: e[1]),
                       min_size=1, max_size=2)
    radius = draw(st.integers(0, 3))
    block = {"a": draw(vectors)}
    if task == "superstable":
        block.update({"A": draw(vectors), "eps": draw(st.sampled_from([1e-3, 0.3])),
                      "radius": radius})
        read = [("A", block["A"]), ("a", block["a"])]
    else:
        block["closure"] = {"vectors": draw(vectors), "radius": radius}
        read = [("closure.vectors", block["closure"]["vectors"]), ("a", block["a"])]
        if task == "nondividing":
            block["B"] = draw(vectors)
            read.append(("B", block["B"]))
    caps = {"ball": draw(st.sampled_from([1, 5, 20, 1000])),
            "dimension": draw(st.sampled_from([1, 3, 10, 2000]))}
    off_leaf = next((f"task.{name}[{i}][{j}]" for name, vecs in read
                     for i, v in enumerate(vecs) for j, e in enumerate(v) if e[1] not in keys),
                    None)
    config = {"group": group, "representation": rep, "caps": caps, "task": block}
    return task, config, radius, off_leaf


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_stability_fuzz_config())
def test_stability_fuzz_exits_cleanly_and_verifies(case):
    """Small closure-task configs exit 0, 3 or 4 with no traceback; each report verifies.

    A representation that has the group exits 3 whenever its closure ball
    holds more elements than ``caps.ball``. A config with a coordinate off
    its leaf exits 2 at that entry's field instead, whatever its caps: every
    vector is read before any work.
    """
    task, config, radius, off_leaf = case
    with tempfile.TemporaryDirectory() as tmp:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code, out = run_task(Path(tmp), task, config)
            if code == 0:
                assert main(["verify", "--report", str(out)]) == 0, config
        assert "Traceback" not in stderr.getvalue()
    if off_leaf is not None:
        assert code == 2, config
        assert f"config field '{off_leaf}': coordinate" in stderr.getvalue(), config
        return
    assert code in (0, 3, 4), config
    if config["representation"]["kind"] != "trivial":
        size = len(ball(parse_group(config["group"]), radius))
        if size > config["caps"]["ball"]:
            assert code == 3, config


def _cyclic(n):
    return {"kind": "finite-table", "table": [[(i + j) % n for j in range(n)] for i in range(n)],
            "generators": [1]}


# name -> (group, genuine d-dimensional actions, whether random unitaries can break a relation)
AMALGAM_GROUPS = {
    **{f"Z/{n}": (_cyclic(n), lambda rng, d, n=n: character_action(rng, d, lambda r: [phase(r, n)]),
                  True) for n in (2, 3, 5)},
    "Z": (Z, lambda rng, d: [random_unitary(rng, d)], False),
    "F2": (F2, lambda rng, d: [random_unitary(rng, d) for _ in range(2)], False),
    "Z2-rewriting": (Z2_REWRITING,
                     lambda rng, d: character_action(rng, d, lambda r: [phase(r), phase(r)]), True),
}


@st.composite
def _amalgamate_fuzz_config(draw, name):
    """An amalgamate config on group ``name``, whether some factor breaks a relation or
    cannot be embedded, and the size of its check ball."""
    group, genuine, breakable = AMALGAM_GROUPS[name]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    broken = []

    def atom():
        kind = draw(st.sampled_from(["trivial", "matrix", "matrix"] + ["broken"] * breakable))
        d = draw(st.integers(1, 2))
        if kind == "trivial":
            return {"kind": "trivial", "dim": d}
        broken.append(kind == "broken")
        # random 2 x 2 unitaries: a generic one has no finite order, a generic pair does not commute
        mats = (genuine(rng, d) if kind == "matrix" else
                [random_unitary(rng, 2) for _ in parse_group(group).generators])
        return {"kind": "matrix", "matrices": [_matrix_json(U) for U in mats]}

    pi = atom()
    stranded = False

    def extension():
        nonlocal stranded
        shape = draw(st.sampled_from(["pi", "sum", "sum", "other"]))
        stranded |= shape == "other"
        if shape == "pi":
            return pi
        if shape == "other":
            return {"kind": "trivial", "dim": 3}
        return {"kind": "direct-sum", "parts": [pi, atom()]}

    radius = draw(st.integers(0, 3))
    config = {"group": group, "caps": {"ball": draw(st.sampled_from([3, 1000]))},
              "task": {"pi": pi, "rho": extension(), "eta": extension(), "check-radius": radius}}
    return config, any(broken) or stranded, len(ball(parse_group(group), radius))


@pytest.mark.parametrize("name", sorted(AMALGAM_GROUPS))
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_amalgamate_fuzz_exits_cleanly_and_verifies(name, data):
    """Small amalgamate configs exit 0, 2 or 3 with no traceback; each report verifies.

    Exit 2 comes exactly from a factor whose matrices break one of the group's
    relations or an extension that is neither pi nor a direct sum led by pi;
    otherwise a check ball past ``caps.ball`` exits 3. The complements are
    built as matrix representations under each oracle's relations.
    """
    config, refused, size = data.draw(_amalgamate_fuzz_config(name))
    with tempfile.TemporaryDirectory() as tmp:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code, out = run_task(Path(tmp), "amalgamate", config)
            if code == 0:
                assert main(["verify", "--report", str(out)]) == 0, config
                assert read_report(out)["outputs"]["gram-defect"] <= 1e-8, config
        assert "Traceback" not in stderr.getvalue()
    assert code == (2 if refused else 3 if size > config["caps"]["ball"] else 0), config


@st.composite
def _contain_fuzz_config(draw):
    """A small ball-basis contain config on a trivial target, and whether its bounds apply.

    F is {e} and the steps, less e or one step at times, plus at times one
    more element of the radius-2 ball.
    """
    group = draw(st.sampled_from([Z, F2, Z2_REWRITING]))
    oracle = parse_group(group)
    e, *steps = [oracle.element_to_str(x) for x in [oracle.identity()]
                 + symmetric_generators(oracle)]
    F = ([e] if draw(st.sampled_from([True, True, False])) else []) + steps
    applies = F[0] == e
    if draw(st.sampled_from([False, False, True])):
        F.remove(draw(st.sampled_from(steps)))
        applies = False
    extra = draw(st.sampled_from(_element_pool(group)))
    if draw(st.booleans()) and extra not in F:
        F.append(extra)
    block = {"target": {"F": F, "n": 1, "matrices": [[[[1.0, 0.0]]]] * len(F)},
             "radius": draw(st.integers(-1, 4)),
             "tol": draw(st.sampled_from([0.5, 0.2, 0.05, 1e-3, 0.0, -1.0])),
             "budget": draw(st.sampled_from([1, 5, 30])),
             "restarts": draw(st.sampled_from([0, 1, 2]))}
    caps = {"ball": draw(st.sampled_from([5, 200, 1000]))}
    return {"group": group, "seed": draw(st.integers(0, 3)), "caps": caps, "task": block}, applies


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_contain_fuzz_config())
def test_contain_fuzz_exits_cleanly_and_verifies(case):
    """Small contain configs exit 0, 2, 3 or 4 with no traceback; each report verifies.

    The basis is checked before tol: exit 2 comes exactly from a negative
    radius, or from tol <= 0 on a ball within ``caps.ball``, and exit 3 from a
    ball past it. An exit-0 report has both bounds exactly when F holds e and
    every step, and a bound never exceeds the discrepancy.
    """
    config, applies = case
    block = config["task"]
    radius, tol = block["radius"], block["tol"]
    oracle = parse_group(config["group"])
    fits = radius >= 0 and len(ball(oracle, radius)) <= config["caps"]["ball"]
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_task(Path(tmp), "contain", config)
        assert code in (0, 2, 3, 4), config
        assert (code == 2) == (radius < 0 or tol <= 0 and fits), config
        assert (code == 3) == (radius >= 0 and not fits), config
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert main(["verify", "--report", str(out)]) == 0, config
            outputs = read_report(out)["outputs"]
            assert (outputs["certified-floor"] is not None) == applies, config
            for bound in ("certified-lower", "certified-floor"):
                if outputs[bound] is not None:
                    assert outputs[bound] <= outputs["discrepancy"] + 1e-9, config
