"""Workload configs generated from a seed, and the correctness gate for their reports.

Each workload is a list of ``(task, config)`` pairs; the harness writes each
config to a file and runs ``unirep <task> --config ... --out ...`` on it. The
gate checks invariants that every correct implementation meets, derived from
closed-form truths of the paper's amenability dichotomy, on top of
``unirep verify``:

* Kesten (1959): the simple walk on F_2 has spectral radius sqrt(3)/2, so
  every averaged squared shift defect is at least 2 - sqrt(3) and no single
  vector reproduces the trivial Gram data better than 7 - 4 sqrt(3).
* Polya: the simple walk on Z^2 returns with p_{2n} = (C(2n, n) / 4^n)^2.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SQRT3_2 = math.sqrt(3.0) / 2.0
# Slack for comparing a double against an irrational bound.
FLOAT_SLACK = 1e-12

MATRIX_DIM = 32
STABILITY_RADIUS = 3
SUPERSTABLE_EPS = 1e-3

FREE = {"kind": "free", "rank": 2}
Z2 = {"kind": "fg-abelian", "rank": 2, "torsion": []}
# Z^2 again, as the four commutation rules ba -> ab over the signed letters.
Z2_REWRITING = {"kind": "rewriting-presented", "num_generators": 2, "rules": [
    [[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[-2, 1], [1, -2]], [[-2, -1], [-1, -2]]]}


def _probe(group, nmax, radius, seed):
    return [("probe-amenability",
             {"group": group, "seed": seed, "task": {"nmax": nmax, "radius": radius}})]


def _random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _matrix_json(U):
    return [[[float(z.real), float(z.imag)] for z in row] for row in U]


def _random_vector(rng, copies, dim):
    """Unit vector literal ``[copy, coordinate, re, im]`` over the given summands."""
    amps = rng.standard_normal((len(copies), dim)) + 1j * rng.standard_normal((len(copies), dim))
    amps /= np.linalg.norm(amps)
    return [[c, str(k), float(amps[i, k].real), float(amps[i, k].imag)]
            for i, c in enumerate(copies) for k in range(dim)]


def _witness_free(seed):
    rng = np.random.default_rng(seed)
    contain = {
        "group": FREE,
        "seed": seed,
        "task": {
            "target": {"F": ["e", "1", "-1", "2", "-2"], "n": 1,
                       "matrices": [[[[1.0, 0.0]]]] * 5},
            "radius": 4, "tol": 1e-2, "budget": 200, "restarts": 4,
        },
    }
    # Two random unitary pairs give, almost surely, two irreducible 32-dim
    # summands, so the radius-3 orbit of a first-summand vector spans exactly
    # the first summand: a G-invariant closure under either closure semantics.
    rep = {"kind": "direct-sum", "parts": [
        {"kind": "matrix", "matrices": [_matrix_json(_random_unitary(rng, MATRIX_DIM))
                                        for _ in range(2)]}
        for _ in range(2)
    ]}
    first = _random_vector(rng, [0], MATRIX_DIM)
    closure = {"vectors": [first], "radius": STABILITY_RADIUS}

    def stability_config(task):
        return {"group": FREE, "representation": rep, "seed": seed, "task": task}

    return [
        ("contain", contain),
        ("canonical-base", stability_config(
            {"closure": closure, "a": [_random_vector(rng, [0, 1], MATRIX_DIM)]})),
        ("nondividing", stability_config(
            {"closure": closure, "a": [_random_vector(rng, [0, 1], MATRIX_DIM)],
             "B": [_random_vector(rng, [0, 1], MATRIX_DIM)]})),
        ("superstable", stability_config(
            {"A": [first], "a": [_random_vector(rng, [0, 1], MATRIX_DIM)],
             "eps": SUPERSTABLE_EPS, "radius": STABILITY_RADIUS})),
    ]


# workload name -> seed -> the ``(task, config)`` pairs of one run
WORKLOADS = {
    "probe-free": lambda seed: _probe(FREE, 30, 9, seed),
    "probe-abelian": lambda seed: _probe(Z2, 24, 30, seed),
    "probe-rewriting": lambda seed: _probe(Z2_REWRITING, 24, 16, seed),
    "witness-free": _witness_free,
}

# ---------------------------------------------------------------------------
# invariants


def _polya_z2(step):
    n = step // 2
    return Fraction(math.comb(2 * n, n), 4 ** n) ** 2


def _check_probe_free(report):
    out = report["outputs"]
    errors = []
    spectral = out["spectral"]
    if not spectral["lower"] <= SQRT3_2 <= spectral["upper"]:
        errors.append(f"spectral interval [{spectral['lower']}, {spectral['upper']}] "
                      "excludes sqrt(3)/2")
    if out["final-ratio"] > SQRT3_2 + FLOAT_SLACK:
        errors.append(f"final-ratio {out['final-ratio']} exceeds sqrt(3)/2")
    floor = 2.0 - 2.0 * SQRT3_2 - report["tolerances"]["eigen-residual"]
    for row in out["defect-table"]:
        if row["value"] < floor:
            errors.append(f"defect {row['value']} at radius {row['radius']} below 2 - sqrt(3)")
    return errors


def _check_probe_z2(report):
    out = report["outputs"]
    errors = []
    rp = out["return-probabilities"]
    for step, exact in zip(rp["steps"], rp["p-exact"]):
        if exact is not None and Fraction(exact) != _polya_z2(step):
            errors.append(f"p-exact at step {step} is {exact}, not (C(2n,n)/4^n)^2")
    spectral = out["spectral"]
    if not spectral["lower"] <= 1.0 <= spectral["upper"]:
        errors.append(f"spectral interval [{spectral['lower']}, {spectral['upper']}] excludes 1")
    values = [row["value"] for row in out["defect-table"]]
    slack = report["tolerances"]["eigen-residual"]
    for r, (a, b) in enumerate(zip(values, values[1:]), start=1):
        if b > a + slack:
            errors.append(f"defect increases from radius {r} to {r + 1}: {a} -> {b}")
    return errors


def _check_contain(report):
    floor = 7.0 - 8.0 * SQRT3_2
    disc = report["outputs"]["discrepancy"]
    if disc >= floor - FLOAT_SLACK:
        return []
    return [f"discrepancy {disc} below the Kesten bound 7 - 4 sqrt(3)"]


def _check_canonical_base(report):
    worst = report["outputs"]["worst-residual"]
    limit = report["tolerances"]["reproduction"]
    return [] if worst <= limit else [f"worst-residual {worst} above {limit}"]


def _check_superstable(report):
    gaps = report["outputs"]["gaps"]
    eps = report["tolerances"]["eps"]
    return [] if max(gaps) < eps else [f"max gap {max(gaps)} not below eps {eps}"]


def invariant_errors(workload, report):
    """Invariant violations of one report of the given workload; empty when it passes."""
    task = report["task"]
    if task == "probe-amenability":
        return _check_probe_free(report) if workload == "probe-free" else _check_probe_z2(report)
    check = {
        "contain": _check_contain,
        "canonical-base": _check_canonical_base,
        "superstable": _check_superstable,
    }.get(task)
    return check(report) if check else []
