"""Batch front end: parse configs, dispatch, emit machine-readable reports.

The task registry (``_declare`` calls near the end of this module) is the
one place a task is declared: its subcommand name, help text, typed
parameters (``Param``), run function and verify function. The subcommand's
flags, each parameter's config lookup and cast, and the echo of the cast
values into the report all come from that declaration. A run function
receives the cast values and returns only its own report parts.
Each certified number of a probe, ``contain`` or ``folner-witness`` report
comes from the one library function that derives it, which the run and
``verify`` both call: this module holds no formula of its own for them. The
probe's return-probability block is ``amenability.walk_block`` of the exact
p_{2n}(e), recounted by the run and read from ``p-exact`` by ``verify``.
``contain`` rebuilds its span in ``verify`` (the Cayley ball's deltas, or
``inputs.basis`` orthonormalized as the run orthonormalized it), reads the
witnesses back as coefficient rows over it, and forms their Gram data as the
search did: ``containment.row_matrices`` on ``containment.span_tensor``.

Every run writes a compact JSON report (sorted keys, no indentation or
spaces, UTF-8) echoing its inputs, outputs, tolerances, and enough
witness data for the ``verify`` subcommand to recompute the headline
number independently. Every float array a report holds (echoed matrices,
Gram data, vectors and vector lists, the probe's minimizers) is one packed
block that round-trips bit for bit (see ``serialize``); scalars and short
lists stay plain JSON numbers. ``verify`` also reads the list form that
configs use. Each ``defect-table`` row's ``argmin`` is the packed array of
its real amplitudes in ball order, the first ``sizes[radius]`` elements of
the breadth-first Cayley ball, which ``verify`` rebuilds. On a free group
(standard generators) the probe builds no ball, and a radius-rho row's
``argmin`` holds the rho + 1 sphere amplitudes u_0..u_rho of its radial
minimizer: u_d is its norm on the sphere S_d, so its amplitude at each
element of S_d is u_d / sqrt(|S_d|) (|S_d| itself overflows a double near
d = 650 on F2). ``verify`` checks them on the distance chain in O(rho). Exit codes:
0 success, 2 precondition or config error, 3 resource cap exceeded,
4 an iterative solver did not converge (its best value goes to stderr),
1 internal error. The caps and the tasks that read them:
``ball`` bounds every Cayley ball a task builds: the probe's one ball of
radius R = max(radius, nmax // 2) (on a free group, the R + 1 points of
its distance chain), the ``contain`` basis, the ``folner-witness`` and
``transfer`` witness's ball, the closures of ``nondividing``,
``canonical-base`` and ``superstable``, and ``amalgamate``'s check
ball (``verify`` rebuilds the ``contain`` basis ball and the
``folner-witness`` ball, of radius ``outputs.radius``, under ``caps.ball``,
and reads each witness key, like each ``superstable`` label, as a position
in the ball's spelling index);
``dimension`` bounds every orthonormal span a task grows: those closures
(and so the canonical base and the superstable core inside them), and
the fresh copies of ``transfer`` (one fresh copy per key of
the shifted remainders). Each report echoes the caps of its run in
``caps``, and ``verify`` rebuilds every ball under that ``caps.ball``; a
report without the block reads as the default caps.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import containment, stability
from .amenability import (
    EIGEN_TOL,
    defect_certificate,
    defect_table,
    probe_ball,
    return_probabilities,
    spectral_ends,
    walk_block,
    walk_radius,
)
from .containment import folner_witness, gram, search_witness, transfer_witness
from .errors import (
    ConfigError,
    ConvergenceError,
    PreconditionError,
    ResourceLimitError,
    WorkbenchError,
)
from .groups import ball
from .reps import DirectSum, Embedding, Multiple, OrbitBlock, Regular, Subspace, amalgamate
from .serialize import (
    DEFAULT_CAPS,
    block_to_json,
    gram_to_json,
    pack_floats,
    parse_block,
    parse_caps,
    parse_config,
    parse_elements,
    parse_floats,
    parse_gram,
    parse_group,
    parse_representation,
    parse_vector,
    parse_vectors,
    rep_to_json,
    vector_to_json,
    vectors_to_json,
)
# orthonormalize is kept bound here: the benchmark tracer checks every module binding of it
from .vectors import (  # noqa: F401
    KeyIndex,
    gram_schmidt,
    inner,
    orthonormalize,
    reindex,
    residual,
    to_dense,
)

VERIFY_TOL = 1e-9


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}", field=what)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}", field=what)


def _write_report(report, out_path):
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


class Param(NamedTuple):
    """Task parameter ``task.<name>``, cast by ``cast``; ``default`` None means required.

    A dotted name (``closure.radius``) lies in a nested block. A top-level
    parameter has the flag ``--<name>``, which overrides its config value, and
    the report echoes it: an ``int`` into ``inputs``, a ``float`` into ``tolerances``.
    An ``int`` parameter is at least ``floor``; a ``float`` one is a
    tolerance, greater than 0.
    """

    name: str
    cast: type
    default: object = None
    floor: int = 0

    @property
    def kwarg(self):
        """The handler's keyword for the cast value."""
        return self.name.replace(".", "_").replace("-", "_")


def _task_value(cfg, args, param):
    """The value of ``param``: its flag, else its config key, else its default; cast.

    The one place task values are cast and ranged: a bad value is a config
    error at its field. An ``int`` field takes no bool, no number with a
    fractional part and none below the parameter's floor, and a ``float``
    field only a finite number greater than 0.
    """
    field = f"task.{param.name}"
    block_name, _, key = param.name.rpartition(".")
    block = cfg.task.get(block_name) if block_name else cfg.task
    if not isinstance(block, dict):
        raise ConfigError(f"missing {block_name} block", field=f"task.{block_name}")
    value = getattr(args, param.kwarg, None)  # a nested parameter has no flag
    if value is None:
        value = block.get(key, param.default)
    if value is None:
        raise ConfigError("missing required parameter", field=field)
    try:
        if param.cast is int and (isinstance(value, bool)
                                  or isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        value = param.cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected {param.cast.__name__}, got {value!r}", field=field) from None
    if param.cast is float and not 0 < value < math.inf:
        raise ConfigError(f"expected a finite float greater than 0, got {value!r}", field=field)
    if param.cast is int and value < param.floor:
        raise ConfigError(f"expected an integer of at least {param.floor}, got {value!r}",
                          field=field)
    return value


def _with_flags(raw, args):
    """The config object with ``--seed`` and each ``--cap-*`` flag folded in.

    ``parse_config`` then checks a flag's value as it checks the config's own.
    """
    if not isinstance(raw, dict):
        return raw
    raw = dict(raw)
    if args.seed is not None:
        raw["seed"] = args.seed
    for cap in DEFAULT_CAPS:
        value = getattr(args, "cap_" + cap.replace("-", "_"))
        if value is not None and isinstance(raw.get("caps", {}), dict):
            raw["caps"] = {**raw.get("caps", {}), cap: value}
    return raw


def _report(task, cfg, own, values):
    """A run's report: the handler's own parts, the group, the seed, the caps and the parameters."""
    report = {"task": task, "timestamp": datetime.now(timezone.utc).isoformat(),
              "seed": cfg.seed, "caps": cfg.caps, "tolerances": {}, **own}
    report["inputs"] = {"group": cfg.oracle.to_json(), **own.get("inputs", {})}
    for param, value in values.items():
        if "." not in param.name:
            report["inputs" if param.cast is int else "tolerances"][param.name] = value
    return report


def _vectors(block, key, space, where, required=True):
    """The vector list ``block[key]`` in ``space``, in either form; errors name ``<where>.<key>``."""
    vectors = parse_vectors(block.get(key, []), space, f"{where}.{key}")
    if required and not vectors:
        raise ConfigError("missing vectors", field=f"{where}.{key}")
    return vectors


def _report_radius(report, block, key):
    """The ball radius ``report[block][key]``: a non-negative integer, else exit 2 at its field."""
    radius = report[block].get(key)
    if type(radius) is not int or radius < 0:
        raise ConfigError(f"expected a non-negative integer, got {radius!r}",
                          field=f"report.{block}.{key}")
    return radius


def _report_inputs(report, *reps):
    """Verify's preamble: the report's group oracle, then its representations ``inputs[r]``."""
    inputs = report["inputs"]
    oracle = parse_group(inputs["group"], "report.inputs.group")
    return [oracle] + [parse_representation(inputs[r], oracle, f"report.inputs.{r}")
                       for r in reps]


# ---------------------------------------------------------------------------
# handlers


def run_probe(cfg, nmax, radius):
    # one ball (a free group's distance chain): the walk and the defect rows 0..radius read
    # its prefixes; rows 1..radius are reported, and the last row (at radius 0 the one-point
    # ball's) is the spectral end
    B = probe_ball(cfg.oracle, max(radius, walk_radius(nmax)), cfg.caps["ball"])
    try:
        walk, final_ratio = walk_block(return_probabilities(B, nmax))
    except PreconditionError as exc:  # a probability under a double's range: nmax is too large
        raise ConfigError(str(exc), field="task.nmax") from None
    defects = defect_table(B, range(radius + 1))
    lower, upper = spectral_ends(B, defects[-1].min_avg_sq_defect)
    outputs = {
        "return-probabilities": walk,
        "final-ratio": final_ratio,
        "defect-table": [
            {
                "radius": d.radius,
                "value": d.min_avg_sq_defect,
                "certified-lower": d.certified_lower_bound,
                "residual": d.residual,
                "argmin": pack_floats(d.amplitudes),
            }
            for d in defects[1:]
        ],
        "spectral": {"radius": radius, "lower": lower, "upper": upper},
    }
    return {"outputs": outputs, "tolerances": {"eigen-residual": EIGEN_TOL},
            "headline": final_ratio}


def _row_amplitudes(row, i, radius):
    """The amplitudes of defect-table row ``i``, which must be the radius-(i + 1) row."""
    where = f"report.outputs.defect-table[{i}]"
    if row["radius"] != i + 1 or i + 1 > radius:
        raise ConfigError(f"expected radius {i + 1} in 1..{radius}", field=f"{where}.radius")
    return parse_floats(row["argmin"], f"{where}.argmin")


def _walk_checks(report):
    """Checks of the return-probability block in O(nmax), against ``walk_block`` of ``p-exact``.

    The stored ``p-exact`` strings are read as the p of the steps 0, 2, ..,
    nmax, and every other field of the block is compared with the one
    ``walk_block`` gives for them; None stands where there is none (the root
    at step 0, the ratio at the last step).
    """
    out = report["outputs"]
    rp = out["return-probabilities"]
    exact = map(Fraction, rp["p-exact"])
    try:
        walk, final_ratio = walk_block(
            dict(zip(range(0, report["inputs"]["nmax"] + 1, 2), exact, strict=True)))
    except PreconditionError as exc:
        raise ConfigError(str(exc), field="report.outputs.return-probabilities.p-exact") from None
    checks = [("steps", rp["steps"] == walk["steps"], True)]
    for name, key in (("p", "p"), ("root-estimate", "root-estimates"),
                      ("ratio-estimate", "ratio-estimates")):
        for s, r, x in zip(walk["steps"], walk[key], rp[key], strict=True):
            checks.append((f"{name}-{s}", x is None, True) if r is None else (f"{name}-{s}", r, x))
    checks.append(("final-ratio", final_ratio, out["final-ratio"]))
    return checks


def verify_probe(report):
    out = report["outputs"]
    checks = _walk_checks(report)
    oracle = _report_inputs(report)[0]
    radius = _report_radius(report, "inputs", "radius")
    table = out["defect-table"]
    B = probe_ball(oracle, radius, report["caps"]["ball"])
    value = defect_certificate(B, np.ones(1))[0]  # radius 0 has no row: the one-point ball
    for rho, row in enumerate(table, start=1):
        w = _row_amplitudes(row, rho - 1, radius)
        n = int(B.sizes[rho])
        checks.append((f"argmin-length-r{rho}", n, len(w)))
        value, certified = defect_certificate(B, w) if len(w) == n else (float("nan"),) * 2
        checks.append((f"defect-r{rho}", value, row["value"]))
        checks.append((f"certified-lower-r{rho}", certified, row["certified-lower"]))
    checks.append(("defect-rows", len(table), radius))
    spectral = out["spectral"]
    checks.append(("spectral-radius", radius, spectral["radius"]))
    lower, upper = spectral_ends(B, value)
    checks.append(("spectral-lower", lower, spectral["lower"]))
    checks.append(("spectral-upper", upper, spectral["upper"]))
    checks.append(("headline", out["final-ratio"], report["headline"]))
    return checks


def _parse_target(cfg, obj):
    if "matrices" in obj:
        return parse_gram(obj, cfg.oracle, "target")
    rep = parse_representation(obj.get("representation"), cfg.oracle, "target.representation")
    F = parse_elements(obj.get("F", []), cfg.oracle, "target.F")
    if not F:
        raise ConfigError("missing element set", field="target.F")
    return gram(rep, _vectors(obj, "vectors", rep, "target"), F, oracle=cfg.oracle)


def _explicit_span(pi, vectors):
    """The span of ``vectors`` in ``pi``, orthonormalized by ``gram_schmidt`` (run and verify)."""
    index = KeyIndex(vectors)
    return Subspace.from_block(pi, index, gram_schmidt(to_dense(vectors, index)))


def run_contain(cfg, radius, tol, budget, restarts):
    """Search for witnesses of the target's Gram data in the span of ``task.basis``.

    The span is ``task.basis`` orthonormalized (``_explicit_span``), echoed in
    ``inputs.basis``; without a ``basis`` it is the delta basis of shift copy
    0 on the radius-``radius`` Cayley ball, built once for the basis and the
    search. On a trivial target the search starts from the ball's Perron
    vector and the report carries ``certified-lower`` (for the span) and
    ``certified-floor`` (for lambda^infinity) from
    ``containment.span_bounds``, which ``verify`` calls too; any other
    search reports both as null.
    """
    target_obj = cfg.task.get("target")
    if target_obj is None:
        raise ConfigError("missing target", field="task.target")
    target = _parse_target(cfg, target_obj)
    pi = cfg.representation
    inputs = {"representation": rep_to_json(pi), "target": gram_to_json(target)}
    if "basis" in cfg.task:
        vectors = _vectors(cfg.task, "basis", pi, "task", required=False)
        basis = _explicit_span(pi, vectors)
        inputs["basis"] = vectors_to_json(vectors)
    else:
        basis = containment.ball_delta_basis(pi, radius, cap=cfg.caps["ball"])
    report_data = search_witness(target, pi, basis, tol, budget=budget,
                                 seed=cfg.seed, restarts=restarts)
    outputs = {
        "witnesses": vectors_to_json(report_data.witnesses),
        "witness-gram": gram_to_json(report_data.gram),
        "discrepancy": report_data.discrepancy,
        "iterations": report_data.iterations,
        "converged": report_data.converged,
        "certified-lower": report_data.certified_lower,
        "certified-floor": report_data.certified_floor,
    }
    return {"inputs": inputs, "outputs": outputs, "headline": report_data.discrepancy}


def _witness_checks(report, discrepancy, tol):
    """Checks of the stored outputs against the witnesses' recomputed ``discrepancy``.

    The discrepancy, the headline and the ``converged`` flag
    (``discrepancy <= tolerances[tol]``).
    """
    outputs = report["outputs"]
    return [
        ("discrepancy", discrepancy, outputs["discrepancy"]),
        ("headline", outputs["discrepancy"], report["headline"]),
        ("converged", outputs["discrepancy"] <= report["tolerances"][tol], outputs["converged"]),
    ]


def _stored_gram_check(report, key, oracle, F, M):
    """The check that the Gram data ``outputs[key]`` over ``F`` has the matrices ``M``."""
    where = f"report.outputs.{key}"
    stored = parse_gram(report["outputs"][key], oracle, where)
    if stored.F != F:
        raise ConfigError("stored Gram data must be over the recomputed element set",
                          field=f"{where}.F")
    return (key, containment.deviation(stored, M), 0.0)


def _ball_rows(raw, basis, where, rank=2):
    """The ``(n, |B|)`` coordinate rows over a ball basis of the vectors ``raw`` (``parse_block``).

    Each key is read as a ball position through the ball's spelling index; a
    key off the span exits 2 at its own field.
    """
    keys, X = parse_block(raw, basis, where, rank)
    rows = np.zeros((len(X), basis.dim), dtype=complex)
    rows[:, [i for _copy, i in keys]] = X
    return rows


def verify_contain(report):
    """The run's checks, with the witnesses' Gram data recomputed as the search computed it.

    The span is rebuilt first: ``inputs.basis`` through ``_explicit_span``,
    else the ball delta basis. The witnesses are read as their coordinate
    rows over it, and their Gram data is one ``containment.row_matrices`` call
    on the span's tensor (``containment.span_tensor``). Over a ball each
    witness key is read as a ball position (``_ball_rows``), and a key off
    the ball exits 2 at its own field; over an explicit span each witness is
    read through ``Subspace.coords``, and its ``Subspace.residual`` norm is
    checked against 0 (``witness-off-span-<a>``).
    """
    oracle, pi = _report_inputs(report, "representation")
    inputs = report["inputs"]
    target = parse_gram(inputs["target"], oracle, "report.inputs.target")
    checks = []
    if "basis" in inputs:
        basis = _explicit_span(pi, _vectors(inputs, "basis", pi, "report.inputs", required=False))
        witnesses = _vectors(report["outputs"], "witnesses", pi, "report.outputs",
                             required=False)
        rows = np.array([basis.coords(w) for w in witnesses]).reshape(len(witnesses), basis.dim)
        checks += [(f"witness-off-span-{a}", basis.residual(w).norm(), 0.0)
                   for a, w in enumerate(witnesses)]
    else:
        radius = _report_radius(report, "inputs", "radius")
        basis = containment.ball_delta_basis(pi, radius, report["caps"]["ball"])
        rows = _ball_rows(report["outputs"]["witnesses"], basis, "report.outputs.witnesses")
    M = containment.row_matrices(target, containment.span_tensor(basis, target.F), rows)
    checks += _witness_checks(report, containment.deviation(target, M), "tol")
    checks.append(_stored_gram_check(report, "witness-gram", oracle, target.F, M))
    bounds = containment.span_bounds(basis, target)
    for name, recomputed in zip(("certified-lower", "certified-floor"), bounds):
        stored = report["outputs"][name]
        if recomputed is None or stored is None:  # null where the bound does not apply
            checks.append((name, recomputed is None, stored is None))
        else:
            checks.append((name, recomputed, stored))
    return checks


def run_folner(cfg, eps):
    """The Perron row of ``folner_witness``: its vector, ball radius and exact defects over F.

    Each defect's ``value`` is its ``value-exact`` rounded to the nearest double.
    """
    raw_f = cfg.task.get("F")
    F = parse_elements(raw_f, cfg.oracle, "task.F") if raw_f else list(cfg.oracle.generators)
    row = folner_witness(cfg.oracle, F, eps, cfg.caps["ball"])
    w = row.argmin
    exact = [containment.shift_defect(row.ball, row.amplitudes, g) for g in F]
    defects = [{"element": cfg.oracle.element_to_str(g), "value": float(x), "value-exact": str(x)}
               for g, x in zip(F, exact)]
    worst = max((d["value"] for d in defects), default=0.0)
    inputs = {"F": [cfg.oracle.element_to_str(g) for g in F]}
    outputs = {
        "witness": vector_to_json(w),
        "radius": row.radius,
        "defects": defects,
        "max-defect": worst,
        "support-size": len(w.entries),
    }
    return {"inputs": inputs, "outputs": outputs, "headline": worst}


def verify_folner(report):
    """The run's checks, on the witness read as its coordinate row over the rebuilt ball.

    The ball of radius ``outputs.radius`` is rebuilt under ``caps.ball``; a
    witness key off it exits 2 at its own field (``_ball_rows``).
    """
    oracle = _report_inputs(report)[0]
    outputs = report["outputs"]
    radius = _report_radius(report, "outputs", "radius")
    basis = containment.ball_delta_basis(Regular(oracle), radius, report["caps"]["ball"])
    [amplitudes] = _ball_rows(outputs["witness"], basis, "report.outputs.witness", rank=1)
    names = [row["element"] for row in outputs["defects"]]
    checks = [("support-size", np.count_nonzero(amplitudes), outputs["support-size"]),
              ("defect-elements", names == report["inputs"]["F"], True)]
    eps = Fraction(report["tolerances"]["eps"])
    worst = 0.0
    for row, g in zip(outputs["defects"], parse_elements(names, oracle, "report.outputs.defects")):
        exact = containment.shift_defect(basis.ball, amplitudes, g)
        worst = max(worst, float(exact))
        stored = Fraction(row["value-exact"])
        checks.append((f"defect-{row['element']}", float(exact), row["value"]))
        checks.append((f"defect-exact-{row['element']}", exact == stored, True))
        checks.append((f"within-eps-{row['element']}", stored <= eps, True))
    checks.append(("max-defect", worst, outputs["max-defect"]))
    checks.append(("headline", worst, report["headline"]))
    return checks


def _transfer_space(oracle, block, where):
    """pi (``block["pi"]``), then the complement if any, then infinitely many regular copies."""
    parts = [parse_representation(block.get("pi"), oracle, f"{where}.pi")]
    if block.get("complement") is not None:
        parts.append(parse_representation(block["complement"], oracle, f"{where}.complement"))
    parts.append(Multiple(Regular(oracle), None))
    return DirectSum(parts)


def run_transfer(cfg, eps):
    rho = _transfer_space(cfg.oracle, cfg.task, "task")
    F = parse_elements(cfg.task.get("F", []), cfg.oracle, "task.F")
    if not F:
        raise ConfigError("missing element set", field="task.F")
    params = _vectors(cfg.task, "params", rho, "task", required=False)
    targets = _vectors(cfg.task, "targets", rho, "task")
    result = transfer_witness(rho, params, targets, F, eps,
                              dim_cap=cfg.caps["dimension"], cap=cfg.caps["ball"])
    inputs = {
        "pi": cfg.task.get("pi"),
        "complement": cfg.task.get("complement"),
        "F": [cfg.oracle.element_to_str(g) for g in F],
        "params": vectors_to_json(params),
        "targets": vectors_to_json(targets),
    }
    outputs = {
        "witnesses": vectors_to_json(result.witnesses),
        "target-gram": gram_to_json(result.target),
        "discrepancy": result.discrepancy,
        "converged": result.converged,
    }
    return {"inputs": inputs, "outputs": outputs, "headline": result.discrepancy}


def verify_transfer(report):
    """The witnesses against the Gram data of ``inputs.params + inputs.targets`` on ``inputs.F``."""
    oracle = _report_inputs(report)[0]
    inputs = report["inputs"]
    rho = _transfer_space(oracle, inputs, "report.inputs")
    F = parse_elements(inputs["F"], oracle, "report.inputs.F")
    vectors = (_vectors(inputs, "params", rho, "report.inputs", required=False)
               + _vectors(inputs, "targets", rho, "report.inputs"))
    target = gram(rho, vectors, F, oracle=oracle)
    witnesses = _vectors(report["outputs"], "witnesses", rho, "report.outputs", required=False)
    checks = _witness_checks(report, containment.discrepancy(target, rho, witnesses), "eps")
    checks.append(_stored_gram_check(report, "target-gram", oracle, F, target.M))
    return checks


def run_nondividing(cfg, tol, closure_radius):
    pi = cfg.representation
    # every vector is read, and its keys checked, before any work; Param("closure.radius")
    # checked the closure block
    A = _vectors(cfg.task["closure"], "vectors", pi, "task.closure")
    a_vec = _vectors(cfg.task, "a", pi, "task")
    B = _vectors(cfg.task, "B", pi, "task", required=False)
    C = stability.closure(pi, A, closure_radius, cfg.caps["dimension"], cfg.caps["ball"])
    verdict = stability.nondividing(pi, a_vec, B, C, tol)
    inputs = {
        "representation": rep_to_json(pi),
        "closure": cfg.task.get("closure"),
        "a": vectors_to_json(a_vec),
        "B": vectors_to_json(B),
    }
    worst = verdict.worst
    outputs = {
        "independent": verdict.independent,
        "worst": None if worst is None else {
            "tuple-index": worst.tuple_index,
            "tuple-translate": _elem_str(cfg, worst.tuple_translate),
            "set-index": worst.set_index,
            "set-translate": _elem_str(cfg, worst.set_translate),
            "value": [worst.value.real, worst.value.imag],
            "residual-a": vector_to_json(worst.residual_a),
            "residual-b": vector_to_json(worst.residual_b),
        },
    }
    return {"inputs": inputs, "outputs": outputs, "headline": _worst_value(verdict)}


def _worst_value(verdict):
    """|<r_a, r_b>| of a nondividing verdict's worst pair, 0.0 when it has none."""
    return 0.0 if verdict.worst is None else abs(verdict.worst.value)


def _elem_str(cfg, g):
    return None if g is None else cfg.oracle.element_to_str(g)


def verify_nondividing(report):
    _oracle, pi = _report_inputs(report, "representation")
    worst = report["outputs"]["worst"]
    if worst is None:
        return [("independent", True, report["outputs"]["independent"]),
                ("headline", 0.0, report["headline"])]
    ra = parse_vector(worst["residual-a"], pi, "report.outputs.worst.residual-a")
    rb = parse_vector(worst["residual-b"], pi, "report.outputs.worst.residual-b")
    val = inner(ra, rb)
    stored = abs(complex(worst["value"][0], worst["value"][1]))
    return [
        ("worst-value", abs(val), stored),
        ("independent", stored <= report["tolerances"]["tol"], report["outputs"]["independent"]),
        ("headline", abs(val), report["headline"]),
    ]


def _worst_residual(P, Q):
    """The largest norm of a row of ``P`` off the span of the orthonormal rows of ``Q``, or 0.0."""
    return max(np.linalg.norm(residual(P, Q), axis=1).tolist(), default=0.0)


def run_canonical_base(cfg, closure_radius):
    pi = cfg.representation
    A = _vectors(cfg.task["closure"], "vectors", pi, "task.closure")
    a_vec = _vectors(cfg.task, "a", pi, "task")
    C = stability.closure(pi, A, closure_radius, cfg.caps["dimension"], cfg.caps["ball"])
    index, projected = stability.projected_orbit_block(pi, a_vec, C)
    base = gram_schmidt(projected)
    inputs = {
        "representation": rep_to_json(pi),
        "closure": cfg.task.get("closure"),
        "a": vectors_to_json(a_vec),
    }
    worst = _worst_residual(projected, base)
    outputs = {
        "base": block_to_json(pi, index.keys, base),
        "projected-orbit": block_to_json(pi, index.keys, projected),
        "worst-residual": worst,
    }
    return {"inputs": inputs, "outputs": outputs, "tolerances": {"reproduction": 1e-8},
            "headline": worst}


def verify_canonical_base(report):
    """The worst residual of the stored projected orbit off the stored base, on dense blocks."""
    _oracle, pi = _report_inputs(report, "representation")
    blocks = [parse_block(report["outputs"][key], pi, f"report.outputs.{key}")
              for key in ("base", "projected-orbit")]
    index = KeyIndex.of_keys(dict.fromkeys(k for keys, _X in blocks for k in keys))
    base, projected = (reindex(X, keys, index) for keys, X in blocks)
    worst = _worst_residual(projected, base)
    return [
        ("worst-residual", worst, report["outputs"]["worst-residual"]),
        ("headline", worst, report["headline"]),
    ]


def run_superstable(cfg, eps, radius):
    pi = cfg.representation
    A = _vectors(cfg.task, "A", pi, "task")
    a_vec = _vectors(cfg.task, "a", pi, "task")
    result = stability.superstable_approx(pi, a_vec, A, eps, radius,
                                          cfg.caps["dimension"], cfg.caps["ball"])
    verdict = stability.nondividing(pi, result.b_vec, A, result.core, tol=eps)
    inputs = {
        "representation": rep_to_json(pi),
        "A": vectors_to_json(A),
        "a": vectors_to_json(a_vec),
    }
    outputs = {
        "selected": [[_elem_str(cfg, g), ai] for (g, ai) in result.selected],
        "b": vectors_to_json(result.b_vec),
        "gaps": result.gaps,
        "independent": verdict.independent,
        "independence-worst": _worst_value(verdict),
    }
    return {"inputs": inputs, "outputs": outputs,
            "headline": max(result.gaps) if result.gaps else 0.0}


def _selected_core(report, oracle, pi, A):
    """The span of the orbit rows pi(g) A[i] of the ``selected`` labels [g, i].

    The rows are one ``OrbitBlock`` over the radius-``inputs.radius`` ball,
    built under ``caps.ball`` (no ball when pi has no group, as in the run),
    and each g is looked up in the ball's spelling index. A label whose g
    does not spell an element of that ball, or whose i is not an index of A,
    is a config error at its field.
    """
    radius = _report_radius(report, "inputs", "radius")
    B = None if pi.oracle is None else ball(oracle, radius, report["caps"]["ball"])
    block, position = OrbitBlock(pi, B), {None: 0} if B is None else B.spelling
    orbit, rows = block.rows(A), []
    for j, label in enumerate(report["outputs"]["selected"]):
        try:
            g, i = label
            at = position[g]
        except (KeyError, TypeError, ValueError):
            at = i = None
        if at is None or type(i) is not int or not 0 <= i < len(A):
            raise ConfigError(f"expected [element of the radius-{radius} ball, index into A]",
                              field=f"report.outputs.selected[{j}]")
        rows.append(orbit[at, i])
    X = np.array(rows, dtype=complex).reshape(len(rows), len(block.index))
    return Subspace.from_block(pi, block.index, gram_schmidt(X))


def verify_superstable(report):
    oracle, pi = _report_inputs(report, "representation")
    A = _vectors(report["inputs"], "A", pi, "report.inputs", required=False)
    a_vec = _vectors(report["inputs"], "a", pi, "report.inputs", required=False)
    b_vec = _vectors(report["outputs"], "b", pi, "report.outputs", required=False)
    outputs = report["outputs"]
    gaps = outputs["gaps"]
    recomputed = [(a - b).norm() for a, b in zip(a_vec, b_vec)]
    checks = [("b-count", len(a_vec), len(b_vec)), ("gaps-count", len(a_vec), len(gaps))]
    checks += [(f"gap-{i}", r, stored) for i, (r, stored) in enumerate(zip(recomputed, gaps))]
    eps = report["tolerances"]["eps"]
    core = _selected_core(report, oracle, pi, A)
    verdict = stability.nondividing(pi, b_vec, A, core, tol=eps)
    checks.append(("independence-worst", _worst_value(verdict), outputs["independence-worst"]))
    checks.append(("independent", verdict.independent, outputs["independent"]))
    checks.append(("headline", max(recomputed, default=0.0), report["headline"]))
    return checks


def _gram_defect(B, amalgam, embedded):
    """Largest change of a Gram entry on the ball ``B`` from a factor into ``amalgam``.

    ``embedded`` holds ``(factor, images)`` pairs, the images of the factor's
    canonical basis in ``amalgam``. Each side's Gram tensor
    T[g, i, j] = <rep(g)v_i, v_j> over B is the ``OrbitBlock`` rows of its
    vectors times the vectors. The rows are formed along B's left tree, so
    only B's steps are reached through ``matrix_of``.
    """
    def tensor(rep, vectors):
        block = OrbitBlock(rep, B)  # rows runs first: on a regular tree it grows the index
        return block.rows(vectors) @ to_dense(vectors, block.index).conj().T

    worst = 0.0
    for rep, images in embedded:
        change = tensor(rep, rep.canonical_basis()) - tensor(amalgam, images)
        worst = max(worst, float(np.abs(change).max()))
    return worst


def run_amalgamate(cfg, check_radius):
    pi = parse_representation(cfg.task.get("pi"), cfg.oracle, "task.pi")
    rho = parse_representation(cfg.task.get("rho"), cfg.oracle, "task.rho")
    eta = parse_representation(cfg.task.get("eta"), cfg.oracle, "task.eta")

    def build_embedding(rep, key):
        if cfg.task.get(key) is not None:
            return Embedding(pi, rep, _vectors(cfg.task, key, rep, "task", required=False))
        if isinstance(rep, DirectSum) and rep.parts[0] == pi:
            return Embedding.into_summand(rep, 0)
        if rep == pi:
            return Embedding.identity(pi)
        raise ConfigError("cannot infer embedding images", field=f"task.{key}")

    emb_rho = build_embedding(rho, "rho-images")
    emb_eta = build_embedding(eta, "eta-images")
    result = amalgamate(pi, emb_rho, emb_eta)
    B = ball(cfg.oracle, check_radius, cfg.caps["ball"])
    worst = _gram_defect(B, result.rep, [
        (rep, [emb(b) for b in rep.canonical_basis()])
        for rep, emb in ((rho, result.embed_first), (eta, result.embed_second))])
    inputs = {
        "pi": rep_to_json(pi),
        "rho": rep_to_json(rho),
        "eta": rep_to_json(eta),
        "rho-images": vectors_to_json(emb_rho.images),
        "eta-images": vectors_to_json(emb_eta.images),
    }
    outputs = {
        "amalgam": rep_to_json(result.rep),
        "rho-amalgam-images": vectors_to_json(result.embed_first.images),
        "eta-amalgam-images": vectors_to_json(result.embed_second.images),
        "gram-defect": worst,
        "dim": result.rep.total_dim(),
    }
    return {"inputs": inputs, "outputs": outputs, "tolerances": {"gram-preservation": 1e-8},
            "headline": worst}


def verify_amalgamate(report):
    oracle, rho, eta = _report_inputs(report, "rho", "eta")
    B = ball(oracle, _report_radius(report, "inputs", "check-radius"), report["caps"]["ball"])
    amalgam = parse_representation(report["outputs"]["amalgam"], oracle)
    worst = _gram_defect(B, amalgam, [
        (rep, _vectors(report["outputs"], key, amalgam, "report.outputs", required=False))
        for rep, key in ((rho, "rho-amalgam-images"), (eta, "eta-amalgam-images"))])
    return [
        ("gram-defect", worst, report["outputs"]["gram-defect"]),
        ("headline", worst, report["headline"]),
    ]


# ---------------------------------------------------------------------------
# task registry


class Task(NamedTuple):
    """A subcommand's declaration; its functions are in ``HANDLERS`` and ``VERIFIERS``."""

    help: str
    params: tuple
    files: dict  # file flag name -> help


TASKS = {}
# Task name -> run and verify functions. ``main`` and ``run_verify`` call
# through these two dicts only, so a wrapper put in them sees every call.
HANDLERS = {}
VERIFIERS = {}


def _declare(name, help, run, verify, *params, files=None):
    TASKS[name] = Task(help, params, files or {})
    HANDLERS[name] = run
    VERIFIERS[name] = verify


_declare("probe-amenability", "Random-walk and defect probes.", run_probe, verify_probe,
         Param("nmax", int, 50, floor=2), Param("radius", int, 6),
         files={"csv": "Also export estimator traces as CSV."})
_declare("contain", "Witness search for finite containment data. Without task.basis the span "
         "is the radius-r Cayley ball's deltas; on a trivial target the search starts from the "
         "ball's scaled Perron vector and reports certified-lower (Collatz-Wielandt, for the span) "
         "and certified-floor (for lambda^infinity, 7 - 4 sqrt(3) on F2), and stops at once when "
         "tol is below certified-lower.", run_contain, verify_contain,
         Param("radius", int, 4), Param("tol", float, 1e-2), Param("budget", int, 1500),
         Param("restarts", int, 8),
         files={"target": "Target Gram data JSON path; overrides task.target."})
_declare("folner-witness", "Certified almost-invariant Perron vector.", run_folner, verify_folner,
         Param("eps", float))
_declare("transfer", "Realize extension data in fresh shift copies.", run_transfer,
         verify_transfer, Param("eps", float))
_declare("nondividing", "Residual-orthogonality independence verdict.", run_nondividing,
         verify_nondividing, Param("tol", float, 1e-6), Param("closure.radius", int, 2))
_declare("canonical-base", "Orthonormal projected-orbit spanning set.", run_canonical_base,
         verify_canonical_base, Param("closure.radius", int, 2))
_declare("superstable", "Finite-support perturbation of a tuple.", run_superstable,
         verify_superstable, Param("eps", float), Param("radius", int, 2))
_declare("amalgamate", "Glue two extensions over a common part.", run_amalgamate,
         verify_amalgamate, Param("check-radius", int, 3))


def run_verify(args):
    """Recompute a report's checks; a malformed report is a config error at its field.

    The report's ``caps`` block is read once, here, by the reader configs go
    through, and the verifier finds it in ``report["caps"]``.
    """
    report = _load_json(args.report, "report")
    if not isinstance(report, dict):
        raise ConfigError("expected a JSON object", field="report")
    task = report.get("task")
    if task not in VERIFIERS:
        raise ConfigError(f"unknown task '{task}' in report", field="report.task")
    report["caps"] = parse_caps(report, "report")
    try:
        checks = VERIFIERS[task](report)
    except KeyError as exc:
        raise ConfigError("missing field", field=f"report.{exc.args[0]}") from None
    except (ArithmeticError, AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed value: {exc}", field="report") from None
    failures = []
    for name, recomputed, stored in checks:
        try:
            difference = abs(float(recomputed) - float(stored))
        except (TypeError, ValueError):
            raise ConfigError(f"stored value {stored!r} of check '{name}' is not a number",
                              field=f"report.{name}") from None
        if not difference <= VERIFY_TOL:  # nan fails too
            failures.append((name, recomputed, stored))
    if failures:
        for name, recomputed, stored in failures:
            print(f"verify FAILED {name}: recomputed {recomputed!r} vs stored {stored!r}",
                  file=sys.stderr)
        return 1
    print(f"verified {task}: {len(checks)} checks within {VERIFY_TOL}")
    return 0


def _export_csv(report, path):
    import csv  # only --csv writes one

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        rp = report["outputs"]["return-probabilities"]
        writer.writerow(["step", "p", "root-estimate", "ratio-estimate"])
        for i, s in enumerate(rp["steps"]):
            writer.writerow([s, rp["p"][i], rp["root-estimates"][i], rp["ratio-estimates"][i]])
        writer.writerow([])
        writer.writerow(["radius", "min-defect", "certified-lower"])
        for row in report["outputs"]["defect-table"]:
            writer.writerow([row["radius"], row["value"], row["certified-lower"]])


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``unirep`` parser: only the subcommand ``command`` names, else all of them."""
    parser = argparse.ArgumentParser(
        prog="unirep",
        description="Numerical workbench for unitary representations of discrete groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    known = command == "verify" or command in TASKS

    for name, task in TASKS.items():
        if known and name != command:
            continue
        p = sub.add_parser(name, help=task.help, description=task.help)
        p.add_argument("--config", required=True, help="Workbench config JSON path.")
        p.add_argument("--out", required=True, help="Report JSON output path.")
        p.add_argument("--seed", type=int, default=None, help="Override the config seed.")
        for cap in DEFAULT_CAPS:
            p.add_argument(f"--cap-{cap}", type=int, default=None, help=f"Override caps.{cap}.")
        for param in task.params:
            if "." not in param.name:
                p.add_argument(f"--{param.name}", type=param.cast, default=None,
                               help=f"Override task.{param.name}.")
        for flag, flag_help in task.files.items():
            p.add_argument(f"--{flag}", default=None, help=flag_help)

    if not known or command == "verify":
        p = sub.add_parser("verify", help="Recompute a report's headline from its witness data.")
        p.add_argument("--report", required=True, help="Report JSON path.")
    return parser


def _run_task(args):
    """Parse the config ``args`` names, run its task and return the report.

    The parsed config, and all the task built on it, is released on return:
    before the report is encoded, the step where a run's memory peaks.
    """
    cfg = parse_config(_with_flags(_load_json(args.config, "config"), args))
    if getattr(args, "target", None):
        cfg.task["target"] = _load_json(args.target, "target")
    values = {param: _task_value(cfg, args, param) for param in TASKS[args.command].params}
    own = HANDLERS[args.command](cfg, **{p.kwarg: v for p, v in values.items()})
    return _report(args.command, cfg, own, values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)  # the subcommand comes first
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args)
        report = _run_task(args)
        _write_report(report, args.out)
        if getattr(args, "csv", None):
            _export_csv(report, args.csv)
        print(f"{args.command}: headline = {report['headline']}")
        return 0
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"no convergence: {exc}; best {exc.best!r}", file=sys.stderr)
        return 4
    except PreconditionError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
