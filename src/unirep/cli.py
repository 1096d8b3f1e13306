"""Batch front end: parse configs, dispatch, emit machine-readable reports.

The task registry (``_declare`` calls near the end of this module) is the
one place a task is declared: its subcommand name, help text, typed
parameters (``Param``), run function and verify function. The subcommand's
flags, each parameter's config lookup and cast, and the echo of the cast
values into the report all come from that declaration. A run function
receives the cast values and returns only its own report parts.

Every run writes a compact JSON report (sorted keys, no indentation or
spaces, UTF-8) echoing its inputs, outputs, tolerances, and enough
witness data for the ``verify`` subcommand to recompute the headline
number independently. Vectors are written as ``[copy, element, re, im]``
entries, except the probe's minimizers: each ``defect-table`` row's
``argmin`` is the list of its real amplitudes in ball order, the first
``sizes[radius]`` elements of the breadth-first Cayley ball, which
``verify`` rebuilds. On a free group (standard generators) the probe
builds no ball, and a radius-rho row's ``argmin`` is the rho + 1 sphere
amplitudes u_0..u_rho of its radial minimizer: u_d is its norm on the
sphere S_d, so its amplitude at each element of S_d is u_d / sqrt(|S_d|)
(|S_d| itself overflows a double near d = 650 on F2). ``verify`` checks
them on the distance chain in O(rho). Exit codes:
0 success, 2 precondition or config error, 3 resource cap exceeded,
4 an iterative solver did not converge (its best value goes to stderr),
1 internal error. The caps and the tasks that read them:
``ball`` bounds every Cayley ball a task builds: the probe's one ball
(on a free group, the radius + 1 points of its distance chain), the
``contain`` basis, the ``folner-witness`` and ``transfer`` witness's ball,
the closures of ``nondividing``, ``canonical-base`` and ``superstable``,
and ``amalgamate``'s check ball; ``dimension`` bounds every orthonormal
span a task grows: those closures (and so the canonical base and the
superstable core inside them) and the ``transfer`` frame (one fresh copy
per frame vector).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import containment, stability
from .amenability import (
    EIGEN_TOL,
    SpectralRadiusInterval,
    averaged_shift,
    certified_upper,
    defect_table,
    probe_ball,
    return_probabilities,
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
from .groups import DEFAULT_BALL_CAP, ball
from .reps import DirectSum, Embedding, Multiple, Regular, Subspace, amalgamate
from .serialize import (
    DEFAULT_CAPS,
    gram_to_json,
    parse_config,
    parse_elements,
    parse_gram,
    parse_group,
    parse_representation,
    parse_vector,
    rep_to_json,
    vector_to_json,
)
from .vectors import KeyIndex, from_dense, gram_schmidt, inner, orthonormalize, residual, to_dense

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


@dataclass(frozen=True)
class Param:
    """Task parameter ``task.<name>``, cast by ``cast``; ``default`` None means required.

    A dotted name (``closure.radius``) lies in a nested block. A top-level
    parameter has the flag ``--<name>``, which overrides its config value, and
    the report echoes it: an ``int`` into ``inputs``, a ``float`` into ``tolerances``.
    """

    name: str
    cast: type
    default: object = None

    @property
    def kwarg(self):
        """The handler's keyword for the cast value."""
        return self.name.replace(".", "_").replace("-", "_")


def _task_value(cfg, args, param):
    """The value of ``param``: its flag, else its config key, else its default; cast.

    The one place task values are cast: a bad value is a config error at its field.
    An ``int`` field takes no bool and no number with a fractional part, and a
    ``float`` field no infinity or NaN.
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
    if param.cast is float and not math.isfinite(value):
        raise ConfigError(f"expected a finite float, got {value!r}", field=field)
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
    """A run's report: the handler's own parts, the group, the seed and the echoed parameters."""
    report = {"task": task, "timestamp": datetime.now(timezone.utc).isoformat(),
              "seed": cfg.seed, "tolerances": {}, **own}
    report["inputs"] = {"group": cfg.oracle.to_json(), **own.get("inputs", {})}
    for param, value in values.items():
        if "." not in param.name:
            report["inputs" if param.cast is int else "tolerances"][param.name] = value
    return report


def _vectors(block, key, space, where, required=True):
    """The vector list ``block[key]`` in ``space``; errors name ``<where>.<key>[i]``."""
    raw = block.get(key, [])
    if not isinstance(raw, list):
        raise ConfigError("expected a list of vectors", field=f"{where}.{key}")
    vectors = [parse_vector(r, space, f"{where}.{key}[{i}]") for i, r in enumerate(raw)]
    if required and not vectors:
        raise ConfigError("missing vectors", field=f"{where}.{key}")
    return vectors


def _report_inputs(report, *reps):
    """Verify's preamble: the report's group oracle, then its representations ``inputs[r]``."""
    inputs = report["inputs"]
    oracle = parse_group(inputs["group"], "report.inputs.group")
    return [oracle] + [parse_representation(inputs[r], oracle, f"report.inputs.{r}")
                       for r in reps]


# ---------------------------------------------------------------------------
# handlers


def run_probe(cfg, nmax, radius):
    if radius < 0:
        raise PreconditionError("radius must be non-negative")
    # one ball (a free group's distance chain): the walk and the defect rows 0..radius read
    # its prefixes; rows 1..radius are reported, and the last row (at radius 0 the one-point
    # ball's) is the spectral end
    B = probe_ball(cfg.oracle, max(radius, walk_radius(cfg.oracle, nmax)), cfg.caps["ball"])
    table = return_probabilities(B, nmax)
    steps = sorted(table.p)
    defects = defect_table(B, range(radius + 1))
    interval = SpectralRadiusInterval.from_defect(defects[-1])
    outputs = {
        "return-probabilities": {
            "steps": steps,
            "p": [float(table.p[s]) for s in steps],
            "p-exact": [str(table.p[s]) for s in steps],
            "root-estimates": [table.root_estimates.get(s) for s in steps],
            "ratio-estimates": [table.ratio_estimates.get(s) for s in steps],
        },
        "final-ratio": table.final_ratio,
        "defect-table": [
            {
                "radius": d.radius,
                "value": d.min_avg_sq_defect,
                "certified-lower": d.certified_lower_bound,
                "residual": d.residual,
                "argmin": d.amplitudes.tolist(),
            }
            for d in defects[1:]
        ],
        "spectral": {"radius": interval.radius, "lower": interval.lower, "upper": interval.upper},
    }
    return {"outputs": outputs, "tolerances": {"eigen-residual": EIGEN_TOL},
            "headline": table.final_ratio}


def _defect_rayleigh(B, w):
    """Average squared shift defect of w on the first len(w) points of B, and its bound.

    ``w`` holds real amplitudes in ball order, or per sphere on a distance
    chain, and M is the average of the shifts (``averaged_shift``). The
    shifts are unitary, so the defect is 2(1 - <Mw, w>/|w|^2). The bound is
    max(0, 2(1 - cw)) for the Collatz-Wielandt bound cw = max_x Mw(x)/w(x),
    which holds only for a positive w: otherwise the bound is nan.
    """
    if not B.steps:
        return 0.0, 0.0
    n2 = float(np.dot(w, w))
    if n2 == 0:
        return float("nan"), float("nan")
    mw = averaged_shift(B, len(w))(w)
    defect = 2.0 * (1.0 - float(np.dot(mw, w)) / n2)
    if not np.all(w > 0):
        return defect, float("nan")
    cw = float(np.max(mw / w))
    return defect, max(0.0, 2.0 * (1.0 - cw))


def _row_amplitudes(row, i, radius):
    """The amplitudes of defect-table row ``i``, which must be the radius-(i + 1) row."""
    where = f"report.outputs.defect-table[{i}]"
    if row["radius"] != i + 1 or i + 1 > radius:
        raise ConfigError(f"expected radius {i + 1} in 1..{radius}", field=f"{where}.radius")
    try:
        w = np.array(row["argmin"], dtype=float)
        if w.ndim == 1:
            return w
    except (TypeError, ValueError):
        pass
    raise ConfigError("expected a list of numbers", field=f"{where}.argmin")


def _walk_checks(report):
    """Checks of the return-probability block in O(nmax): steps, ``p`` and estimates.

    Each ``p`` is its ``p-exact`` rounded, and each estimate is recomputed from
    ``p`` as ``ReturnProbabilityTable`` does; None stands where there is none
    (the root at step 0, the ratio at the last step).
    """
    out = report["outputs"]
    rp = out["return-probabilities"]
    steps, p = rp["steps"], rp["p"]
    roots = [None] + [x ** (1.0 / s) for s, x in zip(steps[1:], p[1:])]
    ratios = [(b / a) ** 0.5 for a, b in zip(p, p[1:])] + [None]
    checks = [("steps", steps == list(range(0, report["inputs"]["nmax"] + 1, 2)), True)]
    for name, recomputed, stored in (
        ("p", [float(Fraction(x)) for x in rp["p-exact"]], p),
        ("root-estimate", roots, rp["root-estimates"]),
        ("ratio-estimate", ratios, rp["ratio-estimates"]),
    ):
        for s, r, x in zip(steps, recomputed, stored, strict=True):
            checks.append((f"{name}-{s}", x is None, True) if r is None else (f"{name}-{s}", r, x))
    checks.append(("final-ratio", ratios[-2], out["final-ratio"]))
    return checks


def verify_probe(report):
    out = report["outputs"]
    checks = _walk_checks(report)
    oracle = _report_inputs(report)[0]
    radius = report["inputs"]["radius"]
    table = out["defect-table"]
    amplitudes = [_row_amplitudes(row, i, radius) for i, row in enumerate(table)]
    # the run's ball held its longest row, also under a raised cap
    B = probe_ball(oracle, radius, max([DEFAULT_BALL_CAP] + [len(w) for w in amplitudes]))
    value = None
    for rho, (row, w) in enumerate(zip(table, amplitudes), start=1):
        n = int(B.sizes[rho])
        checks.append((f"argmin-length-r{rho}", n, len(w)))
        value, certified = _defect_rayleigh(B, w) if len(w) == n else (float("nan"),) * 2
        checks.append((f"defect-r{rho}", value, row["value"]))
        checks.append((f"certified-lower-r{rho}", certified, row["certified-lower"]))
    checks.append(("defect-rows", len(table), radius))
    spectral = out["spectral"]
    checks.append(("spectral-radius", radius, spectral["radius"]))
    if value is None:  # radius 0 has no row: the one-point ball
        value = _defect_rayleigh(B, np.ones(1))[0]
    lower = 1.0 - value / 2.0
    checks.append(("spectral-lower", lower, spectral["lower"]))
    checks.append(("spectral-upper", min(1.0, max(certified_upper(oracle), lower)),
                   spectral["upper"]))
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


def run_contain(cfg, radius, tol, budget, restarts):
    """Search for witnesses of the target's Gram data in the span of ``task.basis``.

    Without a ``basis`` the span is the delta basis of shift copy 0 on the
    radius-``radius`` Cayley ball, built once for the basis and the search.
    On a trivial target (n = 1, every M_g = [[1]], F holding e and the steps), the
    search starts from the ball's Perron vector scaled to c^2 = 2/(1 + mu),
    and the report carries two lower bounds for the discrepancy:
    ``certified-lower`` = (1 - cw)/(1 + cw) for the Collatz-Wielandt ratio cw
    of the witness's moduli on the ball, for every vector of the span, and
    ``certified-floor`` = (1 - u)/(1 + u) for u = ``certified_upper``, for
    every vector of lambda^infinity (7 - 4 sqrt(3) on F2). A ``tol`` below
    ``certified-lower`` is out of reach, and the start is reported at once
    with 0 iterations. Any other search reports both bounds as null. An
    explicit basis is echoed in ``inputs.basis``.
    """
    target_obj = cfg.task.get("target")
    if target_obj is None:
        raise ConfigError("missing target", field="task.target")
    target = _parse_target(cfg, target_obj)
    pi = cfg.representation
    inputs = {"representation": rep_to_json(pi), "target": gram_to_json(target)}
    if "basis" in cfg.task:
        vectors = _vectors(cfg.task, "basis", pi, "task", required=False)
        basis = Subspace(pi, orthonormalize(vectors), validate=False)
        inputs["basis"] = [vector_to_json(v) for v in vectors]
    else:
        basis = containment.ball_delta_basis(pi, radius, cap=cfg.caps["ball"])
    report_data = search_witness(target, pi, basis, tol, budget=budget,
                                 seed=cfg.seed, restarts=restarts)
    outputs = {
        "witnesses": [vector_to_json(w) for w in report_data.witnesses],
        "witness-gram": gram_to_json(gram(pi, report_data.witnesses, target.F, oracle=cfg.oracle)),
        "discrepancy": report_data.discrepancy,
        "iterations": report_data.iterations,
        "converged": report_data.converged,
        "certified-lower": report_data.certified_lower,
        "certified-floor": report_data.certified_floor,
    }
    return {"inputs": inputs, "outputs": outputs, "headline": report_data.discrepancy}


def _witness_checks(report, target, space, tol):
    """Checks of the stored witnesses against ``target``, and their Gram matrices on its F.

    The matrices are computed once; the recomputed discrepancy, the headline
    and the ``converged`` flag (``discrepancy <= tolerances[tol]``) are
    checked from them. Returns the checks, the matrices and the witnesses.
    """
    witnesses = _vectors(report["outputs"], "witnesses", space, "report.outputs", required=False)
    M = containment.witness_matrices(target, space, witnesses)
    outputs = report["outputs"]
    return [
        ("discrepancy", containment.deviation(target, M), outputs["discrepancy"]),
        ("headline", outputs["discrepancy"], report["headline"]),
        ("converged", outputs["discrepancy"] <= report["tolerances"][tol], outputs["converged"]),
    ], M, witnesses


def _stored_gram_check(report, key, oracle, F, M):
    """The check that the Gram data ``outputs[key]`` over ``F`` has the matrices ``M``."""
    where = f"report.outputs.{key}"
    stored = parse_gram(report["outputs"][key], oracle, where)
    if stored.F != F:
        raise ConfigError("stored Gram data must be over the recomputed element set",
                          field=f"{where}.F")
    return (key, containment.deviation(stored, M), 0.0)


def _contain_bounds(inputs, oracle, pi, target, witnesses):
    """``certified-lower`` and ``certified-floor`` recomputed, or None where they do not apply.

    They apply to a ball delta basis (no ``inputs.basis``, a shift copy at
    index 0) and a trivial target. The lower bound reads the witness's
    moduli on one radius-``inputs.radius`` ball, with no eigen solve; a ball
    larger than the witness's support has a point of modulus 0, so there it
    is None.
    """
    if ("basis" in inputs or not isinstance(pi.resolve(0), Regular)
            or not containment.is_trivial_on(target, oracle)):
        return None, None
    w = witnesses[0].entries
    try:
        B = ball(oracle, inputs["radius"], max(DEFAULT_BALL_CAP, len(w)))
    except ResourceLimitError:
        lower = None
    else:
        lower = containment.certified_lower(B, np.array([abs(w.get((0, x), 0))
                                                         for x in B.elements]))
    return lower, containment.certified_floor(oracle)


def verify_contain(report):
    oracle, pi = _report_inputs(report, "representation")
    target = parse_gram(report["inputs"]["target"], oracle, "report.inputs.target")
    checks, M, witnesses = _witness_checks(report, target, pi, "tol")
    checks.append(_stored_gram_check(report, "witness-gram", oracle, target.F, M))
    bounds = _contain_bounds(report["inputs"], oracle, pi, target, witnesses)
    for name, recomputed in zip(("certified-lower", "certified-floor"), bounds):
        stored = report["outputs"][name]
        if recomputed is None or stored is None:  # null where the bound does not apply
            checks.append((name, recomputed is None, stored is None))
        else:
            checks.append((name, recomputed, stored))
    return checks


def run_folner(cfg, eps):
    raw_f = cfg.task.get("F")
    F = parse_elements(raw_f, cfg.oracle, "task.F") if raw_f else list(cfg.oracle.generators)
    w = folner_witness(cfg.oracle, F, eps, cfg.caps["ball"])
    space = Regular(cfg.oracle)
    defects = []
    for g in F:
        exact = containment.shift_defect_exact(cfg.oracle, w, g)
        defects.append({
            "element": cfg.oracle.element_to_str(g),
            "value": (space.apply(g, w) - w).norm2(),
            "value-exact": str(exact),
        })
    worst = max((d["value"] for d in defects), default=0.0)
    inputs = {"F": [cfg.oracle.element_to_str(g) for g in F]}
    outputs = {
        "witness": vector_to_json(w),
        "defects": defects,
        "max-defect": worst,
        "support-size": len(w.entries),
    }
    return {"inputs": inputs, "outputs": outputs, "headline": worst}


def verify_folner(report):
    oracle = _report_inputs(report)[0]
    space = Regular(oracle)
    outputs = report["outputs"]
    w = parse_vector(outputs["witness"], space, "report.outputs.witness")
    checks = [("support-size", len(w.entries), outputs["support-size"]),
              ("defect-elements",
               [row["element"] for row in outputs["defects"]] == report["inputs"]["F"], True)]
    eps = Fraction(report["tolerances"]["eps"])
    worst = 0.0
    for row in outputs["defects"]:
        g = oracle.element_from_str(row["element"])
        value = (space.apply(g, w) - w).norm2()
        worst = max(worst, value)
        checks.append((f"defect-{row['element']}", value, row["value"]))
        exact = Fraction(row["value-exact"])
        checks.append((f"defect-exact-{row['element']}",
                       containment.shift_defect_exact(oracle, w, g) == exact, True))
        checks.append((f"within-eps-{row['element']}", exact <= eps, True))
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
    target_gram = gram(rho, params + targets, F, oracle=cfg.oracle)
    inputs = {
        "pi": cfg.task.get("pi"),
        "complement": cfg.task.get("complement"),
        "F": [cfg.oracle.element_to_str(g) for g in F],
        "params": [vector_to_json(v) for v in params],
        "targets": [vector_to_json(v) for v in targets],
    }
    outputs = {
        "witnesses": [vector_to_json(w) for w in result.witnesses],
        "target-gram": gram_to_json(target_gram),
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
    checks = _witness_checks(report, target, rho, "eps")[0]
    checks.append(_stored_gram_check(report, "target-gram", oracle, F, target.M))
    return checks


def _build_closure(cfg, pi, radius):
    """The closure of ``task.closure.vectors``; ``Param("closure.radius")`` checked the block."""
    vectors = _vectors(cfg.task["closure"], "vectors", pi, "task.closure")
    return stability.closure(pi, vectors, radius, cfg.caps["dimension"], cfg.caps["ball"])


def run_nondividing(cfg, tol, closure_radius):
    pi = cfg.representation
    C = _build_closure(cfg, pi, closure_radius)
    a_vec = _vectors(cfg.task, "a", pi, "task")
    B = _vectors(cfg.task, "B", pi, "task", required=False)
    verdict = stability.nondividing(pi, a_vec, B, C, tol)
    inputs = {
        "representation": rep_to_json(pi),
        "closure": cfg.task.get("closure"),
        "a": [vector_to_json(v) for v in a_vec],
        "B": [vector_to_json(v) for v in B],
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
    C = _build_closure(cfg, pi, closure_radius)
    a_vec = _vectors(cfg.task, "a", pi, "task")
    index, projected = stability.projected_orbit_block(pi, a_vec, C)
    base = gram_schmidt(projected)
    inputs = {
        "representation": rep_to_json(pi),
        "closure": cfg.task.get("closure"),
        "a": [vector_to_json(v) for v in a_vec],
    }
    worst = _worst_residual(projected, base)
    outputs = {
        "base": [vector_to_json(b) for b in from_dense(pi, index, base)],
        "projected-orbit": [vector_to_json(p) for p in from_dense(pi, index, projected)],
        "worst-residual": worst,
    }
    return {"inputs": inputs, "outputs": outputs, "tolerances": {"reproduction": 1e-8},
            "headline": worst}


def verify_canonical_base(report):
    _oracle, pi = _report_inputs(report, "representation")
    base = _vectors(report["outputs"], "base", pi, "report.outputs", required=False)
    projected = _vectors(report["outputs"], "projected-orbit", pi, "report.outputs",
                         required=False)
    index = KeyIndex(base + projected)
    worst = _worst_residual(to_dense(projected, index), to_dense(base, index))
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
        "A": [vector_to_json(v) for v in A],
        "a": [vector_to_json(v) for v in a_vec],
    }
    outputs = {
        "selected": [[_elem_str(cfg, g), ai] for (g, ai) in result.selected],
        "b": [vector_to_json(v) for v in result.b_vec],
        "gaps": result.gaps,
        "independent": verdict.independent,
        "independence-worst": _worst_value(verdict),
    }
    return {"inputs": inputs, "outputs": outputs,
            "headline": max(result.gaps) if result.gaps else 0.0}


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
    orbit = [A[i] if g is None else pi.apply(oracle.element_from_str(g), A[i])
             for g, i in outputs["selected"]]
    core = Subspace(pi, orthonormalize(orbit), validate=False)
    verdict = stability.nondividing(pi, b_vec, A, core, tol=eps)
    checks.append(("independence-worst", _worst_value(verdict), outputs["independence-worst"]))
    checks.append(("independent", verdict.independent, outputs["independent"]))
    checks.append(("headline", max(recomputed, default=0.0), report["headline"]))
    return checks


def _gram_defect(oracle, F, amalgam, embedded):
    """Largest change of a Gram entry on ``F`` from a factor into ``amalgam``.

    ``embedded`` holds ``(factor, images)`` pairs, the images of the factor's
    canonical basis in ``amalgam``.
    """
    worst = 0.0
    for rep, images in embedded:
        before = gram(rep, rep.canonical_basis(), F, oracle=oracle)
        after = gram(amalgam, images, F, oracle=oracle)
        for g in F:
            worst = max(worst, float(abs(before.M[g] - after.M[g]).max()))
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
    F = ball(cfg.oracle, check_radius, cfg.caps["ball"]).elements
    worst = _gram_defect(cfg.oracle, F, result.rep, [
        (rep, [emb(b) for b in rep.canonical_basis()])
        for rep, emb in ((rho, result.embed_first), (eta, result.embed_second))])
    inputs = {
        "pi": rep_to_json(pi),
        "rho": rep_to_json(rho),
        "eta": rep_to_json(eta),
        "rho-images": [vector_to_json(v) for v in emb_rho.images],
        "eta-images": [vector_to_json(v) for v in emb_eta.images],
    }
    outputs = {
        "amalgam": rep_to_json(result.rep),
        "rho-amalgam-images": [vector_to_json(v) for v in result.embed_first.images],
        "eta-amalgam-images": [vector_to_json(v) for v in result.embed_second.images],
        "gram-defect": worst,
        "dim": result.rep.total_dim(),
    }
    return {"inputs": inputs, "outputs": outputs, "tolerances": {"gram-preservation": 1e-8},
            "headline": worst}


def verify_amalgamate(report):
    oracle, rho, eta = _report_inputs(report, "rho", "eta")
    F = ball(oracle, report["inputs"]["check-radius"]).elements
    amalgam = parse_representation(report["outputs"]["amalgam"], oracle)
    worst = _gram_defect(oracle, F, amalgam, [
        (rep, _vectors(report["outputs"], key, amalgam, "report.outputs", required=False))
        for rep, key in ((rho, "rho-amalgam-images"), (eta, "eta-amalgam-images"))])
    return [
        ("gram-defect", worst, report["outputs"]["gram-defect"]),
        ("headline", worst, report["headline"]),
    ]


# ---------------------------------------------------------------------------
# task registry


@dataclass(frozen=True)
class Task:
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
         Param("nmax", int, 50), Param("radius", int, 6),
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
    """Recompute a report's checks; a malformed report is a config error at its field."""
    report = _load_json(args.report, "report")
    if not isinstance(report, dict):
        raise ConfigError("expected a JSON object", field="report")
    task = report.get("task")
    if task not in VERIFIERS:
        raise ConfigError(f"unknown task '{task}' in report", field="report.task")
    try:
        checks = VERIFIERS[task](report)
    except KeyError as exc:
        raise ConfigError("missing field", field=f"report.{exc.args[0]}") from None
    except (ArithmeticError, IndexError, TypeError, ValueError) as exc:
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
    """The ``unirep`` parser; given ``command``, only the task of that name gets its arguments.

    Every subcommand is listed either way, so ``unirep --help`` names them all,
    and ``verify``'s one argument is always added.
    """
    parser = argparse.ArgumentParser(
        prog="unirep",
        description="Numerical workbench for unitary representations of discrete groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, task in TASKS.items():
        p = sub.add_parser(name, help=task.help, description=task.help)
        if command not in (None, name):
            continue
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
