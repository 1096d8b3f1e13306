"""Batch front end: parse configs, dispatch, emit machine-readable reports.

Every run writes a compact JSON report (sorted keys, no indentation or
spaces, UTF-8) echoing its inputs, outputs, tolerances, and enough
witness data for the ``verify`` subcommand to recompute the headline
number independently. Vectors are written as ``[copy, element, re, im]``
entries, except the probe's minimizers: each ``defect-table`` row's
``argmin`` is the list of its real amplitudes in ball order, the first
``sizes[radius]`` elements of the breadth-first Cayley ball, which
``verify`` rebuilds. Exit codes:
0 success, 2 precondition or config error, 3 resource cap exceeded,
4 an iterative solver did not converge (its best value goes to stderr),
1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import containment, stability
from .amenability import (
    SpectralRadiusInterval,
    certified_upper,
    defect_table,
    min_defect,
    return_probabilities,
)
from .containment import discrepancy, folner_witness, gram, search_witness, transfer_witness
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
    gram_to_json,
    group_to_json,
    parse_config,
    parse_gram,
    parse_representation,
    parse_vector,
    rep_to_json,
    vector_to_json,
)
from .vectors import inner, orthonormalize

VERIFY_TOL = 1e-9


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


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


def _task_value(cfg, args, name, default=None, cast=None, block=None):
    """Task value ``name`` (in the nested ``block`` if given), cast by ``cast``.

    The one place task values are cast: a bad value is a config error at its field.
    An ``int`` field takes no bool and no number with a fractional part.
    """
    field = f"task.{name}" if block is None else f"task.{block}.{name}"
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        value = (cfg.task if block is None else cfg.task[block]).get(name, default)
    if value is None:
        raise ConfigError("missing required parameter", field=field)
    if cast is None:
        return value
    try:
        if cast is int and (isinstance(value, bool)
                            or isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected {cast.__name__}, got {value!r}", field=field) from None


def _elements(cfg, raw, where):
    return [cfg.oracle.element_from_str(s) for s in raw]


def _base_report(name, cfg):
    return {
        "task": name,
        "timestamp": _now(),
        "seed": cfg.seed,
        "inputs": {"group": group_to_json(cfg.oracle)},
        "tolerances": {},
        "outputs": {},
    }


# ---------------------------------------------------------------------------
# handlers


def run_probe(cfg, args):
    nmax = _task_value(cfg, args, "nmax", 50, int)
    radius = _task_value(cfg, args, "radius", 6, int)
    exact_steps = _task_value(cfg, args, "exact-steps", 40, int)
    table = return_probabilities(
        cfg.oracle, None, nmax, exact_steps=exact_steps, support_cap=cfg.caps["support"]
    )
    steps = sorted(table.p)
    defects = defect_table(cfg.oracle, None, radius, ball_cap=cfg.caps["ball"])
    # the spectral bound's lower end is the last row's defect; radius 0 has no row
    last = defects[-1] if defects else min_defect(cfg.oracle, None, radius,
                                                  ball_cap=cfg.caps["ball"])
    interval = SpectralRadiusInterval.from_defect(cfg.oracle, None, last)
    report = _base_report("probe-amenability", cfg)
    report["inputs"].update({"nmax": nmax, "radius": radius, "exact-steps": exact_steps})
    report["outputs"] = {
        "return-probabilities": {
            "steps": steps,
            "p": [float(table.p[s]) for s in steps],
            "p-exact": [
                str(table.p[s]) if s <= table.exact_through else None for s in steps
            ],
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
            for d in defects
        ],
        "spectral": {"radius": interval.radius, "lower": interval.lower, "upper": interval.upper},
    }
    report["tolerances"] = {"eigen-residual": 1e-9}
    report["headline"] = table.final_ratio
    return report


def _defect_rayleigh(B, w):
    """Average squared shift defect of w on the first len(w) elements of B, and its bound.

    ``w`` holds real amplitudes in ball order. Summing the shifts of w over
    the ball's left table gives deg * Mw, for M the average of the shifts.
    They are unitary, so the defect is 2(1 - <Mw, w>/|w|^2). The bound is
    max(0, 2(1 - cw)) for the Collatz-Wielandt bound cw = max_x Mw(x)/w(x),
    which holds only for a positive w: otherwise the bound is nan.
    """
    deg = len(B.steps)
    if not deg:
        return 0.0, 0.0
    n2 = float(np.dot(w, w))
    if n2 == 0:
        return float("nan"), float("nan")
    rows, cols = B.edges(len(w))
    shifted = np.bincount(rows, weights=w[cols], minlength=len(w))
    defect = 2.0 * (1.0 - float(np.dot(shifted, w)) / (deg * n2))
    if not np.all(w > 0):
        return defect, float("nan")
    cw = float(np.max(shifted / w)) / deg
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


def verify_probe(report):
    out = report["outputs"]
    p = out["return-probabilities"]["p"]
    checks = []
    if len(p) >= 2:
        checks.append(("final-ratio", (p[-1] / p[-2]) ** 0.5, out["final-ratio"]))
    oracle = parse_config({"group": report["inputs"]["group"]}).oracle
    radius = report["inputs"]["radius"]
    table = out["defect-table"]
    amplitudes = [_row_amplitudes(row, i, radius) for i, row in enumerate(table)]
    # the run's ball held its longest row, also under a raised cap
    B = ball(oracle, radius, max([DEFAULT_BALL_CAP] + [len(w) for w in amplitudes]))
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
    F = _elements(cfg, obj.get("F", []), "target.F")
    if not F:
        raise ConfigError("missing element set", field="target.F")
    vectors = [
        parse_vector(raw, rep, f"target.vectors[{i}]")
        for i, raw in enumerate(obj.get("vectors", []))
    ]
    if not vectors:
        raise ConfigError("missing vectors", field="target.vectors")
    return gram(rep, vectors, F, oracle=cfg.oracle)


def run_contain(cfg, args):
    target_obj = cfg.task.get("target")
    if getattr(args, "target", None):
        target_obj = _load_json(args.target, "target")
    if target_obj is None:
        raise ConfigError("missing target", field="task.target")
    radius = _task_value(cfg, args, "radius", 4, int)
    tol = _task_value(cfg, args, "tol", 1e-2, float)
    budget = _task_value(cfg, args, "budget", 1500, int)
    restarts = _task_value(cfg, args, "restarts", 8, int)
    target = _parse_target(cfg, target_obj)
    pi = cfg.representation
    if "basis" in cfg.task:
        basis = Subspace(
            pi,
            orthonormalize(
                [parse_vector(raw, pi, f"task.basis[{i}]") for i, raw in enumerate(cfg.task["basis"])]
            ),
            validate=False,
        )
    else:
        basis = containment.ball_delta_basis(pi, radius, cap=cfg.caps["ball"])
    report_data = search_witness(target, pi, basis, tol, budget=budget,
                                 seed=cfg.seed, restarts=restarts)
    report = _base_report("contain", cfg)
    report["inputs"].update({
        "representation": rep_to_json(pi),
        "target": gram_to_json(target),
        "radius": radius,
        "budget": budget,
        "restarts": restarts,
    })
    report["tolerances"] = {"tol": tol}
    report["outputs"] = {
        "witnesses": [vector_to_json(w) for w in report_data.witnesses],
        "witness-gram": gram_to_json(gram(pi, report_data.witnesses, target.F, oracle=cfg.oracle)),
        "discrepancy": report_data.discrepancy,
        "iterations": report_data.iterations,
        "converged": report_data.converged,
    }
    report["headline"] = report_data.discrepancy
    return report


def verify_contain(report):
    cfg = parse_config({"group": report["inputs"]["group"]})
    pi = parse_representation(report["inputs"]["representation"], cfg.oracle)
    target = parse_gram(report["inputs"]["target"], cfg.oracle, "target")
    witnesses = [parse_vector(raw, pi) for raw in report["outputs"]["witnesses"]]
    disc = discrepancy(target, pi, witnesses)
    return [
        ("discrepancy", disc, report["outputs"]["discrepancy"]),
        ("headline", report["outputs"]["discrepancy"], report["headline"]),
    ]


def run_folner(cfg, args):
    eps = _task_value(cfg, args, "eps", None, float)
    raw_f = cfg.task.get("F")
    F = _elements(cfg, raw_f, "task.F") if raw_f else list(cfg.oracle.generators)
    w = folner_witness(cfg.oracle, F, eps, support_cap=cfg.caps["support"])
    space = Regular(cfg.oracle)
    defects = []
    for g in F:
        exact = containment.shift_defect_exact(
            cfg.oracle, [k for (_c, k) in w.entries.keys()], g
        )
        defects.append({
            "element": cfg.oracle.element_to_str(g),
            "value": (space.apply(g, w) - w).norm2(),
            "value-exact": str(exact),
        })
    worst = max((d["value"] for d in defects), default=0.0)
    report = _base_report("folner-witness", cfg)
    report["inputs"].update({"F": [cfg.oracle.element_to_str(g) for g in F]})
    report["tolerances"] = {"eps": eps}
    report["outputs"] = {
        "witness": vector_to_json(w),
        "defects": defects,
        "max-defect": worst,
        "support-size": len(w.entries),
    }
    report["headline"] = worst
    return report


def verify_folner(report):
    cfg = parse_config({"group": report["inputs"]["group"]})
    space = Regular(cfg.oracle)
    w = parse_vector(report["outputs"]["witness"], space)
    checks = []
    for row in report["outputs"]["defects"]:
        g = cfg.oracle.element_from_str(row["element"])
        checks.append((f"defect-{row['element']}", (space.apply(g, w) - w).norm2(), row["value"]))
    checks.append(("headline", report["outputs"]["max-defect"], report["headline"]))
    return checks


def _build_transfer_space(cfg):
    pi = parse_representation(cfg.task.get("pi"), cfg.oracle, "task.pi")
    parts = [pi]
    if cfg.task.get("complement") is not None:
        parts.append(parse_representation(cfg.task["complement"], cfg.oracle, "task.complement"))
    parts.append(Multiple(Regular(cfg.oracle), None))
    return DirectSum(parts)


def run_transfer(cfg, args):
    rho = _build_transfer_space(cfg)
    eps = _task_value(cfg, args, "eps", None, float)
    F = _elements(cfg, cfg.task.get("F", []), "task.F")
    if not F:
        raise ConfigError("missing element set", field="task.F")
    params = [
        parse_vector(raw, rho, f"task.params[{i}]")
        for i, raw in enumerate(cfg.task.get("params", []))
    ]
    targets = [
        parse_vector(raw, rho, f"task.targets[{i}]")
        for i, raw in enumerate(cfg.task.get("targets", []))
    ]
    if not targets:
        raise ConfigError("missing targets", field="task.targets")
    result = transfer_witness(rho, params, targets, F, eps,
                              fresh_cap=cfg.caps["fresh-copies"],
                              support_cap=cfg.caps["support"])
    target_gram = gram(rho, params + targets, F, oracle=cfg.oracle)
    report = _base_report("transfer", cfg)
    report["inputs"].update({
        "pi": cfg.task.get("pi"),
        "complement": cfg.task.get("complement"),
        "F": [cfg.oracle.element_to_str(g) for g in F],
        "params": [vector_to_json(v) for v in params],
        "targets": [vector_to_json(v) for v in targets],
    })
    report["tolerances"] = {"eps": eps}
    report["outputs"] = {
        "witnesses": [vector_to_json(w) for w in result.witnesses],
        "target-gram": gram_to_json(target_gram),
        "discrepancy": result.discrepancy,
        "converged": result.converged,
    }
    report["headline"] = result.discrepancy
    return report


def verify_transfer(report):
    cfg = parse_config({
        "group": report["inputs"]["group"],
        "task": {"pi": report["inputs"]["pi"], "complement": report["inputs"]["complement"]},
    })
    rho = _build_transfer_space(cfg)
    target = parse_gram(report["outputs"]["target-gram"], cfg.oracle, "target-gram")
    witnesses = [parse_vector(raw, rho) for raw in report["outputs"]["witnesses"]]
    disc = discrepancy(target, rho, witnesses)
    return [
        ("discrepancy", disc, report["outputs"]["discrepancy"]),
        ("headline", report["outputs"]["discrepancy"], report["headline"]),
    ]


def _build_closure(cfg, pi, where="task.closure"):
    block = cfg.task.get("closure")
    if not isinstance(block, dict):
        raise ConfigError("missing closure block", field=where)
    radius = _task_value(cfg, None, "radius", 2, int, block="closure")
    vectors = [
        parse_vector(raw, pi, f"{where}.vectors[{i}]")
        for i, raw in enumerate(block.get("vectors", []))
    ]
    if not vectors:
        raise ConfigError("closure needs generating vectors", field=f"{where}.vectors")
    return stability.closure(pi, vectors, radius, dim_cap=cfg.caps["dimension"])


def run_nondividing(cfg, args):
    pi = cfg.representation
    tol = _task_value(cfg, args, "tol", 1e-6, float)
    C = _build_closure(cfg, pi)
    a_vec = [parse_vector(raw, pi, f"task.a[{i}]") for i, raw in enumerate(cfg.task.get("a", []))]
    B = [parse_vector(raw, pi, f"task.B[{i}]") for i, raw in enumerate(cfg.task.get("B", []))]
    if not a_vec:
        raise ConfigError("missing tuple vectors", field="task.a")
    verdict = stability.nondividing(pi, a_vec, B, C, tol)
    report = _base_report("nondividing", cfg)
    report["inputs"].update({
        "representation": rep_to_json(pi),
        "closure": cfg.task.get("closure"),
        "a": [vector_to_json(v) for v in a_vec],
        "B": [vector_to_json(v) for v in B],
    })
    report["tolerances"] = {"tol": tol}
    worst = verdict.worst
    report["outputs"] = {
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
    report["headline"] = 0.0 if worst is None else abs(worst.value)
    return report


def _elem_str(cfg, g):
    return None if g is None else cfg.oracle.element_to_str(g)


def verify_nondividing(report):
    cfg = parse_config({"group": report["inputs"]["group"]})
    pi = parse_representation(report["inputs"]["representation"], cfg.oracle)
    worst = report["outputs"]["worst"]
    if worst is None:
        return [("headline", 0.0, report["headline"])]
    ra = parse_vector(worst["residual-a"], pi)
    rb = parse_vector(worst["residual-b"], pi)
    val = inner(ra, rb)
    return [
        ("worst-value", abs(val), abs(complex(worst["value"][0], worst["value"][1]))),
        ("headline", abs(val), report["headline"]),
    ]


def run_canonical_base(cfg, args):
    pi = cfg.representation
    C = _build_closure(cfg, pi)
    a_vec = [parse_vector(raw, pi, f"task.a[{i}]") for i, raw in enumerate(cfg.task.get("a", []))]
    if not a_vec:
        raise ConfigError("missing tuple vectors", field="task.a")
    projected = stability.projected_orbit(pi, a_vec, C)
    base = orthonormalize(projected)
    base_sub = Subspace(pi, base, validate=False)
    worst = max((base_sub.residual(p).norm() for p in projected), default=0.0)
    report = _base_report("canonical-base", cfg)
    report["inputs"].update({
        "representation": rep_to_json(pi),
        "closure": cfg.task.get("closure"),
        "a": [vector_to_json(v) for v in a_vec],
    })
    report["tolerances"] = {"reproduction": 1e-8}
    report["outputs"] = {
        "base": [vector_to_json(b) for b in base],
        "projected-orbit": [vector_to_json(p) for p in projected],
        "worst-residual": worst,
    }
    report["headline"] = worst
    return report


def verify_canonical_base(report):
    cfg = parse_config({"group": report["inputs"]["group"]})
    pi = parse_representation(report["inputs"]["representation"], cfg.oracle)
    base = [parse_vector(raw, pi) for raw in report["outputs"]["base"]]
    projected = [parse_vector(raw, pi) for raw in report["outputs"]["projected-orbit"]]
    base_sub = Subspace(pi, base, validate=False)
    worst = max((base_sub.residual(p).norm() for p in projected), default=0.0)
    return [
        ("worst-residual", worst, report["outputs"]["worst-residual"]),
        ("headline", worst, report["headline"]),
    ]


def run_superstable(cfg, args):
    pi = cfg.representation
    eps = _task_value(cfg, args, "eps", None, float)
    radius = _task_value(cfg, args, "radius", 2, int)
    A = [parse_vector(raw, pi, f"task.A[{i}]") for i, raw in enumerate(cfg.task.get("A", []))]
    a_vec = [parse_vector(raw, pi, f"task.a[{i}]") for i, raw in enumerate(cfg.task.get("a", []))]
    if not A or not a_vec:
        raise ConfigError("missing vectors", field="task.A")
    result = stability.superstable_approx(pi, a_vec, A, eps, radius,
                                          dim_cap=cfg.caps["dimension"])
    core_closure = stability.ClosureSpec.from_subspace(result.core)
    verdict = stability.nondividing(pi, result.b_vec, A, core_closure, tol=eps)
    report = _base_report("superstable", cfg)
    report["inputs"].update({
        "representation": rep_to_json(pi),
        "A": [vector_to_json(v) for v in A],
        "a": [vector_to_json(v) for v in a_vec],
        "radius": radius,
    })
    report["tolerances"] = {"eps": eps}
    report["outputs"] = {
        "selected": [[_elem_str(cfg, g), ai] for (g, ai) in result.selected],
        "b": [vector_to_json(v) for v in result.b_vec],
        "gaps": result.gaps,
        "independent": verdict.independent,
        "independence-worst": 0.0 if verdict.worst is None else abs(verdict.worst.value),
    }
    report["headline"] = max(result.gaps) if result.gaps else 0.0
    return report


def verify_superstable(report):
    cfg = parse_config({"group": report["inputs"]["group"]})
    pi = parse_representation(report["inputs"]["representation"], cfg.oracle)
    a_vec = [parse_vector(raw, pi) for raw in report["inputs"]["a"]]
    b_vec = [parse_vector(raw, pi) for raw in report["outputs"]["b"]]
    checks = []
    for i, (a, b) in enumerate(zip(a_vec, b_vec)):
        checks.append((f"gap-{i}", (a - b).norm(), report["outputs"]["gaps"][i]))
    recomputed = max(((a - b).norm() for a, b in zip(a_vec, b_vec)), default=0.0)
    checks.append(("headline", recomputed, report["headline"]))
    return checks


def run_amalgamate(cfg, args):
    check_radius = _task_value(cfg, args, "check-radius", 3, int)
    pi = parse_representation(cfg.task.get("pi"), cfg.oracle, "task.pi")
    rho = parse_representation(cfg.task.get("rho"), cfg.oracle, "task.rho")
    eta = parse_representation(cfg.task.get("eta"), cfg.oracle, "task.eta")

    def build_embedding(rep, key):
        raw = cfg.task.get(key)
        if raw is not None:
            images = [parse_vector(r, rep, f"task.{key}[{i}]") for i, r in enumerate(raw)]
            return Embedding(pi, rep, images)
        if isinstance(rep, DirectSum) and rep.parts[0] == pi:
            return Embedding.into_summand(rep, 0)
        if rep == pi:
            return Embedding.identity(pi)
        raise ConfigError("cannot infer embedding images", field=f"task.{key}")

    emb_rho = build_embedding(rho, "rho-images")
    emb_eta = build_embedding(eta, "eta-images")
    result = amalgamate(pi, emb_rho, emb_eta)
    from .groups import ball as _ball

    F = _ball(cfg.oracle, check_radius, cfg.caps["ball"]).elements
    worst = 0.0
    for rep, emb in ((rho, result.embed_first), (eta, result.embed_second)):
        basis = rep.canonical_basis()
        before = gram(rep, basis, F, oracle=cfg.oracle)
        after = gram(result.rep, [emb(b) for b in basis], F, oracle=cfg.oracle)
        for g in F:
            worst = max(worst, float(abs(before.M[g] - after.M[g]).max()))
    report = _base_report("amalgamate", cfg)
    report["inputs"].update({
        "pi": rep_to_json(pi),
        "rho": rep_to_json(rho),
        "eta": rep_to_json(eta),
        "rho-images": [vector_to_json(v) for v in emb_rho.images],
        "eta-images": [vector_to_json(v) for v in emb_eta.images],
        "check-radius": check_radius,
    })
    report["tolerances"] = {"gram-preservation": 1e-8}
    report["outputs"] = {
        "amalgam": rep_to_json(result.rep),
        "rho-amalgam-images": [vector_to_json(v) for v in result.embed_first.images],
        "eta-amalgam-images": [vector_to_json(v) for v in result.embed_second.images],
        "gram-defect": worst,
        "dim": result.rep.total_dim(),
    }
    report["headline"] = worst
    return report


def verify_amalgamate(report):
    cfg = parse_config({"group": report["inputs"]["group"]})
    oracle = cfg.oracle
    from .groups import ball as _ball

    F = _ball(oracle, report["inputs"]["check-radius"]).elements
    amalgam = parse_representation(report["outputs"]["amalgam"], oracle)
    worst = 0.0
    for key, img_key in (("rho", "rho-amalgam-images"), ("eta", "eta-amalgam-images")):
        rep = parse_representation(report["inputs"][key], oracle)
        basis = rep.canonical_basis()
        images = [parse_vector(raw, amalgam) for raw in report["outputs"][img_key]]
        before = gram(rep, basis, F, oracle=oracle)
        after = gram(amalgam, images, F, oracle=oracle)
        for g in F:
            worst = max(worst, float(abs(before.M[g] - after.M[g]).max()))
    return [
        ("gram-defect", worst, report["outputs"]["gram-defect"]),
        ("headline", worst, report["headline"]),
    ]


VERIFIERS = {
    "probe-amenability": verify_probe,
    "contain": verify_contain,
    "folner-witness": verify_folner,
    "transfer": verify_transfer,
    "nondividing": verify_nondividing,
    "canonical-base": verify_canonical_base,
    "superstable": verify_superstable,
    "amalgamate": verify_amalgamate,
}

HANDLERS = {
    "probe-amenability": run_probe,
    "contain": run_contain,
    "folner-witness": run_folner,
    "transfer": run_transfer,
    "nondividing": run_nondividing,
    "canonical-base": run_canonical_base,
    "superstable": run_superstable,
    "amalgamate": run_amalgamate,
}


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
    except (IndexError, TypeError, ValueError) as exc:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unirep",
        description="Numerical workbench for unitary representations of discrete groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="Workbench config JSON path.")
        p.add_argument("--out", required=True, help="Report JSON output path.")
        p.add_argument("--seed", type=int, default=None, help="Override the config seed.")
        p.add_argument("--cap-ball", type=int, default=None)
        p.add_argument("--cap-dimension", type=int, default=None)
        p.add_argument("--cap-support", type=int, default=None)
        p.add_argument("--cap-fresh-copies", type=int, default=None)

    p = sub.add_parser("probe-amenability", help="Random-walk and defect probes.")
    add_common(p)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--csv", default=None, help="Also export estimator traces as CSV.")

    p = sub.add_parser("contain", help="Witness search for finite containment data.")
    add_common(p)
    p.add_argument("--target", default=None, help="Target Gram data JSON path.")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("folner-witness", help="Certified almost-invariant box vector.")
    add_common(p)
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("transfer", help="Realize extension data in fresh shift copies.")
    add_common(p)
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("nondividing", help="Residual-orthogonality independence verdict.")
    add_common(p)

    p = sub.add_parser("canonical-base", help="Orthonormal projected-orbit spanning set.")
    add_common(p)

    p = sub.add_parser("superstable", help="Finite-support perturbation of a tuple.")
    add_common(p)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--radius", type=int, default=None)

    p = sub.add_parser("amalgamate", help="Glue two extensions over a common part.")
    add_common(p)

    p = sub.add_parser("verify", help="Recompute a report's headline from its witness data.")
    p.add_argument("--report", required=True, help="Report JSON path.")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args)
        cfg = parse_config(_load_json(args.config, "config"))
        if args.seed is not None:
            cfg.seed = args.seed
        for cap, flag in (
            ("ball", "cap_ball"),
            ("dimension", "cap_dimension"),
            ("support", "cap_support"),
            ("fresh-copies", "cap_fresh_copies"),
        ):
            value = getattr(args, flag, None)
            if value is not None:
                cfg.caps[cap] = value
        report = HANDLERS[args.command](cfg, args)
        _write_report(report, args.out)
        if args.command == "probe-amenability" and getattr(args, "csv", None):
            _export_csv(report, args.csv)
        print(f"{args.command}: headline = {report['headline']}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"no convergence: {exc}; best {exc.best!r}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
