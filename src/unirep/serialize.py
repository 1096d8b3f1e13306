"""JSON schemas for groups, representations, vectors, and Gram data.

Round trips are exact: elements serialize through their canonical string
forms, floats through ``json``'s shortest-repr encoding, and parsing a
serialized document reproduces the original objects bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .containment import DEFAULT_FRESH_CAP, DEFAULT_SUPPORT_CAP, GramFunction
from .errors import ConfigError, PreconditionError
from .groups import (
    DEFAULT_BALL_CAP,
    FgAbelianOracle,
    FiniteTableOracle,
    FreeGroupOracle,
    GroupOracle,
    RewritingOracle,
)
from .reps import (
    DirectSum,
    MatrixRep,
    Multiple,
    Regular,
    Representation,
    Trivial,
)
from .stability import DEFAULT_DIM_CAP
from .vectors import SparseVector

DEFAULT_CAPS = {
    "ball": DEFAULT_BALL_CAP,
    "dimension": DEFAULT_DIM_CAP,
    "support": DEFAULT_SUPPORT_CAP,
    "fresh-copies": DEFAULT_FRESH_CAP,
}


def _require(obj, key, kind, where):
    if key not in obj:
        raise ConfigError(f"missing required key", field=f"{where}.{key}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(
            f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}",
            field=f"{where}.{key}",
        )
    return value


def parse_group(obj, where="group") -> GroupOracle:
    if not isinstance(obj, dict):
        raise ConfigError("group block must be an object", field=where)
    kind = _require(obj, "kind", str, where)
    try:
        if kind == "free":
            return FreeGroupOracle(_require(obj, "rank", int, where))
        if kind == "fg-abelian":
            rank = _require(obj, "rank", int, where)
            torsion = obj.get("torsion", [])
            gens = obj.get("generators")
            gens = [tuple(g) for g in gens] if gens is not None else None
            return FgAbelianOracle(rank, torsion, gens)
        if kind == "finite-table":
            return FiniteTableOracle(
                _require(obj, "table", list, where),
                _require(obj, "generators", list, where),
            )
        if kind == "rewriting-presented":
            rules = [(tuple(l), tuple(r)) for l, r in _require(obj, "rules", list, where)]
            return RewritingOracle(_require(obj, "num_generators", int, where), rules)
    except ConfigError:
        raise
    except Exception as exc:  # surface oracle validation with a field pointer
        raise ConfigError(str(exc), field=where) from exc
    raise ConfigError(f"unknown group kind '{kind}'", field=f"{where}.kind")


def group_to_json(oracle: GroupOracle) -> dict:
    return oracle.to_json()


def _matrix_to_json(U: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in U]


def _matrix_from_json(rows, where) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except Exception as exc:
        raise ConfigError(f"bad complex matrix: {exc}", field=where) from exc


def parse_representation(obj, oracle, where="representation") -> Representation:
    if obj is None:
        return Regular(oracle)
    if not isinstance(obj, dict):
        raise ConfigError("representation block must be an object", field=where)
    kind = _require(obj, "kind", str, where)
    if kind == "regular":
        return Regular(oracle)
    if kind == "trivial":
        return Trivial(_require(obj, "dim", int, where))
    if kind == "matrix":
        mats = [
            _matrix_from_json(m, f"{where}.matrices[{i}]")
            for i, m in enumerate(_require(obj, "matrices", list, where))
        ]
        relations = [tuple(wd) for wd in obj.get("relations", [])]
        try:
            return MatrixRep(oracle, mats, relations)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(str(exc), field=where) from exc
    if kind == "direct-sum":
        parts = [
            parse_representation(p, oracle, f"{where}.parts[{i}]")
            for i, p in enumerate(_require(obj, "parts", list, where))
        ]
        return DirectSum(parts)
    if kind == "multiple":
        count = _require(obj, "count", None, where)
        if count == "inf":
            count = None
        elif not isinstance(count, int):
            raise ConfigError("count must be an integer or \"inf\"", field=f"{where}.count")
        base = parse_representation(_require(obj, "base", dict, where), oracle, f"{where}.base")
        return Multiple(base, count)
    raise ConfigError(f"unknown representation kind '{kind}'", field=f"{where}.kind")


def rep_to_json(rep: Representation) -> dict:
    if isinstance(rep, Regular):
        return {"kind": "regular"}
    if isinstance(rep, Trivial):
        return {"kind": "trivial", "dim": rep.dim}
    if isinstance(rep, MatrixRep):
        return {"kind": "matrix", "matrices": [_matrix_to_json(U) for U in rep.matrices]}
    if isinstance(rep, DirectSum):
        return {"kind": "direct-sum", "parts": [rep_to_json(p) for p in rep.parts]}
    if isinstance(rep, Multiple):
        return {
            "kind": "multiple",
            "base": rep_to_json(rep.base),
            "count": "inf" if rep.count is None else rep.count,
        }
    raise ConfigError(f"cannot serialize representation {type(rep).__name__}")


def _key_to_str(space, copy, key) -> str:
    atom = space.resolve(copy)
    if isinstance(atom, Regular):
        return atom.oracle.element_to_str(key)
    return str(key)


def _key_from_str(space, copy, s, where):
    atom = space.resolve(copy)
    if isinstance(atom, Regular):
        return atom.oracle.element_from_str(s)
    try:
        return int(s)
    except ValueError as exc:
        raise ConfigError(f"bad coordinate '{s}'", field=where) from exc


def parse_vector(raw, space, where="vector") -> SparseVector:
    if not isinstance(raw, list):
        raise ConfigError("vector literal must be a list of entries", field=where)
    entries = {}
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 4):
            raise ConfigError(
                "entry must be [copy, element, re, im]", field=f"{where}[{i}]"
            )
        copy, elem, re, im = item
        if not isinstance(copy, int) or copy < 0:
            raise ConfigError("copy index must be a non-negative integer", field=f"{where}[{i}]")
        try:
            key = _key_from_str(space, copy, str(elem), f"{where}[{i}]")
            entries[(copy, key)] = complex(float(re), float(im))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(str(exc), field=f"{where}[{i}]") from exc
    return SparseVector(space, entries)


def vector_to_json(v: SparseVector) -> list:
    items = []
    for (copy, key), amp in v.entries.items():
        items.append([copy, _key_to_str(v.space, copy, key), float(amp.real), float(amp.imag)])
    items.sort(key=lambda row: (row[0], row[1]))
    return items


def gram_to_json(gf: GramFunction) -> dict:
    return {
        "F": [gf.oracle.element_to_str(g) for g in gf.F],
        "n": gf.n,
        "matrices": [_matrix_to_json(gf.M[g]) for g in gf.F],
    }


def parse_elements(raw, oracle, where) -> list:
    """Group elements from their strings; a malformed one is a config error at ``where[i]``."""
    if not isinstance(raw, list):
        raise ConfigError("expected a list of element strings", field=where)
    elements = []
    for i, s in enumerate(raw):
        try:
            elements.append(oracle.element_from_str(s))
        except (AttributeError, TypeError, ValueError, PreconditionError) as exc:
            raise ConfigError(str(exc), field=f"{where}[{i}]") from exc
    return elements


def parse_gram(obj, oracle, where="gram") -> GramFunction:
    F = parse_elements(_require(obj, "F", list, where), oracle, f"{where}.F")
    n = _require(obj, "n", int, where)
    mats = _require(obj, "matrices", list, where)
    if len(mats) != len(F):
        raise ConfigError("matrices must align with F", field=f"{where}.matrices")
    M = {g: _matrix_from_json(m, f"{where}.matrices[{i}]") for i, (g, m) in enumerate(zip(F, mats))}
    try:
        return GramFunction(oracle, F, n, M)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc), field=where) from exc


@dataclass
class WorkbenchConfig:
    oracle: GroupOracle
    representation: Representation
    seed: int
    caps: dict
    task: dict
    raw: dict = field(default_factory=dict)


def parse_config(obj) -> WorkbenchConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object", field="")
    oracle = parse_group(_require(obj, "group", dict, "config"), "config.group")
    rep = parse_representation(obj.get("representation"), oracle, "config.representation")
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer", field="config.seed")
    raw_caps = obj.get("caps", {})
    if not isinstance(raw_caps, dict):
        raise ConfigError("caps must be an object", field="config.caps")
    caps = dict(DEFAULT_CAPS)
    for k, v in raw_caps.items():
        if k not in DEFAULT_CAPS:
            raise ConfigError(f"unknown cap '{k}'", field="config.caps")
        if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
            raise ConfigError("caps must be positive integers", field=f"config.caps.{k}")
        caps[k] = v
    task = obj.get("task", {})
    if not isinstance(task, dict):
        raise ConfigError("task block must be an object", field="config.task")
    return WorkbenchConfig(oracle, rep, seed, caps, task, obj)
