"""JSON schemas for groups, representations, vectors, and Gram data.

Round trips are exact: elements serialize through their canonical string
forms, and parsing a serialized document reproduces the original objects
bit for bit. A float array is written as one packed block,
``{"f64": <base64 of little-endian float64>, "shape": [...]}``; a complex
array gains a trailing axis of 2 (re, im). A matrix is a ``[rows, cols, 2]``
block. A vector is a ``[K, 2]`` block and a list of vectors an
``[n, K, 2]`` block, with ``"keys"``: the ``[copy, element]`` address of
each of the K columns, in ``(copy, element string)`` order, each column
nonzero in some row. Every parser also takes the list form that configs
use: a matrix as rows of ``[re, im]`` pairs, a vector as a list of
``[copy, element, re, im]`` entries, a vector list as a list of vectors
and a real array as a list of numbers, whose floats round-trip through
``json``'s shortest-repr encoding. A packed block is checked whole: its
base64, its byte count against its shape, finite values and, for vectors,
one column per key and no key twice; an error names its field.

Every vector key, in either form, goes through one reader, ``_read_keys``:
the leaf its copy index addresses (resolved once per copy) spells and reads
it, a regular leaf as its oracle's element string and a finite leaf as a
decimal coordinate in ``0..dim-1``. A key its leaf refuses, a repeated key
and a copy index past the tree are config errors at the key's field.
"""

from __future__ import annotations

import base64
import binascii
import functools
import math
from dataclasses import dataclass

import numpy as np

from .containment import GramFunction
from .errors import ConfigError, PreconditionError, ResourceLimitError
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
from .vectors import DEFAULT_DIM_CAP, KeyIndex, SparseVector, from_dense, to_dense

DEFAULT_CAPS = {"ball": DEFAULT_BALL_CAP, "dimension": DEFAULT_DIM_CAP}


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
    except (ConfigError, ResourceLimitError):  # a cap hit while building exits 3, as anywhere
        raise
    except Exception as exc:  # surface oracle validation with a field pointer
        raise ConfigError(str(exc), field=where) from exc
    raise ConfigError(f"unknown group kind '{kind}'", field=f"{where}.kind")


def pack_floats(a) -> dict:
    """The packed block of a real or complex array; a complex one gains a trailing axis of 2."""
    a = np.asarray(a)
    shape = list(a.shape)
    if np.iscomplexobj(a):
        a = a.astype("<c16", copy=False)
        shape.append(2)
    else:
        a = a.astype("<f8", copy=False)
    return {"f64": base64.b64encode(a.tobytes()).decode("ascii"), "shape": shape}


def _unpack(obj, where, rank, complex_=False) -> np.ndarray:
    """The array of the packed block ``obj`` with ``rank`` axes; a complex one drops its axis of 2."""
    shape = obj.get("shape")
    if not (isinstance(shape, list) and len(shape) == rank
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ConfigError(f"expected a list of {rank} non-negative integers",
                          field=f"{where}.shape")
    if complex_ and shape[-1] != 2:
        raise ConfigError("a complex block ends in an axis of 2 (re, im)", field=f"{where}.shape")
    data = obj.get("f64")
    if not isinstance(data, str):
        raise ConfigError("expected a base64 string", field=f"{where}.f64")
    try:
        raw = base64.b64decode(data, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ConfigError(f"bad base64: {exc}", field=f"{where}.f64") from None
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise ConfigError(f"{len(raw)} bytes, but shape {shape} needs {size}",
                          field=f"{where}.f64")
    flat = np.frombuffer(bytearray(raw), dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(flat))
    if len(bad):
        at = [int(i) for i in np.unravel_index(bad[0], shape)]
        raise ConfigError(f"non-finite value at index {at}", field=f"{where}.f64")
    a = flat.reshape(shape)
    return a.view("<c16")[..., 0] if complex_ else a


def parse_floats(raw, where) -> np.ndarray:
    """A real 1-d array: a packed block or a list of numbers."""
    if isinstance(raw, dict):
        return _unpack(raw, where, 1)
    try:
        a = np.array(raw, dtype=float)
        if a.ndim == 1:
            return a
    except (TypeError, ValueError):
        pass
    raise ConfigError("expected a packed float64 block or a list of numbers", field=where)


def _matrix_to_json(U: np.ndarray) -> dict:
    return pack_floats(np.asarray(U, dtype=complex))


def _matrix_from_json(obj, where) -> np.ndarray:
    """A complex matrix: a packed ``[rows, cols, 2]`` block or rows of ``[re, im]`` pairs."""
    if isinstance(obj, dict):
        return _unpack(obj, where, 3, complex_=True)
    try:
        return np.array([[complex(re, im) for re, im in row] for row in obj])
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
        if "relations" in obj:  # the oracle presents its group; no relation is taken here
            raise ConfigError("a matrix representation takes no relations",
                              field=f"{where}.relations")
        try:
            return MatrixRep(oracle, mats)
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


def _read_keys(items, space, where, what):
    """``(field, key, item)`` for each ``[copy, element, ...]`` item of a vector block, in order.

    The one key check of both forms: ``what`` is ``"key"`` (a packed block's
    ``[copy, element]``) or ``"entry"`` (a list form's ``[copy, element, re,
    im]``). Each copy's leaf is resolved once and reads its element, which
    it checks; a key seen before, or any malformed item, is a config error
    at ``<where>[j]``.
    """
    width, shape = (2, "[copy, element]") if what == "key" else (4, "[copy, element, re, im]")
    leaf = functools.cache(space.resolve)
    seen = set()
    for j, item in enumerate(items):
        at = f"{where}[{j}]"
        if not (isinstance(item, list) and len(item) == width):
            raise ConfigError(f"{what} must be {shape}", field=at)
        copy = item[0]
        if not isinstance(copy, int) or copy < 0:
            raise ConfigError("copy index must be a non-negative integer", field=at)
        try:
            key = (copy, leaf(copy).leaf_key_from_str(str(item[1])))
        except (PreconditionError, ValueError) as exc:
            raise ConfigError(str(exc), field=at) from exc
        if key in seen:
            raise ConfigError(f"repeated {what}", field=at)
        seen.add(key)
        yield at, key, item


def _packed_vectors(raw, space, where, rank) -> tuple:
    """The keys and the amplitudes (``[K]`` or ``[n, K]``) of a packed vector block."""
    raw_keys = _require(raw, "keys", list, where)
    amps = _unpack(raw, where, rank + 1, complex_=True)
    if len(raw_keys) != amps.shape[-1]:
        raise ConfigError(f"{len(raw_keys)} keys for {amps.shape[-1]} columns",
                          field=f"{where}.keys")
    return [key for _at, key, _item in _read_keys(raw_keys, space, f"{where}.keys", "key")], amps


def parse_vector(raw, space, where="vector") -> SparseVector:
    """A vector: a packed ``[K, 2]`` block, or a list of ``[copy, element, re, im]`` entries."""
    if isinstance(raw, dict):
        keys, amps = _packed_vectors(raw, space, where, 1)
        return from_dense(space, KeyIndex.of_keys(keys), amps[None])[0]
    if not isinstance(raw, list):
        raise ConfigError("vector literal must be a list of entries", field=where)
    entries = {}
    for at, key, (_copy, _element, re, im) in _read_keys(raw, space, where, "entry"):
        try:
            amp = complex(float(re), float(im))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(str(exc), field=at) from exc
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ConfigError("amplitude must be finite", field=at)
        entries[key] = amp
    return SparseVector(space, entries)


def parse_vectors(raw, space, where="vectors") -> list:
    """A list of vectors: a packed ``[n, K, 2]`` block, or a list of vectors in either form."""
    if isinstance(raw, dict):
        keys, X = _packed_vectors(raw, space, where, 2)
        return from_dense(space, KeyIndex.of_keys(keys), X)
    if not isinstance(raw, list):
        raise ConfigError("expected a list of vectors", field=where)
    return [parse_vector(r, space, f"{where}[{i}]") for i, r in enumerate(raw)]


def parse_block(raw, space, where="vectors") -> tuple:
    """A list of vectors as its keys and its ``(n x K)`` block of rows, in either form."""
    if isinstance(raw, dict):
        return _packed_vectors(raw, space, where, 2)
    vectors = parse_vectors(raw, space, where)
    index = KeyIndex(vectors)
    return index.keys, to_dense(vectors, index)


def block_to_json(space, keys, X) -> dict:
    """The packed ``[n, K, 2]`` block of the rows of ``X``, vectors of ``space`` over ``keys``.

    Columns that are zero in every row are left out, as the list form leaves
    out zero entries; the rows decode to the vectors ``from_dense`` makes.
    """
    X = np.asarray(X, dtype=complex)
    leaf = functools.cache(space.resolve) if keys else None  # each copy's leaf resolved once
    live = sorted((c, leaf(c).leaf_key_to_str(k), j)
                  for j in np.flatnonzero(X.any(axis=0)) for c, k in [keys[j]])
    return {"keys": [[c, s] for c, s, _j in live], **pack_floats(X[:, [j for *_, j in live]])}


def vectors_to_json(vectors) -> dict:
    """The packed block of a list of vectors of one space."""
    vectors = list(vectors)
    index = KeyIndex(vectors)
    return block_to_json(vectors[0].space if vectors else None, index.keys,
                         to_dense(vectors, index))


def vector_to_json(v: SparseVector) -> dict:
    """The packed ``[K, 2]`` block of one vector."""
    block = vectors_to_json([v])
    block["shape"] = block["shape"][1:]
    return block


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


def parse_caps(obj, where) -> dict:
    """``DEFAULT_CAPS`` with each cap the block ``obj["caps"]`` names, a positive integer.

    The one reader of caps: a config's block, and the block a report echoes
    from its run. Without a block (a report written before reports echoed
    their caps) every cap is its default.
    """
    raw = obj.get("caps", {})
    if not isinstance(raw, dict):
        raise ConfigError("caps must be an object", field=f"{where}.caps")
    caps = dict(DEFAULT_CAPS)
    for k, v in raw.items():
        if k not in DEFAULT_CAPS:
            raise ConfigError(f"unknown cap '{k}'", field=f"{where}.caps")
        if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
            raise ConfigError("caps must be positive integers", field=f"{where}.caps.{k}")
        caps[k] = v
    return caps


@dataclass
class WorkbenchConfig:
    oracle: GroupOracle
    representation: Representation
    seed: int
    caps: dict
    task: dict


def parse_config(obj) -> WorkbenchConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object", field="")
    oracle = parse_group(_require(obj, "group", dict, "config"), "config.group")
    rep = parse_representation(obj.get("representation"), oracle, "config.representation")
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer", field="config.seed")
    caps = parse_caps(obj, "config")
    task = obj.get("task", {})
    if not isinstance(task, dict):
        raise ConfigError("task block must be an object", field="config.task")
    return WorkbenchConfig(oracle, rep, seed, caps, task)
