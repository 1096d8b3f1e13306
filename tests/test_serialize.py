"""Bit-exact JSON round trips of groups, representations, vectors and Gram data, in the packed
form reports use and the list form configs use; malformed packed data exits 2 at its field."""

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirep import (
    DirectSum,
    FgAbelianOracle,
    FreeGroupOracle,
    MatrixRep,
    Multiple,
    Regular,
    SparseVector,
    Trivial,
    ball,
    gram,
)
from unirep.cli import main
from unirep.containment import GramFunction
from unirep.serialize import (
    block_to_json,
    gram_to_json,
    pack_floats,
    parse_block,
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
from unirep.vectors import KeyIndex, to_dense
from util import (
    character_action,
    cyclic_table,
    h3_rewriting,
    phase,
    psl2z_rewriting,
    s4_table,
    unpacked,
    z2_rewriting,
    z_on_2_3,
)


def _powers(exponents, m=0):
    """A character that sends generator i to t ** exponents[i] for one random phase t."""
    def character(rng):
        t = phase(rng, m)
        return [t ** k for k in exponents]
    return character


# every group kind, each with a random character: one admissible phase per generator
GROUPS = {
    "free": (FreeGroupOracle(2), lambda rng: [phase(rng), phase(rng)]),
    "abelian": (FgAbelianOracle(1, [3]), lambda rng: [phase(rng), phase(rng, 3)]),
    "trivial-group": (FgAbelianOracle(0), lambda rng: []),
    "abelian-Z-on-2-3": (z_on_2_3(), _powers([2, 3])),
    "abelian-Z6-on-2-3": (FgAbelianOracle(0, [6], [(2,), (3,)]), _powers([2, 3], 6)),
    "table-Z4": (cyclic_table(4), _powers([1], 4)),
    "table-S4": (s4_table(), _powers([1, 1], 2)),  # the sign or the trivial character
    "rewriting-Z2": (z2_rewriting(), lambda rng: [phase(rng), phase(rng)]),
    "rewriting-H3": (h3_rewriting(), lambda rng: [phase(rng), phase(rng), 1]),
    "rewriting-PSL2Z": (psl2z_rewriting(), lambda rng: [phase(rng, 2), phase(rng, 3)]),
}


def _round_trip(document):
    return json.loads(json.dumps(document))


def _bits(v):
    return {k: (a.real.hex(), a.imag.hex()) for k, a in v.entries.items()}


@st.composite
def _representation(draw, oracle, character):
    """A small representation tree over ``oracle``; its matrix atoms are conjugated characters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def atom():
        kind = draw(st.sampled_from(["regular", "trivial"] + ["matrix"] * bool(oracle.generators)))
        if kind == "regular":
            return Regular(oracle)
        d = draw(st.integers(1, 3))
        if kind == "trivial":
            return Trivial(d)
        return MatrixRep(oracle, character_action(rng, d, character))

    shape = draw(st.sampled_from(["atom", "multiple", "sum"]))
    if shape == "atom":
        return atom()
    if shape == "multiple":
        return Multiple(atom(), draw(st.sampled_from([1, 3, None])))
    parts = [atom() for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        parts.append(Multiple(atom(), None))
    return DirectSum(parts)


def _keys(rep, oracle):
    """Some (copy, key) addresses of ``rep``: the first copies, a radius-2 ball on a shift."""
    count = rep.leaf_count()
    keys = []
    for copy in range(4 if count is None else count):
        atom = rep.resolve(copy)
        local = ball(oracle, 2).elements if isinstance(atom, Regular) else range(atom.dim)
        keys.extend((copy, k) for k in local)
    return keys


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("name", sorted(GROUPS))
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_serialize_round_trips_bit_for_bit(name, data):
    """to_json, then json, then parse gives back each object, every float bit for bit."""
    oracle, character = GROUPS[name]
    text = json.dumps(oracle.to_json())
    assert parse_group(json.loads(text)) == oracle
    assert json.dumps(parse_group(json.loads(text)).to_json()) == text

    rep = data.draw(_representation(oracle, character))
    text = json.dumps(rep_to_json(rep))
    back = parse_representation(json.loads(text), oracle)
    assert back == rep
    assert json.dumps(rep_to_json(back)) == text  # shortest float reprs: equal text, equal bits

    keys = _keys(rep, oracle)
    entries = data.draw(st.dictionaries(st.sampled_from(keys), st.tuples(finite_floats,
                                                                         finite_floats),
                                        max_size=6))
    v = SparseVector(rep, {k: complex(re, im) for k, (re, im) in entries.items()})
    assert _bits(parse_vector(_round_trip(vector_to_json(v)), rep)) == _bits(v)
    assert _bits(parse_vector(_round_trip(unpacked(vector_to_json(v))), rep)) == _bits(v)

    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    vectors = [SparseVector(rep, {keys[int(i)]: complex(*rng.standard_normal(2))
                                  for i in rng.integers(len(keys), size=3)}) for _ in range(2)]
    block = _round_trip(vectors_to_json(vectors))
    assert [_bits(w) for w in parse_vectors(block, rep)] == [_bits(w) for w in vectors]
    assert [_bits(w) for w in parse_vectors(unpacked(block), rep)] == [_bits(w) for w in vectors]
    gf = gram(rep, vectors, ball(oracle, 1).elements, oracle=oracle)
    gf_back = parse_gram(_round_trip(gram_to_json(gf)), oracle)
    assert gf_back.F == gf.F and gf_back.n == gf.n
    assert all(gf_back.M[g].tobytes() == gf.M[g].tobytes() for g in gf.F)


# -0.0, the smallest subnormal, a subnormal near the normal range, and the largest magnitudes
SPECIAL = [-0.0, 0.0, 5e-324, -2.2250738585072e-308, 1e308, -1e308, 1.0 / 3.0, -7.5]


def _float_bits(a):
    return np.asarray(a).tobytes()


def test_packed_matrices_round_trip_bit_for_bit():
    """Gram matrices (and so echoed representations) through the packed and the list form."""
    oracle = FgAbelianOracle(1)
    U = np.array(SPECIAL[:4], dtype=float) + 1j * np.array(SPECIAL[4:], dtype=float)
    U = U.reshape(2, 2)
    gf = GramFunction(oracle, [(1,)], 2, {(1,): U})  # no identity or inverse in F: no checks
    packed = gram_to_json(gf)
    assert packed["matrices"][0]["shape"] == [2, 2, 2]
    for document in (packed, unpacked(packed)):
        back = parse_gram(_round_trip(document), oracle)
        assert _float_bits(back.M[(1,)]) == _float_bits(U)
    assert unpacked(packed)["matrices"][0] == [[[z.real, z.imag] for z in row] for row in U]


@pytest.mark.parametrize("values", [SPECIAL, [], [2.5]], ids=["special", "empty", "one"])
def test_packed_argmin_round_trips_bit_for_bit(values):
    """A probe's real amplitudes, -0.0, subnormals and +-1e308 included, in either form."""
    a = np.array(values, dtype=float)
    packed = _round_trip(pack_floats(a))
    assert packed["shape"] == [len(values)]
    assert _float_bits(parse_floats(packed, "argmin")) == _float_bits(a)
    assert _float_bits(parse_floats(_round_trip(a.tolist()), "argmin")) == _float_bits(a)
    assert [math.copysign(1, x) for x in unpacked(packed)] == [math.copysign(1, x) for x in a]


F2_SUM = DirectSum([Trivial(2), Regular(FreeGroupOracle(2))])


@pytest.mark.parametrize("rows", [
    [],
    [{(1, (1, 2)): 1 - 2j}],
    # zero at shared keys: each row misses a key another row holds
    [{(0, 0): 0.5, (1, ()): -0.0 + 5e-324j}, {(0, 1): 1e308j, (1, ()): -1e308},
     {(0, 1): -0.25, (1, (-2,)): 1.0}],
], ids=["empty", "one-vector", "shared-keys"])
def test_packed_vector_blocks_decode_as_the_list_form(rows):
    """A vector list as one block over shared keys; rows zero at a shared key decode to the
    same ``SparseVector``s, entry order included, as the list form."""
    vectors = [SparseVector(F2_SUM, entries) for entries in rows]
    block = _round_trip(vectors_to_json(vectors))
    assert block["shape"][0] == len(vectors)
    assert block["shape"][1] == len({k for v in vectors for k in v.entries})
    assert block["keys"] == sorted(block["keys"])  # (copy, element string): the list form's order
    from_block = parse_vectors(block, F2_SUM)
    from_lists = parse_vectors(_round_trip(unpacked(block)), F2_SUM)
    assert [_bits(v) for v in from_block] == [_bits(v) for v in vectors]
    assert [list(v.entries) for v in from_block] == [list(v.entries) for v in from_lists]
    assert [_bits(v) for v in from_block] == [_bits(v) for v in from_lists]
    # the dense path writes the same block as the sparse one
    index = KeyIndex(vectors)
    assert block_to_json(F2_SUM, index.keys, to_dense(vectors, index)) == block
    keys, X = parse_block(block, F2_SUM)
    assert _float_bits(to_dense(from_block, KeyIndex.of_keys(keys))) == _float_bits(X)
    if len(vectors) == 1:
        single = _round_trip(vector_to_json(vectors[0]))
        assert single["shape"] == block["shape"][1:]
        assert _bits(parse_vector(single, F2_SUM)) == _bits(vectors[0])


def _payload(block, transform):
    raw = bytearray(base64.b64decode(block["f64"]))
    block["f64"] = base64.b64encode(transform(raw)).decode("ascii")


def _bad_base64(block):
    block["f64"] = "*" + block["f64"][1:]
    return "f64", "bad base64"


def _short_payload(block):
    _payload(block, lambda raw: raw[:-8])
    return "f64", "bytes, but shape"


def _nan_payload(block):
    _payload(block, lambda raw: np.float64(math.nan).tobytes() + raw[8:])
    return "f64", "non-finite value at index [0"


def _inf_payload(block):
    _payload(block, lambda raw: raw[:-8] + np.float64(-math.inf).tobytes())
    return "f64", "non-finite value"


def _wrong_rank(block):
    block["shape"] = block["shape"] + [1]
    return "shape", "non-negative integers"


def _repeated_key(block):
    block["keys"][1] = list(block["keys"][0])
    return "keys[1]", "repeated key"


def _extra_key(block):
    block["keys"].append([0, "7"])
    return "keys", "keys for"


def _off_leaf_key(block):
    """The key [0, "0"] renamed to the first coordinate past its 2-dim leaf."""
    j = block["keys"].index([0, "0"])
    block["keys"][j] = [0, "2"]
    return f"keys[{j}]", "coordinate 2 out of range for dim 2"


Z_GROUP = {"kind": "fg-abelian", "rank": 1, "torsion": []}
# Z acting on C^2 by swapping the coordinates: the closure of delta_0 is all of C^2
SWAP_Z = {"kind": "matrix", "matrices": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]}
SWAP_CANONICAL_BASE = {"group": Z_GROUP, "representation": SWAP_Z, "task": {
    "closure": {"vectors": [[[0, "0", 1.0, 0.0]]], "radius": 1},
    "a": [[[0, "0", 1.0, 0.0], [0, "1", 0.5, 0.0]]]}}
# (task, config, path to a packed block of the report)
PACKED_FIELDS = {
    "vector-list": ("canonical-base", {"group": Z_GROUP, "task": {
        "closure": {"vectors": [[[0, "0", 1.0, 0.0]]], "radius": 1},
        "a": [[[0, "1", 1.0, 0.0]]]}}, ("outputs", "base")),
    "finite-vector-list": ("canonical-base", SWAP_CANONICAL_BASE, ("outputs", "base")),
    "matrix": ("contain", {"group": {"kind": "free", "rank": 2}, "task": {
        "target": {"F": ["e", "1", "-1", "2", "-2"], "n": 1, "matrices": [[[[1.0, 0.0]]]] * 5},
        "radius": 1, "tol": 0.5}}, ("inputs", "target", "matrices", 1)),
    "argmin": ("probe-amenability", {"group": Z_GROUP, "task": {"nmax": 4, "radius": 2}},
               ("outputs", "defect-table", 1, "argmin")),
}


def _pointer(path):
    return "report" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


@pytest.mark.parametrize("field, tamper", [
    *((field, tamper) for field in sorted(PACKED_FIELDS)
      for tamper in (_bad_base64, _short_payload, _nan_payload, _inf_payload, _wrong_rank)),
    ("vector-list", _repeated_key),  # only vector blocks carry keys
    ("vector-list", _extra_key),
    ("finite-vector-list", _off_leaf_key),
])
def test_malformed_packed_block_exits_2_at_its_field(tmp_path, capsys, field, tamper):
    """Bad base64, a byte count off the shape, a non-finite value, a repeated key, a key
    count off the columns or a coordinate off its leaf: ``verify`` exits 2 and names the
    block's field."""
    task, config, path = PACKED_FIELDS[field]
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(config))
    assert main([task, "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    block = report
    for p in path:
        block = block[p]
    assert block["shape"][-1] >= 2  # two keys, two values, or a complex axis
    part, message = tamper(block)
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{_pointer(path)}.{part}': " in err and message in err
    assert "Traceback" not in err


def test_off_leaf_key_in_a_list_form_report_exits_2_at_its_entry(tmp_path, capsys):
    """The list form's entries are read by the same key check as a packed block's keys."""
    task, config, _path = PACKED_FIELDS["finite-vector-list"]
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(config))
    assert main([task, "--config", str(cfg), "--out", str(out)]) == 0
    report = unpacked(json.loads(out.read_text()))
    entries = report["outputs"]["base"][0]
    j = [entry[:2] for entry in entries].index([0, "0"])
    entries[j][1] = "2"
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"config field 'report.outputs.base[0][{j}]': coordinate 2 out of range for dim 2"
            in err)
    assert "Traceback" not in err


@pytest.mark.parametrize("field", sorted(PACKED_FIELDS))
def test_list_form_reports_still_verify(tmp_path, field):
    """A report with every packed block rewritten in list form, as older reports hold them,
    still verifies; configs are list form throughout."""
    task, config, _path = PACKED_FIELDS[field]
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(config))
    assert main([task, "--config", str(cfg), "--out", str(out)]) == 0
    text = json.dumps(unpacked(json.loads(out.read_text())))
    assert '"f64"' not in text
    out.write_text(text)
    assert main(["verify", "--report", str(out)]) == 0
