"""Bit-exact JSON round trips of groups, representations, vectors and Gram data."""

import json

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
from unirep.serialize import (
    gram_to_json,
    parse_gram,
    parse_group,
    parse_representation,
    parse_vector,
    rep_to_json,
    vector_to_json,
)
from util import (
    character_action,
    cyclic_table,
    h3_rewriting,
    phase,
    psl2z_rewriting,
    s4_table,
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

    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    vectors = [SparseVector(rep, {keys[int(i)]: complex(*rng.standard_normal(2))
                                  for i in rng.integers(len(keys), size=3)}) for _ in range(2)]
    gf = gram(rep, vectors, ball(oracle, 1).elements, oracle=oracle)
    gf_back = parse_gram(_round_trip(gram_to_json(gf)), oracle)
    assert gf_back.F == gf.F and gf_back.n == gf.n
    assert all(gf_back.M[g].tobytes() == gf.M[g].tobytes() for g in gf.F)
