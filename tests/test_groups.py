"""Group arithmetic and Cayley-ball enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirep import groups
from unirep import (
    FgAbelianOracle,
    FiniteTableOracle,
    FreeGroupOracle,
    KindMismatchError,
    PreconditionError,
    ResourceLimitError,
    RewritingOracle,
    ball,
    symmetric_generators,
)
from util import (
    cyclic_table,
    f2_oracle,
    psl2z_rewriting,
    s4_table,
    swapped_intercalate_table,
    z2_oracle,
    z2_rewriting,
    z3_rewriting,
    z_on_2_3,
    z_oracle,
)


def all_oracles():
    return [
        f2_oracle(),
        z_oracle(),
        z2_oracle(),
        FgAbelianOracle(1, [4]),
        cyclic_table(3),
        cyclic_table(7),
        z2_rewriting(),
        z3_rewriting(),
        FgAbelianOracle(2, [], [(1, 0), (1, 1)]),
        FgAbelianOracle(0, [6], [(2,), (3,)]),
        z_on_2_3(),
        psl2z_rewriting(),
        s4_table(),
    ]


def _evaluate(oracle, word):
    """The element a signed-letter word names: letter i is generator i, -i its inverse."""
    x = oracle.identity()
    for letter in word:
        g = oracle.generators[abs(letter) - 1]
        x = oracle.multiply(x, g if letter > 0 else oracle.invert(g))
    return x


def test_free_reduction_examples():
    F2 = f2_oracle()
    a, b = (1,), (2,)
    assert F2.multiply(a, F2.invert(a)) == ()
    assert F2.multiply((1, 2), (-2, 1)) == (1, 1)
    assert F2.invert((1, 2)) == (-2, -1)


def test_abelian_examples():
    Z2 = z2_oracle()
    assert Z2.multiply((1, 0), (0, 1)) == (1, 1)
    assert Z2.invert((2, -1)) == (-2, 1)


def test_table_examples():
    Z3 = cyclic_table(3)
    assert Z3.invert(1) == 2
    assert Z3.multiply(1, 2) == 0


def test_ball_counts():
    assert len(ball(f2_oracle(), 2)) == 17
    assert len(ball(z2_oracle(), 2)) == 13
    assert len(ball(cyclic_table(3), 1)) == 3


def test_ball_diamond_formula():
    Z2 = z2_oracle()
    for r in range(6):
        assert len(ball(Z2, r)) == 2 * r * r + 2 * r + 1


@pytest.mark.parametrize("oracle", all_oracles(), ids=lambda o: o.kind)
def test_associativity_and_inverses(oracle):
    rng = np.random.default_rng(7)
    pool = ball(oracle, 3).elements
    e = oracle.identity()
    for _ in range(1000):
        a, b, c = (pool[int(rng.integers(len(pool)))] for _ in range(3))
        assert oracle.multiply(oracle.multiply(a, b), c) == oracle.multiply(a, oracle.multiply(b, c))
    for _ in range(200):
        a = pool[int(rng.integers(len(pool)))]
        assert oracle.multiply(a, oracle.invert(a)) == e
        assert oracle.multiply(oracle.invert(a), a) == e


@pytest.mark.parametrize("oracle", all_oracles(), ids=lambda o: o.kind)
def test_ball_invariants(oracle):
    steps = symmetric_generators(oracle)
    previous = None
    for r in range(4):
        B = ball(oracle, r)
        assert B.elements[0] == oracle.identity()
        assert len(set(B.elements)) == len(B.elements)
        if previous is not None:
            assert set(previous.elements) <= set(B.elements)
            # closure: every one-step product from the smaller ball lands inside
            for x in previous.elements:
                for s in steps:
                    assert oracle.multiply(x, s) in B
        previous = B


def test_finite_ball_stabilizes():
    Z7 = cyclic_table(7)
    sizes = [len(ball(Z7, r)) for r in range(10)]
    assert sizes[-1] == 7
    assert sizes[4] == 7  # diameter of Z/7 with one generator is 3


def test_rewriting_matches_abelian():
    RW, Z2 = z2_rewriting(), z2_oracle()
    for r in range(4):
        assert len(ball(RW, r)) == len(ball(Z2, r))


def test_rewriting_z3_normal_forms():
    RW3 = z3_rewriting()
    a = (1,)
    assert RW3.multiply(a, a) == (-1,)
    assert RW3.multiply(RW3.multiply(a, a), a) == ()
    assert len(ball(RW3, 5)) == 3


@settings(derandomize=True, database=None, max_examples=300)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30))
def test_rewriting_normal_form_is_exponent_sums(word):
    a = sum(1 if x == 1 else -1 for x in word if abs(x) == 1)
    b = sum(1 if x == 2 else -1 for x in word if abs(x) == 2)
    sorted_word = (1 if a > 0 else -1,) * abs(a) + (2 if b > 0 else -2,) * abs(b)
    assert z2_rewriting().normalize(word) == sorted_word
    z3_word = [x for x in word if abs(x) == 1]
    assert z3_rewriting().normalize(z3_word) == [(), (1,), (-1,)][sum(z3_word) % 3]


@pytest.mark.parametrize("oracle", all_oracles(), ids=lambda o: o.kind)
def test_unchecked_product_matches_multiply(oracle):
    pool = ball(oracle, 3).elements
    for a in pool:
        for b in pool:
            assert oracle._mul(a, b) == oracle.multiply(a, b)


@st.composite
def abelian_pairs(draw):
    """An abelian oracle of rank 0-3 with up to three torsion factors, and two of its elements."""
    rank = draw(st.integers(0, 3))
    torsion = draw(st.lists(st.integers(2, 9), max_size=3))
    oracle = FgAbelianOracle(rank, torsion)

    def element():
        free = [draw(st.integers(-50, 50)) for _ in range(rank)]
        return tuple(free + [draw(st.integers(0, m - 1)) for m in torsion])

    return oracle, element(), element()


@settings(derandomize=True, database=None, max_examples=300)
@given(abelian_pairs())
def test_abelian_unchecked_product_reduces_only_the_torsion(case):
    oracle, a, b = case
    product = oracle._mul(a, b)
    assert product == oracle.multiply(a, b)
    assert product == tuple((x + y) % m if m else x + y for x, y, m in zip(a, b, oracle.moduli))
    oracle.check_element(product)


@pytest.mark.parametrize("oracle", all_oracles(), ids=lambda o: o.kind)
def test_smaller_ball_is_a_prefix(oracle):
    big = ball(oracle, 4)
    for r in range(4):
        assert big.elements[:big.sizes[r]] == ball(oracle, r).elements


@pytest.mark.parametrize("oracle", all_oracles() + [FgAbelianOracle(0)], ids=lambda o: o.kind)
def test_neighbour_tables_match_multiply(oracle):
    B = ball(oracle, 3)
    position = {x: i for i, x in enumerate(B.elements)}
    assert B.index == position
    assert B.right.shape == B.left.shape == (len(B), len(B.steps))
    assert len(B.sizes) == 4 and B.sizes[-1] == len(B)
    for i, x in enumerate(B.elements):
        for j, s in enumerate(B.steps):
            assert B.right[i, j] == position.get(oracle.multiply(x, s), -1)
            assert B.left[i, j] == position.get(oracle.multiply(s, x), -1)


def test_rewriting_step_cap_names_the_cap(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_REWRITE_STEPS", 50)
    looping = RewritingOracle(2, [[[1], [2]], [[2], [1]]])
    with pytest.raises(ResourceLimitError, match="step cap 50"):
        looping.normalize((1,))


def test_rewriting_multiply_checks_normal_form():
    with pytest.raises(KindMismatchError):
        z2_rewriting().multiply((2, 1), ())  # 2 1 rewrites to 1 2


def test_kind_mismatch_errors():
    Z = z_oracle()
    with pytest.raises(KindMismatchError):
        Z.multiply((1,), (1, 2))
    with pytest.raises(KindMismatchError):
        f2_oracle().multiply((1, -1), ())  # not reduced
    with pytest.raises(KindMismatchError):
        cyclic_table(3).multiply(1, 5)
    with pytest.raises(KindMismatchError):
        FgAbelianOracle(0, [4]).check_element((7,))  # not reduced mod 4


def test_ball_cap_resource_error():
    with pytest.raises(ResourceLimitError, match="cap 1000"):
        ball(f2_oracle(), 12, cap=1000)


def test_generators_must_generate_and_exclude_identity():
    with pytest.raises(PreconditionError):
        FiniteTableOracle([[0, 1], [1, 0]], [0])  # identity as generator
    table4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    with pytest.raises(PreconditionError):
        FiniteTableOracle(table4, [2])  # <2> is a proper subgroup of Z/4
    with pytest.raises(PreconditionError, match="do not generate"):
        FgAbelianOracle(0, [4], [(2,)])  # the same subgroup, as exponent vectors
    assert FgAbelianOracle(0, [6], [(2,), (3,)]).order() == 6  # 2 and 3 generate Z/6
    # decided by arithmetic, not by a search: orders far past the ball cap build at once
    assert FgAbelianOracle(0, [10**12], [(3,)]).order() == 10**12
    assert FgAbelianOracle(0, [1000003, 1000003], [(1, 0), (1, 1)]).order() == 1000003**2
    with pytest.raises(PreconditionError, match="do not generate"):
        FgAbelianOracle(0, [10**12], [(2,)])


@pytest.mark.parametrize("torsion", [(4,), (6,), (2, 2), (2, 4), (3, 3)])
def test_finite_abelian_generation_matches_the_closure(torsion):
    """Explicit generators are accepted exactly when their closure is the whole group."""
    group = list(itertools.product(*(range(m) for m in torsion)))
    zero = group[0]
    for k in (1, 2):
        for gens in itertools.combinations(group[1:], k):
            closure, grown = set(), {zero}
            while grown != closure:
                closure = grown
                grown = closure | {tuple((a + b) % m for a, b, m in zip(x, g, torsion))
                                   for x in closure for g in gens}
            if len(closure) == len(group):
                assert FgAbelianOracle(0, torsion, gens).order() == len(group)
            else:
                with pytest.raises(PreconditionError, match="do not generate"):
                    FgAbelianOracle(0, torsion, gens)


def test_bad_table_rejected():
    with pytest.raises(PreconditionError):
        FiniteTableOracle([[0, 1], [0, 1]], [1])  # rows not permutations


def test_associativity_is_checked_on_every_triple():
    """Light's test on the steps decides associativity exactly, also past 40 elements."""
    assert cyclic_table(200).order() == 200
    assert s4_table().n == 24
    with pytest.raises(PreconditionError, match=r"not associative at \(2, 1, 5\)"):
        FiniteTableOracle(swapped_intercalate_table(), [1])


def test_as_word_roundtrip():
    """Each word multiplies back to its element, and looking it up leaves the oracle as it was."""
    for oracle in all_oracles():
        state = dict(vars(oracle))
        for x in ball(oracle, 3).elements:
            assert _evaluate(oracle, oracle.as_word(x)) == x
        assert vars(oracle) == state


@pytest.mark.parametrize("oracle", all_oracles(), ids=lambda o: o.kind)
def test_relations_hold_in_the_oracle(oracle):
    """Both sides of every relation name the same element, and listing them keeps no state."""
    state = dict(vars(oracle))
    for u, v in oracle.relations():
        assert _evaluate(oracle, u) == _evaluate(oracle, v), (u, v)
    assert vars(oracle) == state


@pytest.mark.parametrize("torsion", [(4,), (6,), (2, 2), (2, 4), (3, 3)])
def test_finite_abelian_relations_span_every_relation(torsion):
    """The exponent vectors c of the relation words w = e have |det| = |G|.

    Every c lies in the lattice L of sum c_i g_i = 0, whose index in Z^k is |G|,
    so they span L: with the commutators they present G.
    """
    group = list(itertools.product(*(range(m) for m in torsion)))
    for k in (1, 2):
        for gens in itertools.combinations(group[1:], k):
            try:
                oracle = FgAbelianOracle(0, torsion, gens)
            except PreconditionError:
                continue  # a proper subgroup
            rows = [[u.count(i) - u.count(-i) for i in range(1, k + 1)]
                    for u, v in oracle.relations() if v == ()]
            assert len(rows) == k
            assert round(abs(np.linalg.det(np.array(rows, dtype=float)))) == len(group)


def test_as_word_outside_the_generated_subgroup(monkeypatch):
    """An infinite search stops at the cap and names its radius; a finite one saturates."""
    monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 1000)
    with pytest.raises(ResourceLimitError, match="cap 1000 exceeded at radius"):
        FgAbelianOracle(1, [], [(2,)]).as_word((1,))
    with pytest.raises(PreconditionError, match="not generated"):
        FgAbelianOracle(1, [2], [(0, 1)]).as_word((1, 0))


def test_element_string_roundtrip():
    for oracle in all_oracles():
        for x in ball(oracle, 2).elements:
            assert oracle.element_from_str(oracle.element_to_str(x)) == x
