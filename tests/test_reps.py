"""Vector arithmetic, representation actions, subspaces, and amalgamation."""

import math

import numpy as np
import pytest

from unirep import (
    DirectSum,
    Embedding,
    FgAbelianOracle,
    FiniteTableOracle,
    KindMismatchError,
    MatrixRep,
    Multiple,
    PreconditionError,
    Regular,
    ResourceLimitError,
    SparseVector,
    Subspace,
    Trivial,
    amalgamate,
    ball,
    delta,
    embed,
    gram,
    inner,
    orthonormalize,
)
from unirep.reps import OrbitBlock
from unirep.vectors import gram_schmidt, to_dense
from util import (
    character_action,
    cyclic_table,
    f2_oracle,
    phase,
    psl2z_rewriting,
    random_elements,
    random_matrix_rep,
    random_sparse,
    random_unitary,
    s4_table,
    z2_oracle,
    z2_rewriting,
    z_on_2_3,
    z_oracle,
)


def test_regular_shift_examples():
    Z = z_oracle()
    reg = Regular(Z)
    assert reg.apply((1,), delta(reg, 0, (0,))).entries == {(0, (1,)): 1.0 + 0j}
    F2 = f2_oracle()
    regf = Regular(F2)
    moved = regf.apply((1,), delta(regf, 0, (2,)))
    assert moved.entries == {(0, (1, 2)): 1.0 + 0j}


def test_regular_shift_checks_vector_keys():
    regf = Regular(f2_oracle())
    with pytest.raises(KindMismatchError):
        regf.apply((1,), delta(regf, 0, (1, -1)))  # not freely reduced


def test_trivial_identity_action():
    triv = Trivial(3)
    v = SparseVector(triv, {(0, 0): 1, (0, 1): 2j})
    w = triv.apply((5,), v)
    assert w.entries == v.entries


def test_inner_examples():
    Z = z_oracle()
    reg = Regular(Z)
    d0, d1 = delta(reg, 0, (0,)), delta(reg, 0, (1,))
    assert inner(d0, d0) == 1
    assert inner(d0, d1) == 0
    u = (d0 + d1) * (1 / math.sqrt(2))
    assert abs(inner(reg.apply((1,), u), u) - 0.5) < 1e-15


def test_inner_conjugate_symmetry_random():
    Z = z_oracle()
    reg = Regular(Z)
    rng = np.random.default_rng(3)
    keys = [(0, (k,)) for k in range(-5, 6)]
    for _ in range(50):
        u = random_sparse(rng, reg, keys, 4)
        v = random_sparse(rng, reg, keys, 4)
        assert abs(inner(u, v) - inner(v, u).conjugate()) < 1e-12


@pytest.mark.parametrize("make", [
    lambda: (Regular(z_oracle()), z_oracle(), 1e-15),
    lambda: (Regular(f2_oracle()), f2_oracle(), 1e-15),
    lambda: (random_matrix_rep(np.random.default_rng(5), f2_oracle(), 3), f2_oracle(), 1e-8),
])
def test_unitarity_and_homomorphism(make):
    rep, oracle, tol = make()
    rng = np.random.default_rng(11)
    if isinstance(rep, Regular):
        keys = [(0, x) for x in ball(oracle, 3).elements]
    else:
        keys = [(0, i) for i in range(rep.dim)]
    for _ in range(40):
        g, h = random_elements(oracle, rng, 2)
        u = random_sparse(rng, rep, keys, 3)
        v = random_sparse(rng, rep, keys, 3)
        # unitarity
        assert abs(inner(rep.apply(g, u), rep.apply(g, v)) - inner(u, v)) < tol * 10
        # homomorphism
        gh = oracle.multiply(g, h)
        lhs = rep.apply(gh, v)
        rhs = rep.apply(g, rep.apply(h, v))
        assert (lhs - rhs).norm() < tol * 10


def test_direct_sum_orthogonal_blocks():
    Z = z_oracle()
    reg = Regular(Z)
    triv = Trivial(2)
    big = DirectSum([reg, triv])
    u = embed(big, 0, delta(reg, 0, (3,)))
    v = embed(big, 1, delta(triv, 0, 1))
    assert inner(u, v) == 0
    assert abs((u + v).norm2() - (u.norm2() + v.norm2())) < 1e-15


def test_multiple_one_copy_matches_base():
    Z = z_oracle()
    reg = Regular(Z)
    one = Multiple(reg, 1)
    rng = np.random.default_rng(2)
    keys = [(0, (k,)) for k in range(-4, 5)]
    for _ in range(100):
        g = random_elements(Z, rng, 1)[0]
        v = random_sparse(rng, reg, keys, 3)
        moved_base = reg.apply(g, v)
        moved_copy = one.apply(g, embed(one, 0, v))
        assert moved_copy.entries == embed(one, 0, moved_base).entries


def test_infinite_multiple_is_lazy():
    Z = z_oracle()
    stack = Multiple(Regular(Z), None)
    v = delta(stack, 1000, (7,))
    w = stack.apply((1,), v)
    assert w.entries == {(1000, (8,)): 1.0 + 0j}


def test_infinite_part_must_come_last():
    Z = z_oracle()
    with pytest.raises(PreconditionError):
        DirectSum([Multiple(Regular(Z), None), Trivial(1)])
    with pytest.raises(PreconditionError):
        Multiple(Multiple(Regular(Z), None), 2)


def test_copy_index_out_of_range():
    Z = z_oracle()
    two = Multiple(Trivial(1), 2)
    v = SparseVector(two, {(5, 0): 1.0})
    with pytest.raises(PreconditionError):
        two.apply((0,), v)


def test_matrix_rep_validation():
    Z = z_oracle()
    with pytest.raises(PreconditionError):
        MatrixRep(Z, [np.array([[2.0]])])  # not unitary


def test_matrix_rep_finite_table_check():
    Z3 = cyclic_table(3)
    w = np.exp(2j * math.pi / 3)
    MatrixRep(Z3, [np.array([[w]])])  # cube root of unity respects the table
    with pytest.raises(PreconditionError):
        MatrixRep(Z3, [np.array([[1j]])])  # i has order 4


@pytest.mark.parametrize("oracle, matrices", [
    # g1 = 2 and g2 = 3 satisfy 3 g1 = 2 g2 in Z, yet A^3 = diag(-i, 1) and B^2 = 1
    (z_on_2_3(), [np.diag([1j, 1]), np.diag([1, -1])]),
    # g1 = 1 and g2 = 2 satisfy g2 = 2 g1 in Z/4, yet A^2 = -1 and B = 1
    (FgAbelianOracle(0, [4], [(1,), (2,)]), [np.array([[1j]]), np.array([[1]])]),
])
def test_matrix_rep_rejects_matrices_off_the_presentation(oracle, matrices):
    """Commutators and generator orders alone let these through; the full presentation does not."""
    with pytest.raises(PreconditionError, match="relation .* violated"):
        MatrixRep(oracle, matrices)


def test_matrix_rep_accepts_actions_through_the_presentation():
    """A = w^2, B = w^3 for a unitary w acts as Z on {2, 3}, and g -> w^g everywhere."""
    w = random_unitary(np.random.default_rng(2), 3)
    rep = MatrixRep(z_on_2_3(), [w @ w, w @ w @ w])
    for k in range(-4, 5):
        np.testing.assert_allclose(rep.matrix_of((k,)), np.linalg.matrix_power(w, k), atol=1e-12)
    MatrixRep(FgAbelianOracle(0, [4], [(1,), (2,)]), [np.array([[1j]]), np.array([[-1]])])


def _permutations(oracle, act):
    """The permutation matrix of x -> act(g, x) on the table's basis, for each element g."""
    n = oracle.n
    mats = []
    for g in range(n):
        P = np.zeros((n, n), dtype=complex)
        P[[act(g, x) for x in range(n)], range(n)] = 1
        mats.append(P)
    return mats


@pytest.mark.parametrize("oracle", [cyclic_table(2), cyclic_table(7), s4_table(),
                                    FiniteTableOracle(cyclic_table(12).table, [3, 4, 4])],
                         ids=["Z2", "Z7", "S4", "Z12-on-3-4-4"])
def test_table_left_regular_matrices_are_accepted(oracle):
    """The left-regular action is a representation; each element's matrix is its permutation."""
    left = _permutations(oracle, lambda g, x: oracle.table[g][x])
    rep = MatrixRep(oracle, [left[g] for g in oracle.generators])
    for x in range(oracle.n):
        assert np.array_equal(rep.matrix_of(x), left[x])


def test_table_rejects_matrices_off_the_table():
    """Matrices of the right orders are refused once a product of them has the wrong one.

    S4's transposition t and 4-cycle c have t c of order 3. A 4-cycle d with t d of
    order 2 keeps t^2 = d^4 = e and breaks the rest. A repeated generator must
    repeat its matrix too.
    """
    S4 = s4_table()
    left = _permutations(S4, lambda g, x: S4.table[g][x])

    def order(g):
        x, k = g, 1
        while x != S4.identity():
            x, k = S4.table[x][g], k + 1
        return k

    t, c = S4.generators
    d = next(g for g in range(S4.n) if order(g) == 4 and order(S4.table[t][g]) == 2)
    assert order(S4.table[t][c]) == 3
    with pytest.raises(PreconditionError, match="violated"):
        MatrixRep(S4, [left[t], left[d]])
    Z12 = FiniteTableOracle(cyclic_table(12).table, [3, 4, 4])
    left = _permutations(Z12, lambda g, x: Z12.table[g][x])
    with pytest.raises(PreconditionError, match="violated"):
        MatrixRep(Z12, [left[3], left[4], left[3]])


def test_psl2z_matrices_follow_the_rewriting_rules():
    """On a -> A, b -> B, PSL(2, Z) takes an involution A and a B of order 3, not of order 4.

    The rule A -> a has the left side (-1,), a letter the generator map never uses; it
    is read as the adjoint of A.
    """
    oracle = psl2z_rewriting()
    A = np.array([[0, 1], [1, 0]])
    w = np.exp(2j * math.pi / 3)
    B = np.diag([1, w])
    rep = MatrixRep(oracle, [A, B])
    np.testing.assert_allclose(rep.matrix_of((1, 2, 1, -2)), A @ B @ A @ B.conj(), atol=1e-12)
    with pytest.raises(PreconditionError, match="violated"):
        MatrixRep(oracle, [A, np.diag([1, 1j])])
    with pytest.raises(PreconditionError, match="violated"):
        MatrixRep(oracle, [np.diag([1, 1j]), B])


def test_table_matrices_built_along_the_ball_match_words():
    """Every element's matrix, built along its ball's tree, equals its word's product."""
    n = 40
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    oracle = FiniteTableOracle(table, [1, 3])
    w = np.exp(2j * math.pi * np.array([1, 7]) / n)
    rep = MatrixRep(oracle, [np.diag(w), np.diag(w ** 3)])
    for x in range(n):
        word = oracle.as_word(x)
        np.testing.assert_allclose(rep.matrix_of(x), rep.evaluate_word(word), atol=1e-12)
        np.testing.assert_allclose(rep.matrix_of(x), np.diag(w ** x), atol=1e-12)


def test_matrix_of_on_explicit_generators_matches_words():
    """With no closed-form words, a search ball's tree gives every element's matrix."""
    oracle = FgAbelianOracle(2, [], [(1, 0), (1, 1)])
    rep = MatrixRep(oracle, [np.diag([1j, 1]), np.diag([np.exp(0.3j), -1])])
    for x in ball(oracle, 6).elements:
        word = oracle.as_word(x)
        np.testing.assert_allclose(rep.matrix_of(x), rep.evaluate_word(word), atol=1e-12)


def _commuting_pair(rng, d):
    return character_action(rng, d, lambda r: (phase(r), phase(r)))


ORBIT_GROUPS = {
    "F2": (f2_oracle, lambda rng, d: [random_unitary(rng, d) for _ in range(2)]),
    "Z2-abelian": (z2_oracle, _commuting_pair),
    "Z2-rewriting": (z2_rewriting, _commuting_pair),
    "Z6-table": (lambda: cyclic_table(6),
                 lambda rng, d: character_action(rng, d, lambda r: (phase(r, 6),))),
}
ORBIT_TREES = {
    "matrix": lambda leaf: leaf(),
    "sum": lambda leaf: DirectSum([leaf(), Trivial(2), leaf()]),
    "multiple": lambda leaf: Multiple(leaf(), 2),
}


@pytest.mark.parametrize("tree", ORBIT_TREES)
@pytest.mark.parametrize("group", ORBIT_GROUPS)
def test_orbit_block_matches_apply(group, tree):
    """Each stacked matrix is a fresh leaf's ``matrix_of``, bit for bit; each row is ``apply``'s."""
    make_oracle, make_matrices = ORBIT_GROUPS[group]
    oracle = make_oracle()
    rng = np.random.default_rng(11)
    pi = ORBIT_TREES[tree](lambda: MatrixRep(oracle, make_matrices(rng, 3)))
    B = ball(oracle, 3)
    block = OrbitBlock(pi, B)
    leaves = {id(leaf): leaf for leaf in map(pi.resolve, range(pi.leaf_count()))}
    for leaf in leaves.values():
        if isinstance(leaf, MatrixRep):
            fresh = MatrixRep(oracle, leaf.matrices)
            stack = leaf.ball_stack(B)
            for i, g in enumerate(B.elements):
                assert np.array_equal(stack[i], fresh.matrix_of(g)), g
    vectors = [random_sparse(rng, pi, pi.basis_keys(), 5) for _ in range(2)]
    rows = block.rows(vectors)
    assert rows.shape == (len(B), 2, pi.total_dim())
    for i, g in enumerate(B.elements):
        expected = to_dense([pi.apply(g, v) for v in vectors], block.index)
        np.testing.assert_allclose(rows[i], expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(OrbitBlock(pi).rows(vectors)[0], to_dense(vectors, block.index))


def test_orbit_block_rejects_a_key_off_the_coordinates():
    rep = random_matrix_rep(np.random.default_rng(0), f2_oracle(), 3)
    with pytest.raises(KindMismatchError, match="not a coordinate"):
        OrbitBlock(rep, ball(f2_oracle(), 1)).rows([delta(rep, 0, 3)])


def test_vector_space_mismatch():
    Z = z_oracle()
    rega, regb = Regular(Z), Regular(f2_oracle())
    with pytest.raises(KindMismatchError):
        inner(delta(rega, 0, (0,)), delta(regb, 0, ()))
    with pytest.raises(KindMismatchError):
        rega.apply((1,), delta(regb, 0, ()))


def test_structural_space_equality():
    Z = z_oracle()
    assert Regular(Z) == Regular(z_oracle())
    v = delta(Regular(Z), 0, (0,))
    assert inner(v, delta(Regular(z_oracle()), 0, (0,))) == 1


def test_subspace_validation_and_projection():
    Z = z_oracle()
    reg = Regular(Z)
    d0, d1 = delta(reg, 0, (0,)), delta(reg, 0, (1,))
    with pytest.raises(PreconditionError):
        Subspace(reg, [d0, d0])
    basis = orthonormalize([d0 + d1, d0])
    S = Subspace(reg, basis)
    v = 3 * d0 + 2j * d1
    p = S.project(v)
    assert (S.project(p) - p).norm() < 1e-12
    assert abs(v.norm2() - (p.norm2() + (v - p).norm2())) < 1e-10


def _dense_rows(vectors, keys):
    col = {k: i for i, k in enumerate(keys)}
    X = np.zeros((len(vectors), len(keys)), dtype=complex)
    for i, v in enumerate(vectors):
        for k, amp in v.entries.items():
            X[i, col[k]] = amp
    return X


def _svd_projector(X):
    """Projector onto the row span of X, rank-revealing via the SVD."""
    _u, s, vh = np.linalg.svd(X, full_matrices=False)
    V = vh[s > 1e-10]
    return V.T @ V.conj(), len(V)


@pytest.mark.parametrize("seed", range(6))
def test_orthonormalize_matches_svd_span_on_rank_deficient_families(seed):
    rng = np.random.default_rng(seed)
    Z = z_oracle()
    space = DirectSum([Regular(Z), Trivial(3), Regular(Z)])
    keys = ([(0, (k,)) for k in range(-3, 4)] + [(1, i) for i in range(3)]
            + [(2, (k,)) for k in range(-2, 3)])
    rank = int(rng.integers(1, 5))
    spanning = [random_sparse(rng, space, keys, 4) for _ in range(rank)]
    family = [SparseVector(space, {})]
    for _ in range(rank + 4):
        v = SparseVector(space, {})
        for b in spanning:
            v = v + complex(rng.standard_normal(), rng.standard_normal()) * b
        family.append(v)
    family.insert(2, family[1])
    basis = orthonormalize(family)
    Q = _dense_rows(basis, keys)
    P_ref, dim_ref = _svd_projector(_dense_rows(family, keys))
    assert len(basis) == dim_ref
    assert np.max(np.abs(Q.conj() @ Q.T - np.eye(len(basis)))) < 1e-12
    assert np.max(np.abs(Q.T @ Q.conj() - P_ref)) < 1e-12


def test_gram_schmidt_cap_counts_kept_rows_only():
    """Keeping a (cap + 1)-th row raises; seed rows count, dropped rows do not."""
    e = np.eye(3, dtype=complex)
    X = np.array([e[0], 2 * e[0], e[1], e[0] + e[1], e[2]])
    assert len(gram_schmidt(X[:4], cap=2)) == 2  # the two dependent rows are dropped
    assert len(gram_schmidt(X, cap=3)) == 3
    with pytest.raises(ResourceLimitError, match="dimension cap 2 exceeded"):
        gram_schmidt(X, cap=2)
    seed = e[:2]
    assert np.array_equal(gram_schmidt(X[:4], seed=seed, cap=2), seed)
    assert len(gram_schmidt(X, seed=seed, cap=3)) == 3
    with pytest.raises(ResourceLimitError, match="dimension cap 2 exceeded"):
        gram_schmidt(X, seed=seed, cap=2)


def _subspace_cases():
    rng = np.random.default_rng(11)
    Z = z_oracle()
    reg = Regular(Z)
    reg_keys = [(0, (k,)) for k in range(-3, 4)]
    yield reg, reg_keys[2:5], reg_keys
    mat = random_matrix_rep(rng, f2_oracle(), 6)
    mat_keys = [(0, i) for i in range(6)]
    yield mat, mat_keys[:3], mat_keys


@pytest.mark.parametrize("space, basis_keys, all_keys", list(_subspace_cases()))
def test_subspace_coords_and_projection_match_inner_formula(space, basis_keys, all_keys):
    rng = np.random.default_rng(12)
    basis = orthonormalize([random_sparse(rng, space, basis_keys, 2) for _ in range(2)])
    S = Subspace(space, basis)
    # keys outside the basis support as well as inside it
    v = random_sparse(rng, space, all_keys, 6)
    assert any(k not in basis_keys for k in v.entries)
    c_ref = np.array([inner(v, b) for b in basis])
    assert np.max(np.abs(S.coords(v) - c_ref)) < 1e-12
    p_ref = SparseVector(space, {})
    for coeff, b in zip(c_ref, basis):
        p_ref = p_ref + coeff * b
    assert (S.from_coords(c_ref) - p_ref).norm() < 1e-12
    assert (S.project(v) - p_ref).norm() < 1e-12
    assert (S.residual(v) - (v - p_ref)).norm() < 1e-12


def test_embedding_isometry_check():
    Z = z_oracle()
    reg = Regular(Z)
    pi = Trivial(1)
    with pytest.raises(PreconditionError):
        Embedding(pi, reg, [2 * delta(reg, 0, (0,))])
    # two unit images that are not orthogonal
    d0 = delta(reg, 0, (0,))
    tilted = (d0 + delta(reg, 0, (1,))) * (1 / math.sqrt(2))
    with pytest.raises(PreconditionError, match=r"pair \(1, 0\)"):
        Embedding(Trivial(2), reg, [d0, tilted])


def amalgam_gram_defect(oracle, rep, emb, amalgam, radius=3):
    F = ball(oracle, radius).elements
    basis = rep.canonical_basis()
    before = gram(rep, basis, F, oracle=oracle)
    after = gram(amalgam, [emb(b) for b in basis], F, oracle=oracle)
    return max(float(np.max(np.abs(before.M[g] - after.M[g]))) for g in F)


def test_amalgamate_identity_acts_as_common_part():
    Z3 = cyclic_table(3)
    reg = Regular(Z3)
    ident = Embedding.identity(reg)
    result = amalgamate(reg, ident, ident)
    assert result.rep.total_dim() == 3
    rng = np.random.default_rng(4)
    keys = [(0, x) for x in range(3)]
    for _ in range(20):
        v = random_sparse(rng, reg, keys, 2)
        g = random_elements(Z3, rng, 1)[0]
        lhs = result.embed_first(reg.apply(g, v))
        rhs = result.rep.apply(g, result.embed_first(v))
        assert (lhs - rhs).norm() < 1e-10


def test_amalgamate_canonical_summands():
    F2 = f2_oracle()
    rng = np.random.default_rng(9)
    pi = random_matrix_rep(rng, F2, 2)
    sigma = random_matrix_rep(rng, F2, 1)
    tau = random_matrix_rep(rng, F2, 2)
    rho = DirectSum([pi, sigma])
    eta = DirectSum([pi, tau])
    result = amalgamate(pi, Embedding.into_summand(rho, 0), Embedding.into_summand(eta, 0))
    assert result.rep.total_dim() == 2 + 1 + 2
    assert amalgam_gram_defect(F2, rho, result.embed_first, result.rep) < 1e-10
    assert amalgam_gram_defect(F2, eta, result.embed_second, result.rep) < 1e-10


def test_amalgamate_invariant_line_dimension():
    Z2t = cyclic_table(2)
    reg = Regular(Z2t)
    pi = Trivial(1)
    inv = (delta(reg, 0, 0) + delta(reg, 0, 1)) * (1 / math.sqrt(2))
    emb = Embedding(pi, reg, [inv])
    result = amalgamate(pi, emb, emb)
    # dimensions add: dim pi + (dim rho - dim pi) + (dim eta - dim pi)
    assert result.rep.total_dim() == 1 + (2 - 1) + (2 - 1)
    assert amalgam_gram_defect(Z2t, reg, result.embed_first, result.rep) < 1e-10

    both = DirectSum([reg, Trivial(1)])
    emb2 = Embedding(pi, both, [embed(both, 0, inv)])
    result2 = amalgamate(pi, emb2, emb2)
    assert result2.rep.total_dim() == 1 + (3 - 1) + (3 - 1)
    assert amalgam_gram_defect(Z2t, both, result2.embed_first, result2.rep) < 1e-10


def test_amalgamate_rejects_noninvariant_embedding():
    Z3 = cyclic_table(3)
    reg = Regular(Z3)
    pi = Trivial(1)
    bad = Embedding(pi, reg, [delta(reg, 0, 0)])
    inv = sum((delta(reg, 0, k) for k in range(1, 3)), delta(reg, 0, 0)) * (1 / math.sqrt(3))
    good = Embedding(pi, reg, [inv])
    with pytest.raises(PreconditionError, match="worst generator"):
        amalgamate(pi, bad, good)


def test_amalgamate_requires_finite_dimensions():
    Z = z_oracle()
    reg = Regular(Z)
    pi = Trivial(1)
    emb = Embedding(pi, reg, [delta(reg, 0, (0,))])
    with pytest.raises(PreconditionError):
        amalgamate(pi, emb, emb)
