"""Gram functions, discrepancy, witness search, box witnesses, and transfer."""

import math
from fractions import Fraction

import numpy as np
import pytest

from unirep import (
    DirectSum,
    FreeGroupOracle,
    Multiple,
    PreconditionError,
    Regular,
    ResourceLimitError,
    SparseVector,
    Subspace,
    Trivial,
    UnsupportedKindError,
    ball,
    ball_delta_basis,
    delta,
    discrepancy,
    embed,
    folner_witness,
    gram,
    inner,
    search_witness,
    shift_defect_exact,
    transfer_witness,
    trivial_target,
)
from unirep.containment import GramNonzeros, _gram_tensor, _objective_and_gradient
from util import (
    f2_oracle,
    random_elements,
    random_matrix_rep,
    random_sparse,
    z2_oracle,
    z_oracle,
)


def test_gram_trivial_rep_constant_in_g():
    Z = z_oracle()
    triv = Trivial(2)
    v1 = SparseVector(triv, {(0, 0): 1.0})
    v2 = SparseVector(triv, {(0, 0): 0.5, (0, 1): 0.5j})
    F = [(0,), (1,), (2,)]
    gf = gram(triv, [v1, v2], F, oracle=Z)
    for g in F[1:]:
        assert np.allclose(gf.M[g], gf.M[F[0]])


def test_gram_regular_z_examples():
    Z = z_oracle()
    reg = Regular(Z)
    d0 = delta(reg, 0, (0,))
    gf = gram(reg, [d0], [(-1,), (0,), (1,)])
    assert gf.M[(1,)][0, 0] == 0
    assert gf.M[(0,)][0, 0] == 1
    u = (d0 + delta(reg, 0, (1,))) * (1 / math.sqrt(2))
    gf2 = gram(reg, [u], [(1,)])
    assert abs(gf2.M[(1,)][0, 0] - 0.5) < 1e-15


def test_gram_symmetry_invariants_random():
    Z = z_oracle()
    reg = Regular(Z)
    rng = np.random.default_rng(1)
    keys = [(0, (k,)) for k in range(-4, 5)]
    F = [(0,), (1,), (-1,), (2,), (-2,)]
    for _ in range(25):
        vecs = [random_sparse(rng, reg, keys, 3) for _ in range(3)]
        gf = gram(reg, vecs, F)
        for g in F:
            ginv = Z.invert(g)
            assert np.max(np.abs(gf.M[ginv] - gf.M[g].conj().T)) < 1e-8
        E = gf.M[(0,)]
        assert np.min(np.linalg.eigvalsh((E + E.conj().T) / 2)) > -1e-8


def test_discrepancy_reflexivity_exact_zero():
    Z = z_oracle()
    reg = Regular(Z)
    rng = np.random.default_rng(2)
    keys = [(0, (k,)) for k in range(-3, 4)]
    for _ in range(20):
        vecs = [random_sparse(rng, reg, keys, 3) for _ in range(2)]
        gf = gram(reg, vecs, [(0,), (1,), (-1,)])
        assert discrepancy(gf, reg, vecs) == 0.0


def test_discrepancy_folner_example():
    Z = z_oracle()
    reg = Regular(Z)
    target = trivial_target(Z, F=[(1,)])
    N = 10
    w = SparseVector(reg, {(0, (k,)): 1 / math.sqrt(N) for k in range(N)})
    assert abs(discrepancy(target, reg, [w]) - 1 / N) < 1e-15


def test_discrepancy_zero_witness():
    Z = z_oracle()
    reg = Regular(Z)
    target = trivial_target(Z)
    zero_w = SparseVector(reg, {})
    assert discrepancy(target, reg, [zero_w]) == target.max_abs() == 1.0


def test_discrepancy_monotone_in_F():
    Z = z_oracle()
    reg = Regular(Z)
    rng = np.random.default_rng(3)
    keys = [(0, (k,)) for k in range(-3, 4)]
    F_big = [(0,), (1,), (-1,), (2,)]
    for _ in range(25):
        vecs = [random_sparse(rng, reg, keys, 2)]
        wit = [random_sparse(rng, reg, keys, 2)]
        gf_big = gram(reg, vecs, F_big)
        for cut in range(1, len(F_big)):
            F_small = F_big[:cut]
            gf_small = gram(reg, vecs, F_small)
            assert discrepancy(gf_small, reg, wit) <= discrepancy(gf_big, reg, wit) + 1e-15


def test_direct_sum_monotonicity():
    Z = z_oracle()
    reg = Regular(Z)
    sigma = Trivial(2)
    big = DirectSum([reg, sigma])
    rng = np.random.default_rng(4)
    keys = [(0, (k,)) for k in range(-3, 4)]
    target = trivial_target(Z)
    for _ in range(25):
        wit = [random_sparse(rng, reg, keys, 3)]
        d_small = discrepancy(target, reg, wit)
        d_big = discrepancy(target, big, [embed(big, 0, wit[0])])
        assert abs(d_small - d_big) < 1e-12


def _dense(tensor):
    """The ``(|F|, K, K)`` array of a Gram tensor's nonzeros."""
    T = np.zeros(tensor.shape, dtype=complex)
    T[tensor.g, tensor.i, tensor.j] = tensor.value
    return T


def _nonzeros(T):
    """A dense ``(|F|, K, K)`` stack as the nonzeros the search reads."""
    g, i, j = np.nonzero(T)
    return GramNonzeros(g, i, j, T[g, i, j], T.shape)


def _dense_objective_and_gradient(C, T, targets):
    """Reference: the objective as batched products over the dense ``(|F|, K, K)`` stack."""
    CT = C @ T
    D = CT @ C.conj().T - targets
    absD = np.abs(D)
    Dh = D.conj().transpose(0, 2, 1)
    G = np.sum(Dh @ CT, axis=0) + np.sum(T @ (C.conj().T @ Dh), axis=0).conj().T
    return float(np.sum(absD ** 2)), 2.0 * G, float(np.max(absD))


@pytest.mark.parametrize("kind", ["regular", "matrix"])
def test_gram_tensor_matches_inner_formula(kind):
    rng = np.random.default_rng(6)
    F2 = f2_oracle()
    if kind == "regular":
        rep = Regular(F2)
        keys = [(0, x) for x in ball(F2, 2).elements]
    else:
        rep = random_matrix_rep(rng, F2, 5)
        keys = [(0, i) for i in range(5)]
    vectors = [random_sparse(rng, rep, keys, 3) for _ in range(4)]
    F = ball(F2, 1).elements
    tensor = _gram_tensor(rep, vectors, F)
    assert tensor.shape == (len(F), 4, 4)
    assert np.all(tensor.value != 0) and np.all(np.diff(tensor.g) >= 0)
    T = _dense(tensor)
    for t, g in enumerate(F):
        moved = [rep.apply(g, v) for v in vectors]
        ref = np.array([[inner(mv, w) for w in vectors] for mv in moved])
        assert np.max(np.abs(T[t] - ref)) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    K, n = 4, 2
    tensors = [rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K)) for _ in range(2)]
    tensors = [(T + T.conj().T) / 2 for T in tensors]
    targets = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
    objective = _objective_and_gradient(_nonzeros(np.array(tensors)), targets)
    C = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
    f0, G, _ = objective(C)
    h = 1e-7
    for i in range(n):
        for k in range(K):
            for direction in (1.0, 1.0j):
                E = np.zeros_like(C)
                E[i, k] = direction
                f_plus, _, _ = objective(C + h * E)
                numeric = (f_plus - f0) / h
                analytic = float(np.real(np.sum(G.conj() * E)))
                assert abs(numeric - analytic) < 1e-4 * (1 + abs(analytic))


def _objective_pair(rep, basis, targets, F, rng):
    """Sparse and dense objective values at one random C over ``basis``."""
    tensor = _gram_tensor(rep, basis, F)
    n, K = targets.shape[1], len(basis)
    C = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
    return (_objective_and_gradient(tensor, targets)(C),
            _dense_objective_and_gradient(C, _dense(tensor), targets))


@pytest.mark.parametrize("n", [1, 2])
def test_objective_equals_dense_reference_on_delta_basis(n):
    """Each T_g of a ball delta basis is a partial permutation: the values agree bit for bit."""
    rng = np.random.default_rng(7)
    F2 = f2_oracle()
    reg = Regular(F2)
    F = trivial_target(F2).F
    targets = rng.standard_normal((len(F), n, n)) + 1j * rng.standard_normal((len(F), n, n))
    (f, G, worst), (f_ref, G_ref, worst_ref) = _objective_pair(
        reg, ball_delta_basis(reg, 3).basis, targets, F, rng)
    assert f == f_ref and worst == worst_ref
    assert np.array_equal(G, G_ref)


def test_objective_matches_dense_reference_on_matrix_basis():
    """On a matrix representation every T_g is dense; the sums agree to rounding."""
    rng = np.random.default_rng(8)
    F2 = f2_oracle()
    rep = random_matrix_rep(rng, F2, 5)
    F = ball(F2, 1).elements
    targets = rng.standard_normal((len(F), 2, 2)) + 1j * rng.standard_normal((len(F), 2, 2))
    (f, G, worst), (f_ref, G_ref, worst_ref) = _objective_pair(
        rep, rep.canonical_basis(), targets, F, rng)
    assert abs(f - f_ref) <= 1e-12 * f_ref and abs(worst - worst_ref) <= 1e-12
    assert np.max(np.abs(G - G_ref)) <= 1e-12 * np.max(np.abs(G_ref))


def test_search_realizable_target():
    Z = z_oracle()
    reg = Regular(Z)
    u = (delta(reg, 0, (0,)) + delta(reg, 0, (1,))) * (1 / math.sqrt(2))
    target = gram(reg, [u], [(0,), (1,), (-1,)])
    basis = ball_delta_basis(reg, 3)
    report = search_witness(target, reg, basis, tol=1e-6, budget=2000, seed=0)
    assert report.converged and report.discrepancy <= 1e-6
    # the report's discrepancy must re-verify through the public path
    assert abs(discrepancy(target, reg, report.witnesses) - report.discrepancy) < 1e-12


def test_search_trivial_target_over_z_ball():
    Z = z_oracle()
    reg = Regular(Z)
    report = search_witness(trivial_target(Z), reg, ball_delta_basis(reg, 40),
                            tol=0.05, budget=1500, seed=0)
    assert report.converged and report.discrepancy <= 0.05


def certified_search_floor(rank, r):
    """Witnesses on the radius-r ball cannot beat (1-mu)/(1+mu).

    mu is the top eigenvalue of the ball-compressed averaged shift
    operator, computed from the exact radial three-term recurrence of the
    2k-regular tree; for a witness of squared norm x the identity entry
    deviates by |1-x| while some generator entry deviates by at least
    1 - mu*x, and the two bounds balance at x = 2/(1+mu).
    """
    d = 2 * rank
    a = [1 / math.sqrt(d)] + [math.sqrt(d - 1) / d] * (r - 1)
    J = np.zeros((r + 1, r + 1))
    for i, ai in enumerate(a):
        J[i, i + 1] = J[i + 1, i] = ai
    mu = float(np.linalg.eigvalsh(J)[-1])
    return (1 - mu) / (1 + mu)


def test_search_free_group_floor():
    F2 = f2_oracle()
    reg = Regular(F2)
    floor = certified_search_floor(2, 3)
    assert floor > 0.15  # frozen from the radial recurrence: 0.1538...
    basis = ball_delta_basis(reg, 3)
    for seed in range(4):
        report = search_witness(trivial_target(F2), reg, basis,
                                tol=0.05, budget=300, seed=seed, restarts=2)
        assert report.discrepancy >= floor
        assert not report.converged


def test_search_empty_basis_rejected():
    Z = z_oracle()
    reg = Regular(Z)
    with pytest.raises(PreconditionError):
        search_witness(trivial_target(Z), reg, Subspace(reg, []), tol=0.1)


def test_folner_finite_group_exact():
    from util import cyclic_table

    Z5 = cyclic_table(5)
    w = folner_witness(Z5, [1, 2], eps=1e-9)
    reg = Regular(Z5)
    for g in (1, 2):
        assert (reg.apply(g, w) - w).norm2() == 0.0


def test_folner_z_example():
    Z = z_oracle()
    w = folner_witness(Z, [(1,)], eps=0.2)
    assert len(w.entries) == 10
    support = [k for (_c, k) in w.entries.keys()]
    assert shift_defect_exact(Z, support, (1,)) == Fraction(1, 5)
    reg = Regular(Z)
    assert abs((reg.apply((1,), w) - w).norm2() - 0.2) < 1e-15


def test_folner_z2_example():
    Z2 = z2_oracle()
    F = [(1, 0), (0, 1)]
    w = folner_witness(Z2, F, eps=0.1)
    reg = Regular(Z2)
    N = round(math.sqrt(len(w.entries)))
    support = [k for (_c, k) in w.entries.keys()]
    for g in F:
        assert shift_defect_exact(Z2, support, g) == Fraction(2, N)
        assert (reg.apply(g, w) - w).norm2() <= 0.1 + 1e-12


def test_folner_longer_shifts_and_torsion():
    from unirep import FgAbelianOracle

    G = FgAbelianOracle(1, [4])
    w = folner_witness(G, [(3, 1), (1, 2)], eps=0.05)
    reg = Regular(G)
    for g in ((3, 1), (1, 2)):
        assert (reg.apply(g, w) - w).norm2() <= 0.05 + 1e-12


def test_folner_unsupported_kind():
    with pytest.raises(UnsupportedKindError):
        folner_witness(f2_oracle(), [(1,)], eps=0.5)


def test_folner_support_cap():
    Z2 = z2_oracle()
    with pytest.raises(ResourceLimitError):
        folner_witness(Z2, [(1, 0)], eps=1e-6, support_cap=100)


def transfer_space(oracle, pi=None, complement=None):
    parts = [pi if pi is not None else Trivial(1)]
    if complement is not None:
        parts.append(complement)
    parts.append(Multiple(Regular(oracle), None))
    return DirectSum(parts)


def test_transfer_targets_already_inside():
    Z = z_oracle()
    rho = transfer_space(Z)
    p = delta(rho, 1, (0,))
    t = delta(rho, 1, (3,)) * 0.5 + delta(rho, 0, 0) * 0.5
    report = transfer_witness(rho, [p], [t], [(0,), (1,), (-1,)], eps=0.05)
    assert report.discrepancy == 0.0
    assert (report.witnesses[1] - t).norm() == 0.0


def test_transfer_copy_relabel():
    Z = z_oracle()
    rho = transfer_space(Z)
    p = delta(rho, 1, (0,))
    t = delta(rho, 2, (5,))
    F = [(0,), (1,), (-1,)]
    report = transfer_witness(rho, [p], [t], F, eps=0.05)
    assert report.converged and report.discrepancy <= 0.05
    # fresh copies only: witness support is disjoint from the parameter copies
    for (leaf, _k) in report.witnesses[1].entries:
        assert leaf >= 3


def test_transfer_is_a_function_of_its_inputs():
    """Two calls on one rho put the frame in the same copies: right after the touched ones."""
    Z = z_oracle()
    rho = transfer_space(Z)
    p = delta(rho, 1, (0,))
    t = delta(rho, 2, (5,))
    F = [(0,), (1,), (-1,)]
    first = transfer_witness(rho, [p], [t], F, eps=0.05)
    second = transfer_witness(rho, [p], [t], F, eps=0.05)
    assert [w.entries for w in second.witnesses] == [w.entries for w in first.witnesses]
    leaves = {leaf for (leaf, _k) in second.witnesses[1].entries}
    assert min(leaves) == 3  # stack copies 0 and 1 are touched; leaf 0 is the common part


def test_transfer_mixed_parts_cross_terms_vanish():
    Z = z_oracle()
    comp = Trivial(1)
    rho = transfer_space(Z, complement=comp)
    # leaves: 0 = common trivial part, 1 = explicit complement, 2.. = stack
    p = delta(rho, 2, (0,))
    u_part = delta(rho, 0, 0) * 0.6
    w_part = delta(rho, 1, 0) * 0.8
    t = u_part + w_part
    F = [(0,), (1,), (-1,)]
    report = transfer_witness(rho, [p], [t], F, eps=0.05)
    assert report.converged and report.discrepancy <= 0.05
    witness = report.witnesses[1]
    kept = witness.restrict(lambda key: key[0] == 0)
    fresh = witness - kept
    assert (kept - u_part).norm() < 1e-12
    for g in F:
        assert abs(inner(rho.apply(g, kept), fresh)) == 0.0
        assert abs(inner(rho.apply(g, fresh), kept)) == 0.0


def test_transfer_unsupported_kind():
    F2 = f2_oracle()
    rho = transfer_space(F2)
    t = delta(rho, 2, (1,))
    with pytest.raises(UnsupportedKindError):
        transfer_witness(rho, [], [t], [()], eps=0.1)


def test_transfer_fresh_cap():
    Z = z_oracle()
    rho = transfer_space(Z)
    t = delta(rho, 2, (5,))
    with pytest.raises(ResourceLimitError):
        transfer_witness(rho, [], [t], [(0,), (1,), (-1,)], eps=0.05, fresh_cap=3)


def test_transfer_rejects_bad_shape():
    Z = z_oracle()
    reg = Regular(Z)
    with pytest.raises(PreconditionError):
        transfer_witness(DirectSum([Trivial(1), Multiple(reg, 2)]), [], [], [(0,)], 0.1)
