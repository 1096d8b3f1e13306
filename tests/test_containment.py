"""Gram functions, discrepancy, witness search, Perron witnesses, and transfer."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from unirep import (
    DirectSum,
    FreeGroupOracle,
    GramFunction,
    Multiple,
    PreconditionError,
    Regular,
    ResourceLimitError,
    SparseVector,
    Subspace,
    Trivial,
    ball,
    ball_delta_basis,
    delta,
    discrepancy,
    embed,
    folner_witness,
    gram,
    inner,
    min_defect,
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
    z2_rewriting,
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


F2_STARTS = {1: 0.33333, 2: 0.20378, 3: 0.15381, 4: 0.12852, 5: 0.11369}
Z2_STARTS = {2: 0.14286, 4: 0.05014, 8: 0.01531, 12: 0.00732}


@pytest.mark.parametrize("group, r, expected", [
    *(("F2", r, d) for r, d in F2_STARTS.items()),
    *(("Z2", r, d) for r, d in Z2_STARTS.items()),
])
def test_search_trivial_target_starts_from_the_perron_vector(group, r, expected):
    """At a tol below the span's certified lower bound the scaled Perron start is the answer.

    Its discrepancy is (1 - mu)/(1 + mu), the least on the span: at least the
    radial eigvalsh floor on F2, and sin^2/(1 + cos^2) at pi/(2r+2) on Z^2.
    """
    G = f2_oracle() if group == "F2" else z2_oracle()
    reg = Regular(G)
    report = search_witness(trivial_target(G), reg, ball_delta_basis(reg, r), tol=1e-3)
    assert report.iterations == 0 and not report.converged
    assert round(report.discrepancy, 5) == expected
    assert report.certified_floor <= report.certified_lower <= report.discrepancy
    assert report.discrepancy - report.certified_lower <= 1e-9
    if group == "F2":
        assert report.discrepancy - certified_search_floor(2, r) >= 0
        assert abs(report.certified_floor - (7 - 4 * math.sqrt(3))) <= 1e-15
    else:
        s2 = math.sin(math.pi / (2 * r + 2)) ** 2
        assert abs(report.discrepancy - s2 / (2 - s2)) <= 1e-9
        assert report.certified_floor == 0.0


def test_search_perron_start_within_tol_converges_without_a_gram_tensor(monkeypatch):
    """A start within tol is returned at once; the Gram tensor is built only for a descent."""
    def no_tensor(*args):
        raise AssertionError("the Gram tensor was built")

    monkeypatch.setattr("unirep.containment._gram_tensor", no_tensor)
    Z = z_oracle()
    reg = Regular(Z)
    report = search_witness(trivial_target(Z), reg, ball_delta_basis(reg, 40), tol=1e-3)
    assert report.converged and report.iterations == 0
    # the path of 81 points: mu = cos(pi/82), and (1 - mu)/(1 + mu) = tan^2(pi/164)
    assert abs(report.discrepancy - math.tan(math.pi / 164) ** 2) <= 1e-9


def test_search_descends_the_perron_start_when_tol_is_not_ruled_out():
    """With (1,)^2 in F the start matches [[1]] worse than the span allows; it is descended."""
    Z = z_oracle()
    reg = Regular(Z)
    target = trivial_target(Z, F=[(0,), (1,), (-1,), (2,)])
    basis = ball_delta_basis(reg, 6)
    start = search_witness(target, reg, basis, tol=1e-3)  # below the span's bound: no descent
    assert start.iterations == 0
    assert start.certified_lower < 0.7 * start.discrepancy
    tol = 0.7 * start.discrepancy
    report = search_witness(target, reg, basis, tol=tol, budget=200, restarts=1)
    assert report.iterations > 0 and report.converged and report.discrepancy <= tol
    assert 0 < report.certified_lower <= report.discrepancy
    assert report.certified_floor == 0.0


def test_search_other_targets_and_bases_keep_the_random_restarts():
    """An explicit copy of the ball's deltas, or a non-trivial target, draws every restart."""
    F2 = f2_oracle()
    reg = Regular(F2)
    basis = ball_delta_basis(reg, 2)
    explicit = Subspace(reg, basis.basis, validate=False)
    report = search_witness(trivial_target(F2), reg, explicit, tol=1e-3, budget=20, restarts=2)
    assert report.iterations > 0
    assert report.certified_lower is None and report.certified_floor is None
    half = GramFunction(F2, [(), (1,)], 1, {(): np.array([[1.0]]), (1,): np.array([[0.5]])})
    for target in (trivial_target(F2, F=[(), (1,), (-1,)]), half):  # a step left out; M != 1
        report = search_witness(target, reg, basis, tol=1e-3, budget=20, restarts=2)
        assert report.certified_lower is None and report.certified_floor is None


def test_search_empty_basis_rejected():
    Z = z_oracle()
    reg = Regular(Z)
    with pytest.raises(PreconditionError):
        search_witness(trivial_target(Z), reg, Subspace(reg, []), tol=0.1)


def _transfer_with_eps(eps):
    rho = transfer_space(z_oracle())
    return transfer_witness(rho, [delta(rho, 1, (0,))], [delta(rho, 1, (3,))], [(1,)], eps)


def _search_with_tol(tol):
    reg = Regular(z_oracle())
    return search_witness(trivial_target(z_oracle()), reg, ball_delta_basis(reg, 2), tol)


@pytest.mark.parametrize("call, name", [
    (lambda eps: folner_witness(z_oracle(), [(1,)], eps), "eps"),  # inf once: OverflowError
    (_transfer_with_eps, "eps"),
    (_search_with_tol, "tol"),  # inf once: "converged" at discrepancy 1.32
], ids=["folner_witness", "transfer_witness", "search_witness"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_witness_tolerance_must_be_finite_and_positive(call, name, value):
    with pytest.raises(PreconditionError, match=f"{name} must be finite and positive"):
        call(value)


def test_folner_finite_group_exact():
    from util import cyclic_table

    Z5 = cyclic_table(5)
    w = folner_witness(Z5, [1, 2], eps=1e-9)
    reg = Regular(Z5)
    for g in (1, 2):
        assert (reg.apply(g, w) - w).norm2() == 0.0


def _support(w):
    return {x for (_c, x) in w.entries}


def test_folner_z_example():
    """The radius-r ball of Z is the path P_(2r+1): Perron defect 2(1 - cos(pi/(2r+2)))."""
    Z = z_oracle()
    w = folner_witness(Z, [(1,)], eps=0.2)
    assert _support(w) == set(ball(Z, 3).elements) and len(w.entries) == 7
    assert abs(float(shift_defect_exact(Z, w, (1,))) - 2 * (1 - math.cos(math.pi / 8))) < 1e-9
    # radius 2 is 2(1 - cos(pi/6)) = 0.268 > 0.2
    assert shift_defect_exact(Z, min_defect(ball(Z, 2)).argmin, (1,)) > Fraction(0.2)


def test_folner_z2_example():
    """At eps 0.02 the Z^2 witness is the radius-15 Perron vector; radius 14 fails eps."""
    Z2 = z2_oracle()
    F = [(1, 0), (0, 1)]
    w = folner_witness(Z2, F, eps=0.02)
    assert _support(w) == set(ball(Z2, 15).elements) and len(w.entries) == 481
    reg = Regular(Z2)
    for g in F:
        assert shift_defect_exact(Z2, w, g) <= Fraction(0.02)
        assert (reg.apply(g, w) - w).norm2() <= 0.02
    below = min_defect(ball(Z2, 14)).argmin
    assert max(shift_defect_exact(Z2, below, g) for g in F) > Fraction(0.02)


def test_shift_defect_exact_is_normalized_and_reads_complex_amplitudes():
    Z = z_oracle()
    reg = Regular(Z)
    box = SparseVector(reg, {(0, (k,)): 3.0 for k in range(4)})
    assert shift_defect_exact(Z, box, (1,)) == Fraction(1, 2)
    assert shift_defect_exact(Z, box, (0,)) == 0
    w = SparseVector(reg, {(0, (0,)): 1j, (0, (1,)): 0.5})
    # lambda(1)w - w = -1j d0 + (1j - 0.5) d1 - 0.5 d2: squared norm 1 + 1.25 + 0.25 over 1.25
    assert shift_defect_exact(Z, w, (1,)) == Fraction(2)


def test_folner_longer_shifts_and_torsion():
    from unirep import FgAbelianOracle

    G = FgAbelianOracle(1, [4])
    w = folner_witness(G, [(3, 1), (1, 2)], eps=0.05)
    reg = Regular(G)
    for g in ((3, 1), (1, 2)):
        assert (reg.apply(g, w) - w).norm2() <= 0.05 + 1e-12


def test_folner_free_group_stops_above_kesten_floor():
    """F2 has a Perron witness at eps 0.5; at eps 0.1 the ball cap stops the search.

    Kesten: the average of <lambda(s)f, f> over the four steps is at most sqrt(3)/2, so
    the max-over-F defect named at the cap is at least 2 - sqrt(3).
    """
    F2 = f2_oracle()
    F = [(1,), (2,)]
    w = folner_witness(F2, F, eps=0.5)
    assert _support(w) == set(ball(F2, 4).elements)
    assert all(shift_defect_exact(F2, w, g) <= Fraction(0.5) for g in F)
    with pytest.raises(ResourceLimitError, match="at radius 6$") as err:
        folner_witness(F2, F, eps=0.1, cap=2000)
    best = float(re.search(r"best max defect over F (\S+) at", str(err.value)).group(1))
    assert 2 - math.sqrt(3) <= best <= 0.5


def test_folner_support_cap():
    Z2 = z2_oracle()
    with pytest.raises(ResourceLimitError):
        folner_witness(Z2, [(1, 0)], eps=1e-6, cap=100)


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


def test_transfer_free_group_hits_the_support_cap():
    """On F2 no vector is 0.1-invariant (Kesten), so the witness search stops at the cap."""
    F2 = f2_oracle()
    rho = transfer_space(F2)
    t = delta(rho, 2, (1,))
    with pytest.raises(ResourceLimitError, match="best max defect over F"):
        transfer_witness(rho, [], [t], [(), (1,), (-1,)], eps=0.1, cap=2000)


def test_transfer_on_rewriting_oracle_tensors_with_the_perron_vector():
    """The Z^2 rewriting oracle transfers; each fresh copy carries f's own amplitudes."""
    G = z2_rewriting()
    rho = transfer_space(G)
    p = delta(rho, 1, ())
    t = delta(rho, 2, (1,))
    F = [(), (1,), (-2,)]
    report = transfer_witness(rho, [p], [t], F, eps=0.1)
    assert report.converged and report.discrepancy <= 0.1
    f = folner_witness(G, F, eps=0.1)
    fresh = report.witnesses[1].entries
    assert len(fresh) == len(f.entries) == len({leaf for (leaf, _x) in fresh})
    for (leaf, x), amp in fresh.items():
        assert leaf >= 3
        assert abs(abs(amp) - f.entries[(0, x)].real) < 1e-12


def test_transfer_fresh_cap():
    Z = z_oracle()
    rho = transfer_space(Z)
    t = delta(rho, 2, (5,))
    with pytest.raises(ResourceLimitError, match="dimension cap 3"):
        transfer_witness(rho, [], [t], [(0,), (1,), (-1,)], eps=0.05, dim_cap=3)


def test_transfer_rejects_bad_shape():
    Z = z_oracle()
    reg = Regular(Z)
    with pytest.raises(PreconditionError):
        transfer_witness(DirectSum([Trivial(1), Multiple(reg, 2)]), [], [], [(0,)], 0.1)
