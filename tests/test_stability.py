"""Orbit closures, projections, independence verdicts, and finite-support perturbation."""

import math

import numpy as np
import pytest

from unirep import (
    KindMismatchError,
    PreconditionError,
    Regular,
    ResourceLimitError,
    SparseVector,
    Subspace,
    Trivial,
    ball,
    canonical_base,
    closure,
    delta,
    inner,
    nondividing,
    project,
    superstable_approx,
)
from util import (
    dense_inner,
    dense_of,
    f2_oracle,
    random_matrix_rep,
    random_sparse,
    z_oracle,
)


def dz(reg, n):
    return delta(reg, 0, (n,))


def test_closure_trivial_rep_is_span():
    triv = Trivial(3)
    a = SparseVector(triv, {(0, 0): 1.0, (0, 2): 1.0})
    C = closure(triv, [a], 4)
    assert C.dim == 1
    assert (C.project(a) - a).norm() < 1e-12


def test_closure_regular_z_dimension():
    Z = z_oracle()
    reg = Regular(Z)
    C = closure(reg, [dz(reg, 0)], 2)
    assert C.dim == 5
    for n in range(-2, 3):
        assert (C.project(dz(reg, n)) - dz(reg, n)).norm() < 1e-12
    assert C.project(dz(reg, 3)).norm() < 1e-12


def test_closure_zero_vector_contributes_nothing():
    Z = z_oracle()
    reg = Regular(Z)
    zero = SparseVector(reg, {})
    C1 = closure(reg, [dz(reg, 0)], 2)
    C2 = closure(reg, [dz(reg, 0), zero], 2)
    assert C1.dim == C2.dim


def test_closure_monotone_in_radius():
    Z = z_oracle()
    reg = Regular(Z)
    rng = np.random.default_rng(0)
    keys = [(0, (k,)) for k in range(-3, 4)]
    A = [random_sparse(rng, reg, keys, 3)]
    small = closure(reg, A, 1)
    big = closure(reg, A, 2)
    for b in small.realized.basis:
        assert big.realized.residual(b).norm() < 1e-8


def test_closure_dim_cap():
    Z = z_oracle()
    reg = Regular(Z)
    with pytest.raises(ResourceLimitError):
        closure(reg, [dz(reg, 0)], 5, dim_cap=4)


class CountingRegular(Regular):
    """Regular representation that records every element it is applied with."""

    def __init__(self, oracle):
        super().__init__(oracle)
        self.applied = []

    def apply(self, g, v):
        self.applied.append(g)
        return super().apply(g, v)


def test_closure_dim_cap_raises_in_the_sphere_where_it_is_hit():
    F2 = f2_oracle()
    reg = CountingRegular(F2)
    # sphere 0 keeps 1 vector, sphere 1 offers 4 more: the 4th kept vector hits cap 3
    with pytest.raises(ResourceLimitError, match="cap 3"):
        closure(reg, [delta(reg, 0, ())], 3, dim_cap=3)
    assert reg.applied
    assert all(len(g) <= 1 for g in reg.applied)
    assert len(closure(reg, [delta(reg, 0, ())], 1, dim_cap=5).realized.basis) == 5


def test_vectors_outside_the_space_are_rejected():
    reg = Regular(z_oracle())
    foreign = delta(Trivial(2), 0, 0)
    C = closure(reg, [dz(reg, 0)], 1)
    with pytest.raises(KindMismatchError):
        closure(reg, [foreign], 1)
    with pytest.raises(KindMismatchError):
        nondividing(reg, [dz(reg, 0)], [foreign], C)
    with pytest.raises(KindMismatchError):
        canonical_base(reg, [foreign], C)
    with pytest.raises(KindMismatchError):
        superstable_approx(reg, [foreign], [dz(reg, 0)], 1e-3, 1)


def test_project_examples():
    Z = z_oracle()
    reg = Regular(Z)
    u = (dz(reg, 0) + dz(reg, 1)) * (1 / math.sqrt(2))
    C = Subspace(reg, [u])
    p = project(dz(reg, 0), C)
    assert abs(p.amplitude(0, (0,)) - 0.5) < 1e-14
    assert abs(p.amplitude(0, (1,)) - 0.5) < 1e-14
    assert (project(u, C) - u).norm() < 1e-12
    assert project(dz(reg, 7), C).norm() == 0.0


def test_projection_idempotent_selfadjoint_pythagoras():
    Z = z_oracle()
    reg = Regular(Z)
    rng = np.random.default_rng(1)
    keys = [(0, (k,)) for k in range(-4, 5)]
    C = closure(reg, [random_sparse(rng, reg, keys, 4) for _ in range(2)], 1)
    for _ in range(25):
        u = random_sparse(rng, reg, keys, 4)
        v = random_sparse(rng, reg, keys, 4)
        pu, pv = C.project(u), C.project(v)
        assert (C.project(pu) - pu).norm() < 1e-8
        assert abs(inner(pu, v) - inner(u, pv)) < 1e-8
        assert abs(u.norm2() - (pu.norm2() + (u - pu).norm2())) < 1e-8


def test_nondividing_b_inside_closure():
    Z = z_oracle()
    reg = Regular(Z)
    C = closure(reg, [dz(reg, 0)], 2)
    verdict = nondividing(reg, [dz(reg, 10)], [dz(reg, 1)], C, tol=1e-6)
    assert verdict.independent


def test_nondividing_zero_closure_dependent():
    Z = z_oracle()
    reg = Regular(Z)
    C = Subspace(reg, [])
    verdict = nondividing(reg, [dz(reg, 0)], [dz(reg, 0)], C, tol=1e-6)
    assert not verdict.independent
    assert abs(verdict.worst.value - 1.0) < 1e-15


def test_nondividing_distant_deltas():
    Z = z_oracle()
    reg = Regular(Z)
    C = closure(reg, [dz(reg, 0)], 3)
    verdict = nondividing(reg, [dz(reg, 5)], [dz(reg, 100)], C, tol=1e-6)
    assert verdict.independent


# -- dense brute-force reference ------------------------------------------


def span_basis(X):
    """Orthonormal basis of the column span of X, rank-revealing via the SVD."""
    u, s, _ = np.linalg.svd(X, full_matrices=False)
    return u[:, s > 1e-10]


class DenseModel:
    """Explicit-matrix mirror of a finite-dimensional action for cross-checks."""

    def __init__(self, rep, oracle, radius):
        self.rep = rep
        self.oracle = oracle
        self.elements = ball(oracle, radius).elements
        self.dim = rep.dim
        self.key_index = {(0, i): i for i in range(self.dim)}

    def matrix(self, g):
        return self.rep.matrix_of(g)

    def vec(self, v):
        return dense_of(v, self.key_index)

    def closure_basis(self, A):
        cols = []
        for g in self.elements:
            for a in A:
                cols.append(self.matrix(g) @ self.vec(a))
        if not cols:
            return np.zeros((self.dim, 0), dtype=complex)
        return span_basis(np.array(cols).T)

    def residual(self, Q, x):
        return x - Q @ (Q.conj().T @ x)

    def nondividing(self, A, a_vec, B, tol):
        Q = self.closure_basis(A)
        worst = 0.0
        for g in self.elements:
            for a in a_vec:
                ra = self.residual(Q, self.matrix(g) @ self.vec(a))
                for h in self.elements:
                    for b in B:
                        rb = self.residual(Q, self.matrix(h) @ self.vec(b))
                        worst = max(worst, abs(dense_inner(ra, rb)))
        return worst <= tol, worst

    def canonical_base(self, A, a_vec):
        Q = self.closure_basis(A)
        cols = []
        for g in self.elements:
            for a in a_vec:
                x = self.matrix(g) @ self.vec(a)
                cols.append(Q @ (Q.conj().T @ x))
        return span_basis(np.array(cols).T)


def random_instance(rng, dim):
    F2 = f2_oracle()
    rep = random_matrix_rep(rng, F2, dim)
    keys = [(0, i) for i in range(dim)]
    A = [random_sparse(rng, rep, keys, min(dim, 3)) for _ in range(int(rng.integers(1, 3)))]
    a_vec = [random_sparse(rng, rep, keys, min(dim, 3)) for _ in range(int(rng.integers(1, 3)))]
    B = [random_sparse(rng, rep, keys, min(dim, 3)) for _ in range(int(rng.integers(1, 3)))]
    return F2, rep, A, a_vec, B


def test_nondividing_matches_dense_oracle():
    rng = np.random.default_rng(42)
    radius = 1
    for trial in range(60):
        dim = int(rng.integers(2, 9))
        F2, rep, A, a_vec, B = random_instance(rng, dim)
        C = closure(rep, A, radius)
        verdict = nondividing(rep, a_vec, B, C, tol=1e-6)
        model = DenseModel(rep, F2, radius)
        dense_ok, dense_worst = model.nondividing(A, a_vec, B, 1e-6)
        assert verdict.independent == dense_ok
        got = 0.0 if verdict.worst is None else abs(verdict.worst.value)
        assert abs(got - dense_worst) < 1e-8


def test_nondividing_triviality_property():
    rng = np.random.default_rng(43)
    for trial in range(30):
        dim = int(rng.integers(2, 9))
        F2, rep, A, a_vec, B = random_instance(rng, dim)
        C = closure(rep, A, 1)
        joint = nondividing(rep, a_vec, B, C, tol=1e-6)
        singles = [nondividing(rep, [a], B, C, tol=1e-6) for a in a_vec]
        assert joint.independent == all(s.independent for s in singles)


def test_nondividing_singleton_symmetry():
    rng = np.random.default_rng(44)
    for trial in range(30):
        dim = int(rng.integers(2, 9))
        F2, rep, A, a_vec, B = random_instance(rng, dim)
        C = closure(rep, A, 1)
        left = nondividing(rep, [a_vec[0]], [B[0]], C, tol=1e-6)
        right = nondividing(rep, [B[0]], [a_vec[0]], C, tol=1e-6)
        assert left.independent == right.independent
        lw = 0.0 if left.worst is None else abs(left.worst.value)
        rw = 0.0 if right.worst is None else abs(right.worst.value)
        assert abs(lw - rw) < 1e-8


def test_nondividing_monotone_under_larger_closure():
    # enlarging the closure radius only removes correlation for disjoint data
    Z = z_oracle()
    reg = Regular(Z)
    a, b = dz(reg, 4), dz(reg, 5)
    for r in (0, 1, 2, 3):
        C = closure(reg, [dz(reg, 0)], r)
        verdict = nondividing(reg, [a], [b], C, tol=1e-6)
        if verdict.independent:
            bigger = nondividing(reg, [a], [b], closure(reg, [dz(reg, 0)], r + 1), tol=1e-6)
            # once B's orbit is absorbed the verdict stays independent
            assert bigger.independent or r < 2


def test_canonical_base_orthogonal_orbit_empty():
    Z = z_oracle()
    reg = Regular(Z)
    C = closure(reg, [dz(reg, 0)], 1)
    base = canonical_base(reg, [dz(reg, 50)], C)
    assert base == []


def test_canonical_base_inside_closure():
    Z = z_oracle()
    reg = Regular(Z)
    C = closure(reg, [dz(reg, 0)], 2)
    base = canonical_base(reg, [dz(reg, 1)], C)
    # orbit of d1 over radius 2 hits d-1..d3, all inside the realized span
    assert len(base) == 5


def test_canonical_base_matches_dense_qr():
    rng = np.random.default_rng(45)
    for trial in range(25):
        dim = 6
        F2, rep, A, a_vec, _B = random_instance(rng, dim)
        C = closure(rep, A, 1)
        base = canonical_base(rep, a_vec, C)
        model = DenseModel(rep, F2, 1)
        Qd = model.canonical_base(A, a_vec)
        key_index = model.key_index
        # spans agree: every returned vector lies in the dense span and back
        for b in base:
            x = dense_of(b, key_index)
            assert np.linalg.norm(x - Qd @ (Qd.conj().T @ x)) < 1e-8
        Qs = np.array([dense_of(b, key_index) for b in base]).T if base else np.zeros((dim, 0))
        for j in range(Qd.shape[1]):
            x = Qd[:, j]
            assert np.linalg.norm(x - Qs @ (Qs.conj().T @ x)) < 1e-8


def test_canonical_base_postcondition():
    rng = np.random.default_rng(46)
    Z = z_oracle()
    reg = Regular(Z)
    keys = [(0, (k,)) for k in range(-2, 6)]
    for trial in range(10):
        a = random_sparse(rng, reg, keys, 3)
        A = [random_sparse(rng, reg, keys, 2)]
        C = closure(reg, A, 2)
        base = canonical_base(reg, [a], C)
        core = Subspace(reg, base, validate=False)
        # orbit tuple over the closure ball stays independent from C over the base
        orbit = [reg.apply(g, a) for g in C.ball_elements]
        B = list(C.realized.basis)[:3]
        verdict = nondividing(reg, orbit, B, core, tol=1e-6)
        assert verdict.independent


def test_canonical_base_stationary_under_shuffle():
    rng = np.random.default_rng(47)
    Z = z_oracle()
    reg = Regular(Z)
    keys = [(0, (k,)) for k in range(-3, 4)]
    A = [random_sparse(rng, reg, keys, 3) for _ in range(3)]
    a = [random_sparse(rng, reg, keys, 3)]
    base1 = canonical_base(reg, a, closure(reg, A, 1))
    base2 = canonical_base(reg, a, closure(reg, list(reversed(A)), 1))
    S1 = Subspace(reg, base1, validate=False)
    S2 = Subspace(reg, base2, validate=False)
    for b in base1:
        assert S2.residual(b).norm() < 1e-8
    for b in base2:
        assert S1.residual(b).norm() < 1e-8


def test_superstable_tiny_eps_recovers_tuple():
    Z = z_oracle()
    reg = Regular(Z)
    rng = np.random.default_rng(48)
    keys = [(0, (k,)) for k in range(-3, 4)]
    A = [random_sparse(rng, reg, keys, 3) for _ in range(3)]
    a_vec = [random_sparse(rng, reg, keys, 3)]
    result = superstable_approx(reg, a_vec, A, eps=1e-12, r=2)
    for a, b in zip(a_vec, result.b_vec):
        assert (a - b).norm() < 1e-10


def test_superstable_orthogonal_tuple_untouched():
    Z = z_oracle()
    reg = Regular(Z)
    a = dz(reg, 100)
    result = superstable_approx(reg, [a], [dz(reg, 0)], eps=1e-6, r=2)
    assert result.selected == []
    assert (result.b_vec[0] - a).norm() == 0.0


def test_superstable_gap_identity_and_independence():
    Z = z_oracle()
    reg = Regular(Z)
    rng = np.random.default_rng(49)
    keys = [(0, (k,)) for k in range(-6, 7)]
    A = [random_sparse(rng, reg, keys, 3) for _ in range(5)]
    a_vec = [random_sparse(rng, reg, keys, 4) for _ in range(2)]
    eps = 1e-3
    result = superstable_approx(reg, a_vec, A, eps=eps, r=3)
    C = closure(reg, A, 3)
    for i, (a, b) in enumerate(zip(a_vec, result.b_vec)):
        gap = (a - b).norm()
        assert gap < eps
        direct = (C.project(a) - result.core.project(a)).norm()
        assert abs(gap - direct) < 1e-10
        assert abs(gap - result.gaps[i]) < 1e-10
    verdict = nondividing(reg, result.b_vec, A, result.core, tol=eps)
    assert verdict.independent


def test_superstable_exact_tie_picks_the_earlier_label():
    """The translates by 1 and -1 gain 1.09 each in exact arithmetic; rounding splits them."""
    reg = Regular(z_oracle())
    v = SparseVector(reg, {(0, (0,)): 1.0, (0, (1,)): 0.3})
    a = reg.apply((1,), v) + reg.apply((-1,), v)
    result = superstable_approx(reg, [a], [v], eps=1e-6, r=2)
    assert result.selected[0] == ((1,), 0)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_superstable_needs_finite_positive_eps(value):
    """A nan eps once returned gap 1.0 here, with no pick and no error."""
    reg = Regular(z_oracle())
    with pytest.raises(PreconditionError, match="eps must be finite and positive"):
        superstable_approx(reg, [dz(reg, 0)], [dz(reg, 1)], eps=value, r=1)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_nondividing_needs_finite_positive_tol(value):
    """A nan tol once made every verdict dependent, with no error."""
    reg = Regular(z_oracle())
    C = closure(reg, [dz(reg, 0)], 1)
    with pytest.raises(PreconditionError, match="tol must be finite and positive"):
        nondividing(reg, [dz(reg, 2)], [dz(reg, 2)], C, tol=value)
