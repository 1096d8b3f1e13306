"""Orbit closures, orthogonal projections, and projection-based independence.

The closed subspace generated by a set A under the group action is
approached along the Cayley-ball filtration: ``closure`` orthonormalizes
the orbit vectors over a ball of explicit radius and element cap, one
sphere at a time. Independence of tuples over a closure is the
orthogonality of their residuals, checked for every pair of ball
translates with an explicit tolerance.

All of it runs on the dense block kernel of ``vectors``: orbit vectors are
stacked as rows over a ``KeyIndex``, orthonormalized by ``gram_schmidt``,
and projected or paired by matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KindMismatchError, PreconditionError, ResourceLimitError
from .groups import DEFAULT_BALL_CAP, ball
from .reps import Representation, Subspace
# inner is kept bound here: the benchmark tracer checks every module binding of it
from .vectors import (  # noqa: F401
    DROP_TOL,
    KeyIndex,
    SparseVector,
    from_dense,
    gram_schmidt,
    inner,
    orthonormalize,
    same_space,
    to_dense,
)

DEFAULT_DIM_CAP = 2000


@dataclass
class ClosureSpec:
    """Realized orbit span of A at a finite radius, and the ball it was taken over."""

    generators: list
    radius: int
    realized: Subspace
    ball_elements: list

    @classmethod
    def from_subspace(cls, subspace: Subspace):
        """Wrap an existing subspace as a closure at orbit radius 0."""
        oracle = subspace.ambient.oracle
        elements = [oracle.identity()] if oracle is not None else [None]
        return cls(list(subspace.basis), 0, subspace, elements)

    @property
    def dim(self):
        return self.realized.dim

    def project(self, v):
        return self.realized.project(v)


def closure(pi: Representation, A, r: int, dim_cap: int = DEFAULT_DIM_CAP,
            cap: int = DEFAULT_BALL_CAP) -> ClosureSpec:
    """Orthonormal basis of span{pi(g)a : |g| <= r, a in A}.

    Orbit vectors are stacked one sphere at a time and ``gram_schmidt``
    extends the basis so far with them, in enumeration order; a vector
    whose residual norm falls below ``DROP_TOL`` is linearly dependent and
    dropped. The dimension cap raises ``ResourceLimitError`` in the sphere
    where it is hit, and later spheres are never applied; a ball of more
    than ``cap`` elements raises it before any orbit vector is formed.
    """
    A = list(A)
    if not A:
        raise PreconditionError("closure needs at least one generating vector")
    _check_space(pi, A, "closure vector")
    if r < 0:
        raise PreconditionError("closure radius must be non-negative")

    if pi.oracle is None:
        elements = [None]
        shells = [[None]]
    else:
        B = ball(pi.oracle, r, cap)
        elements = B.elements
        shells = [B.sphere(k) for k in range(r + 1)]

    def check_cap(kept):
        if kept >= dim_cap:
            raise ResourceLimitError(f"closure dimension cap {dim_cap} exceeded")

    index = KeyIndex()
    Q = np.zeros((0, 0), dtype=complex)
    for shell in shells:
        orbit = _orbit(pi, A, shell)
        index.add(orbit)
        Q = gram_schmidt(to_dense(orbit, index), DROP_TOL, seed=Q, on_keep=check_cap)

    realized = Subspace(pi, from_dense(pi, index, Q), validate=False)
    return ClosureSpec(A, r, realized, elements)


def _check_space(pi, vectors, what):
    for v in vectors:
        if not same_space(v.space, pi):
            raise KindMismatchError(f"{what} lives outside the representation space")


def _orbit(pi, vectors, elements) -> list:
    """pi(g)v for g in ``elements`` (outer) and v in ``vectors``; None is the identity."""
    return [v if g is None else pi.apply(g, v) for g in elements for v in vectors]


def project(v: SparseVector, C) -> SparseVector:
    """Orthogonal projection onto a closure or subspace."""
    sub = C.realized if isinstance(C, ClosureSpec) else C
    return sub.project(v)


@dataclass
class WorstPair:
    """Most-correlated residual pair, kept so a verdict can be re-verified."""

    tuple_index: int
    tuple_translate: object
    set_index: int
    set_translate: object
    value: complex
    residual_a: SparseVector
    residual_b: SparseVector


@dataclass
class IndependenceVerdict:
    independent: bool
    worst: WorstPair | None
    tolerance: float


def nondividing(pi: Representation, a_vec, B, C: ClosureSpec,
                tol: float = 1e-6) -> IndependenceVerdict:
    """Residual-orthogonality check of the tuple against B over the closure.

    For every ball translate g, h recorded in C and every pair (a_i, b),
    the inner product of the residuals of pi(g)a_i and pi(h)b over C must
    stay within ``tol``; the worst pair (the first largest in the order
    i, g, j, h) is reported with both residuals. The residuals are stacked
    as rows and every pair is one entry of ``Ra @ Rb^H``.
    """
    a_vec = list(a_vec)
    B = list(B)
    _check_space(pi, a_vec + B, "nondividing vector")
    sub = C.realized
    elements = C.ball_elements if pi.oracle is not None else [None]

    def translates(vectors):
        labels = [(i, g) for i in range(len(vectors)) for g in elements]
        return labels, [v if g is None else pi.apply(g, v) for v in vectors for g in elements]

    labels_a, xa = translates(a_vec)
    labels_b, xb = translates(B)
    if not xa or not xb:
        return IndependenceVerdict(True, None, tol)
    index = KeyIndex(sub.basis + xa + xb)
    Q = to_dense(sub.basis, index)

    def residuals(xs):
        X = to_dense(xs, index)
        return X - (X @ Q.conj().T) @ Q

    Ra, Rb = residuals(xa), residuals(xb)
    values = Ra @ Rb.conj().T
    p, q = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    (i, g), (j, h) = labels_a[p], labels_b[q]
    ra, rb = from_dense(pi, index, [Ra[p], Rb[q]])
    worst = WorstPair(i, g, j, h, complex(values[p, q]), ra, rb)
    return IndependenceVerdict(abs(worst.value) <= tol, worst, tol)


def projected_orbit(pi: Representation, a_vec, C: ClosureSpec) -> list:
    """P_C pi(g) a_i for g in the ball recorded in C (outer) and each a_i."""
    a_vec = list(a_vec)
    _check_space(pi, a_vec, "tuple vector")
    index, Q, Qc = C.realized.block()
    X = to_dense(_orbit(pi, a_vec, C.ball_elements), index)
    return from_dense(pi, index, (X @ Qc.T) @ Q)


def canonical_base(pi: Representation, a_vec, C: ClosureSpec,
                   drop_tol: float = DROP_TOL) -> list:
    """Orthonormal spanning set of the projected orbit {P_C pi(g) a_i}."""
    return orthonormalize(projected_orbit(pi, a_vec, C), drop_tol)


@dataclass
class SuperstableResult:
    """Finite support certificate: selected orbit labels, their span and the perturbed tuple."""

    selected: list          # (translate, generator_index) labels in greedy order
    core: Subspace
    b_vec: list
    gaps: list              # ||P_C a_i - P_core a_i|| per tuple entry


def superstable_approx(pi: Representation, a_vec, A, eps: float, r: int,
                       dim_cap: int = DEFAULT_DIM_CAP,
                       cap: int = DEFAULT_BALL_CAP) -> SuperstableResult:
    """Perturb the tuple to depend on only finitely many orbit vectors.

    Greedily picks orbit vectors of A (largest projection gain first,
    ties to the earliest in enumeration order) until the projections of
    every a_i onto the selected span and onto the full closure differ by
    less than ``eps``; returns b_i = a_i - P_C(a_i) + P_core(a_i), whose
    distance to a_i is exactly that projection gap. ``dim_cap`` and ``cap``
    bound the closure as in ``closure``.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    a_vec = list(a_vec)
    _check_space(pi, a_vec, "tuple vector")
    A = list(A)
    C = closure(pi, A, r, dim_cap, cap)
    D = C.dim

    labels = [(g, ai) for g in C.ball_elements for ai in range(len(A))]
    orbit = _orbit(pi, A, C.ball_elements)

    # all work happens in coordinates over the realized closure basis
    index, _Q, Qc = C.realized.block()
    X = to_dense(orbit, index) @ Qc.T
    T = to_dense(a_vec, index) @ Qc.T

    R = X.copy()
    Tres = T.copy()
    selected = []
    q_rows = []
    while D and bool(np.any(np.linalg.norm(Tres, axis=1) >= eps)):
        norms = np.linalg.norm(R, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(norms[:, None] > DROP_TOL, R / np.maximum(norms, DROP_TOL)[:, None], 0)
        gains = np.sum(np.abs(Tres @ unit.conj().T) ** 2, axis=0)
        gains[norms <= DROP_TOL] = -1.0
        j = int(np.argmax(gains))
        if gains[j] <= 0:
            break
        q = unit[j]
        # re-orthogonalize against the picked directions for stability
        for prev in q_rows:
            q = q - np.vdot(prev, q) * prev
        nq = np.linalg.norm(q)
        if nq <= DROP_TOL:
            R[j] = 0
            continue
        q = q / nq
        q_rows.append(q)
        selected.append(j)
        R = R - np.outer(R @ q.conj(), q)
        Tres = Tres - np.outer(Tres @ q.conj(), q)
        if len(selected) > dim_cap:
            raise ResourceLimitError(
                f"support selection exceeded dimension cap {dim_cap}; "
                f"best achieved gap {float(np.max(np.linalg.norm(Tres, axis=1))):.3g}"
            )
    gaps = [float(np.linalg.norm(Tres[i])) for i in range(len(a_vec))]
    if any(gap >= eps for gap in gaps):
        raise ResourceLimitError(
            f"could not reach eps={eps}; best achieved gap {max(gaps):.3g}"
        )

    core_vectors = [C.realized.from_coords(q) for q in q_rows]
    core = Subspace(pi, core_vectors, validate=False)
    b_vec = []
    for i, a in enumerate(a_vec):
        p_full = C.realized.from_coords(T[i])
        p_core = C.realized.from_coords(T[i] - Tres[i])
        b_vec.append(a - p_full + p_core)
    return SuperstableResult(
        [labels[j] for j in selected],
        core,
        b_vec,
        gaps,
    )
