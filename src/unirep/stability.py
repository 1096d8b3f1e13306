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
    DEFAULT_DIM_CAP,
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

GAIN_TIE = 1e-12  # superstable gains within this relative distance of the best are tied


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
    dropped. ``gram_schmidt`` raises ``ResourceLimitError`` at ``dim_cap`` in
    the sphere where it is hit, and later spheres are never applied; a ball
    of more than ``cap`` elements raises it before any orbit vector is formed.
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

    index = KeyIndex()
    Q = np.zeros((0, 0), dtype=complex)
    for shell in shells:
        orbit = _orbit(pi, A, shell)
        index.add(orbit)
        Q = gram_schmidt(to_dense(orbit, index), seed=Q, cap=dim_cap)

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
    if not 0 < tol < np.inf:
        raise PreconditionError(f"tol must be finite and positive, got {tol!r}")
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


def canonical_base(pi: Representation, a_vec, C: ClosureSpec) -> list:
    """Orthonormal spanning set of the projected orbit {P_C pi(g) a_i}."""
    return orthonormalize(projected_orbit(pi, a_vec, C))


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
    ties to the earliest in enumeration order; a gain of at least
    (1 - ``GAIN_TIE``) times the largest ties with it, so rounding decides
    no pick) until the projections of every a_i onto the selected span and
    onto the full closure differ by less than ``eps``; returns
    b_i = a_i - P_C(a_i) + P_core(a_i), whose distance to a_i is exactly
    that projection gap. Each pick is orthonormalized against the earlier
    ones by ``gram_schmidt`` in the closure's coordinates, so the picks are
    at most C.dim; ``dim_cap`` and ``cap`` bound the closure as in ``closure``.
    """
    if not 0 < eps < np.inf:
        raise PreconditionError(f"eps must be finite and positive, got {eps!r}")
    a_vec = list(a_vec)
    _check_space(pi, a_vec, "tuple vector")
    A = list(A)
    C = closure(pi, A, r, dim_cap, cap)
    D = C.dim

    labels = [(g, ai) for g in C.ball_elements for ai in range(len(A))]
    orbit = _orbit(pi, A, C.ball_elements)

    # all work happens in coordinates over the realized closure basis
    index, Qclos, Qc = C.realized.block()
    R = to_dense(orbit, index) @ Qc.T
    Tres = to_dense(a_vec, index) @ Qc.T
    Q = np.zeros((0, D), dtype=complex)  # the picked directions, orthonormal in C^D
    selected = []
    while D and bool(np.any(np.linalg.norm(Tres, axis=1) >= eps)):
        norms = np.linalg.norm(R, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(norms[:, None] > DROP_TOL, R / np.maximum(norms, DROP_TOL)[:, None], 0)
        gains = np.sum(np.abs(Tres @ unit.conj().T) ** 2, axis=0)
        gains[norms <= DROP_TOL] = -1.0
        best = float(np.max(gains))
        if best <= 0:
            break
        j = int(np.flatnonzero(gains >= best * (1.0 - GAIN_TIE))[0])
        kept = gram_schmidt(unit[j:j + 1], seed=Q)
        if len(kept) == len(Q):
            R[j] = 0
            continue
        Q, q = kept, kept[-1]
        selected.append(j)
        R = R - np.outer(R @ q.conj(), q)
        Tres = Tres - np.outer(Tres @ q.conj(), q)
    gaps = [float(np.linalg.norm(Tres[i])) for i in range(len(a_vec))]
    if any(gap >= eps for gap in gaps):
        raise ResourceLimitError(
            f"could not reach eps={eps}; best achieved gap {max(gaps):.3g}"
        )

    core = Subspace(pi, from_dense(pi, index, Q @ Qclos), validate=False)
    # P_C a_i - P_core a_i has closure coordinates Tres_i
    b_vec = [a - C.realized.from_coords(Tres[i]) for i, a in enumerate(a_vec)]
    return SuperstableResult([labels[j] for j in selected], core, b_vec, gaps)
