"""Orbit closures, orthogonal projections, and projection-based independence.

The closed subspace generated by a set A under the group action is
approached along the Cayley-ball filtration: ``closure`` orthonormalizes
the orbit vectors over a ball of explicit radius and element cap, one
sphere at a time. Independence of tuples over a closure is the
orthogonality of their residuals, checked for every pair of ball
translates with an explicit tolerance.

All of it runs on dense blocks. Orbit vectors are the rows of a
``reps.OrbitBlock`` over the closure's ball. On a finite tree of
``MatrixRep`` and ``Trivial`` leaves it builds pi(g) once per ``MatrixRep``
leaf for every ball element, along the ball's tree, and every orbit,
translate and projection is one batched product over the tree's canonical
keys; a tree with a ``Regular`` leaf forms each orbit vector with
``Representation.apply``. The rows are orthonormalized by ``gram_schmidt``
and projected or paired by matrix products. A closure keeps its orbit rows
and its realized span as a block; sparse vectors are made from blocks only
where a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KindMismatchError, PreconditionError, ResourceLimitError
from .groups import DEFAULT_BALL_CAP, Ball, ball
from .reps import OrbitBlock, Representation, Subspace
# inner and orthonormalize are kept bound here: the benchmark tracer checks every
# module binding of them
from .vectors import (  # noqa: F401
    DEFAULT_DIM_CAP,
    DROP_TOL,
    SparseVector,
    from_dense,
    gram_schmidt,
    inner,
    orthonormalize,
    residual,
    same_space,
    to_dense,
)

GAIN_TIE = 1e-12  # superstable gains within this relative distance of the best are tied


@dataclass
class ClosureSpec:
    """Realized orbit span of A at a finite radius, the ball it was taken over, and the orbit.

    ``orbit`` holds the rows pi(g)a over the realized span's columns, g in
    ball order (outer) and a in ``generators``. ``ball`` is None when the
    representation has no group; the orbit is then A itself.
    """

    generators: list
    radius: int
    realized: Subspace
    ball: Ball | None
    orbit: np.ndarray

    @property
    def dim(self):
        return self.realized.dim

    @property
    def ball_elements(self) -> list:
        return [None] if self.ball is None else self.ball.elements

    def project(self, v):
        return self.realized.project(v)


def closure(pi: Representation, A, r: int, dim_cap: int = DEFAULT_DIM_CAP,
            cap: int = DEFAULT_BALL_CAP) -> ClosureSpec:
    """Orthonormal basis of span{pi(g)a : |g| <= r, a in A}.

    Orbit vectors are formed one sphere at a time and ``gram_schmidt``
    extends the basis so far with them, in enumeration order; a vector
    whose residual norm falls below ``DROP_TOL`` is linearly dependent and
    dropped. ``gram_schmidt`` raises ``ResourceLimitError`` at ``dim_cap`` in
    the sphere where it is hit, and later spheres' orbit vectors are never
    formed; a ball of more than ``cap`` elements raises it before any is.
    """
    A = list(A)
    if not A:
        raise PreconditionError("closure needs at least one generating vector")
    _check_space(pi, A, "closure vector")
    if r < 0:
        raise PreconditionError("closure radius must be non-negative")

    B = None if pi.oracle is None else ball(pi.oracle, r, cap)
    block = OrbitBlock(pi, B)
    Q = np.zeros((0, 0), dtype=complex)
    spheres, lo = [], 0
    for hi in [1] if B is None else B.sizes:
        X = block.rows(A, lo, hi).reshape(-1, len(block.index))
        Q = gram_schmidt(X, seed=Q, cap=dim_cap)
        spheres.append(X)
        lo = hi
    # the index grows sphere by sphere on the apply path: earlier rows are narrower
    n = len(block.index)
    orbit = np.concatenate([np.pad(X, ((0, 0), (0, n - X.shape[1]))) for X in spheres])
    return ClosureSpec(A, r, Subspace.from_block(pi, block.index, Q), B, orbit)


def _check_space(pi, vectors, what):
    for v in vectors:
        if not same_space(v.space, pi):
            raise KindMismatchError(f"{what} lives outside the representation space")


def _orbit_block(pi, C) -> tuple:
    """``(subspace, orbit block, ball elements)`` of a closure, or of a subspace at radius 0."""
    if isinstance(C, ClosureSpec):
        sub, B, elements = C.realized, C.ball, C.ball_elements
    else:
        sub, B, elements = C, None, [None if pi.oracle is None else pi.oracle.identity()]
    return sub, OrbitBlock(pi, B, sub.block()[0]), elements


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


def nondividing(pi: Representation, a_vec, B, C, tol: float = 1e-6) -> IndependenceVerdict:
    """Residual-orthogonality check of the tuple against B over the closure.

    ``C`` is a ``ClosureSpec``, or a ``Subspace`` standing for its own
    closure at radius 0 (the identity alone). For every ball translate g,
    h recorded in C and every pair (a_i, b), the inner product of the
    residuals of pi(g)a_i and pi(h)b over C must stay within ``tol``; the
    worst pair (the first largest in the order i, g, j, h) is reported with
    both residuals. The translates are the rows of one orbit block, and
    every pair is one entry of ``Ra @ Rb^H``.
    """
    if not 0 < tol < np.inf:
        raise PreconditionError(f"tol must be finite and positive, got {tol!r}")
    a_vec = list(a_vec)
    B = list(B)
    _check_space(pi, a_vec + B, "nondividing vector")
    if not a_vec or not B:
        return IndependenceVerdict(True, None, tol)
    sub, block, elements = _orbit_block(pi, C)
    X = block.rows(a_vec + B)
    Q = sub.block_on(block.index)

    def residuals(Y):
        """Residual rows of the translates in the order (vector, translate)."""
        return residual(Y.transpose(1, 0, 2).reshape(-1, Y.shape[2]), Q)

    Ra, Rb = residuals(X[:, :len(a_vec)]), residuals(X[:, len(a_vec):])
    values = Ra @ Rb.conj().T
    p, q = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    n = len(elements)
    ra, rb = from_dense(pi, block.index, [Ra[p], Rb[q]])
    worst = WorstPair(int(p) // n, elements[p % n], int(q) // n, elements[q % n],
                      complex(values[p, q]), ra, rb)
    return IndependenceVerdict(abs(worst.value) <= tol, worst, tol)


def projected_orbit_block(pi: Representation, a_vec, C) -> tuple:
    """``(index, P)``: the rows P_C pi(g) a_i over ``index``, g in C's ball (outer) and each a_i."""
    a_vec = list(a_vec)
    _check_space(pi, a_vec, "tuple vector")
    sub, block, _elements = _orbit_block(pi, C)
    X = block.rows(a_vec).reshape(-1, len(block.index))
    Q = sub.block_on(block.index)
    return block.index, (X @ Q.conj().T) @ Q


def projected_orbit(pi: Representation, a_vec, C) -> list:
    """P_C pi(g) a_i for g in the ball recorded in C (outer) and each a_i."""
    return from_dense(pi, *projected_orbit_block(pi, a_vec, C))


def canonical_base(pi: Representation, a_vec, C) -> list:
    """Orthonormal spanning set of the projected orbit {P_C pi(g) a_i}."""
    index, P = projected_orbit_block(pi, a_vec, C)
    return from_dense(pi, index, gram_schmidt(P))


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

    # all work happens in coordinates over the realized closure basis
    index, Qclos, Qc = C.realized.block()
    R = C.orbit @ Qc.T
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

    core = Subspace.from_block(pi, index, Q @ Qclos)
    # P_C a_i - P_core a_i has closure coordinates Tres_i
    b_vec = [a - C.realized.from_coords(Tres[i]) for i, a in enumerate(a_vec)]
    return SuperstableResult([labels[j] for j in selected], core, b_vec, gaps)
