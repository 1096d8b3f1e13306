"""Orbit closures, orthogonal projections, and projection-based independence.

The closed subspace generated by a set A under the group action is
approached along the Cayley-ball filtration: ``closure`` orthonormalizes
the orbit vectors over a ball of explicit radius and records how the
projections of probe vectors grow with the radius, so callers can pick a
radius where the trace has stabilized. Independence of tuples over a
closure is the orthogonality of their residuals, checked pairwise over
the ball orbit with an explicit tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KindMismatchError, PreconditionError, ResourceLimitError
from .groups import GroupOracle, ball
from .reps import Representation, Subspace
from .vectors import SparseVector, inner, orthonormal_residual, orthonormalize

DEFAULT_DIM_CAP = 2000
DROP_TOL = 1e-10


@dataclass
class ClosureSpec:
    """Realized orbit span of A at a finite radius, with its convergence trace.

    ``trace[k][i]`` is the projection norm of the i-th probe vector onto
    the span realized at radius k; the probes default to A itself.
    """

    generators: list
    radius: int
    realized: Subspace
    trace: list
    ball_elements: list

    @classmethod
    def from_subspace(cls, subspace: Subspace, radius: int = 0, oracle: GroupOracle | None = None):
        """Wrap an existing subspace as a closure at the given orbit radius."""
        if radius > 0 and oracle is None:
            oracle = subspace.ambient.oracle
        if radius > 0:
            elements = ball(oracle, radius).elements
        else:
            o = oracle if oracle is not None else subspace.ambient.oracle
            elements = [o.identity()] if o is not None else [None]
        return cls(list(subspace.basis), radius, subspace, [], elements)

    @property
    def dim(self):
        return self.realized.dim

    def project(self, v):
        return self.realized.project(v)


def closure(pi: Representation, A, r: int, probes=None,
            dim_cap: int = DEFAULT_DIM_CAP) -> ClosureSpec:
    """Orthonormal basis of span{pi(g)a : |g| <= r, a in A}.

    Orbit vectors are enumerated shell by shell and each contributes its
    ``orthonormal_residual`` against the basis so far; vectors whose
    residual norm falls below 1e-10 are linearly dependent and dropped.
    """
    A = list(A)
    if not A:
        raise PreconditionError("closure needs at least one generating vector")
    for a in A:
        if a.space != pi:
            raise KindMismatchError("closure generator lives outside the representation space")
    if r < 0:
        raise PreconditionError("closure radius must be non-negative")
    probes = list(probes) if probes is not None else list(A)
    acc = [0.0] * len(probes)
    basis: list[SparseVector] = []
    trace = []

    if pi.oracle is None:
        elements = [None]
        shells = [[None]] if r >= 0 else []
    else:
        B = ball(pi.oracle, r)
        elements = B.elements
        shells = [B.sphere(k) for k in range(r + 1)]

    def add_vector(v):
        w = orthonormal_residual(v, basis, DROP_TOL)
        if w is None:
            return
        if len(basis) >= dim_cap:
            raise ResourceLimitError(f"closure dimension cap {dim_cap} exceeded")
        basis.append(w)
        for i, p in enumerate(probes):
            acc[i] += abs(inner(p, w)) ** 2

    for shell in shells:
        for g in shell:
            for a in A:
                add_vector(a if g is None else pi.apply(g, a))
        trace.append([acc[i] ** 0.5 for i in range(len(probes))])

    realized = Subspace(pi, basis, validate=False)
    return ClosureSpec(A, r, realized, trace, elements)


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
    stay within ``tol``; the worst pair is reported with both residuals.
    """
    a_vec = list(a_vec)
    B = list(B)
    sub = C.realized
    elements = C.ball_elements

    def translates(v):
        if pi.oracle is None:
            return [(None, v)]
        return [(g, pi.apply(g, v)) for g in elements]

    resid_a = []
    for i, a in enumerate(a_vec):
        for g, va in translates(a):
            resid_a.append((i, g, sub.residual(va)))
    resid_b = []
    for j, b in enumerate(B):
        for h, vb in translates(b):
            resid_b.append((j, h, sub.residual(vb)))

    worst = None
    worst_abs = -1.0
    for i, g, ra in resid_a:
        for j, h, rb in resid_b:
            val = inner(ra, rb)
            if abs(val) > worst_abs:
                worst_abs = abs(val)
                worst = WorstPair(i, g, j, h, val, ra, rb)
    if worst is None:
        return IndependenceVerdict(True, None, tol)
    return IndependenceVerdict(worst_abs <= tol, worst, tol)


def canonical_base(pi: Representation, a_vec, C: ClosureSpec,
                   drop_tol: float = DROP_TOL) -> list:
    """Orthonormal spanning set of the projected orbit {P_C pi(g) a_i}."""
    a_vec = list(a_vec)
    projected = []
    for g in C.ball_elements:
        for a in a_vec:
            v = a if g is None else pi.apply(g, a)
            projected.append(C.realized.project(v))
    return orthonormalize(projected, drop_tol)


@dataclass
class SuperstableResult:
    """Finite support certificate: selected orbit vectors and perturbed tuple."""

    selected: list          # (translate, generator_index) labels in greedy order
    selected_vectors: list
    core: Subspace
    b_vec: list
    gaps: list              # ||P_C a_i - P_core a_i|| per tuple entry


def superstable_approx(pi: Representation, a_vec, A, eps: float, r: int,
                       dim_cap: int = DEFAULT_DIM_CAP) -> SuperstableResult:
    """Perturb the tuple to depend on only finitely many orbit vectors.

    Greedily picks orbit vectors of A (largest projection gain first,
    ties to the earliest in enumeration order) until the projections of
    every a_i onto the selected span and onto the full closure differ by
    less than ``eps``; returns b_i = a_i - P_C(a_i) + P_core(a_i), whose
    distance to a_i is exactly that projection gap.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    a_vec = list(a_vec)
    C = closure(pi, A, r, dim_cap=dim_cap)
    basis = C.realized.basis
    D = len(basis)

    labels = []
    orbit = []
    for g in C.ball_elements:
        for ai, a in enumerate(list(A)):
            labels.append((g, ai))
            orbit.append(a if g is None else pi.apply(g, a))

    # all work happens in coordinates over the realized closure basis
    X = np.array([C.realized.coords(v) for v in orbit], dtype=complex) if D else \
        np.zeros((len(orbit), 0), dtype=complex)
    T = np.array([C.realized.coords(a) for a in a_vec], dtype=complex) if D else \
        np.zeros((len(a_vec), 0), dtype=complex)

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
        [orbit[j] for j in selected],
        core,
        b_vec,
        gaps,
    )
