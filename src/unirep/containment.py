"""Finite containment data: Gram functions, discrepancy, and witness search.

A Gram function records, for a finite element set F and vectors
v_1..v_n, the matrices M[g]_{ij} = <rep(g) v_i, v_j>. One representation
approximately contains another's finite data when witnesses in it
reproduce the target Gram function entrywise within a tolerance; this
module searches for such witnesses in the span of a ``reps.Subspace`` or
of a ``BallBasis`` (the deltas of a Cayley ball, built only when read),
takes the defect probe's Perron vector as an almost-invariant vector with
an exactly counted defect, and transfers witnesses from an explicit
extension back into a stack of shift copies.

On the trivial target (one invariant unit vector) over a Cayley ball the
same Perron vector is the search's start, and Kesten's bound (Kesten 1959)
with a Collatz-Wielandt ratio (Wielandt 1950) proves how close any witness
can come: if a vector v on the ball matches [[1]] within delta at e and at
every step s, then 1 - delta <= Re<Mv, v> <= lambda(1 + delta) for the
ball-compressed averaged shift M and any bound lambda on its norm, so
delta >= (1 - lambda)/(1 + lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    KindMismatchError,
    PreconditionError,
    ResourceLimitError,
)
from .amenability import (averaged_shift, collatz_wielandt, min_defect, round_outward,
                          squared_norm_bound)
from .groups import DEFAULT_BALL_CAP, Ball, GroupOracle, ball, symmetric_generators
from .reps import (
    DirectSum,
    Multiple,
    Regular,
    Representation,
    Subspace,
)
# orthonormalize is kept bound here: the benchmark tracer checks every module binding of it
from .vectors import (  # noqa: F401
    DEFAULT_DIM_CAP,
    KeyIndex,
    SparseVector,
    delta,
    inner,
    orthonormalize,
    same_space,
    to_dense,
)

GRAM_SYMMETRY_TOL = 1e-8


@dataclass
class GramFunction:
    """Matrices g -> <rep(g)v_i, v_j> over a finite ordered element set F."""

    oracle: GroupOracle | None
    F: list
    n: int
    M: dict

    def __post_init__(self):
        if not self.F:
            raise PreconditionError("Gram function needs a nonempty element set")
        if len(set(map(repr, self.F))) != len(self.F):
            raise PreconditionError("Gram function element set has duplicates")
        for g in self.F:
            A = np.asarray(self.M[g], dtype=complex)
            if A.shape != (self.n, self.n):
                raise PreconditionError(f"Gram matrix at {g!r} has wrong shape {A.shape}")
            if not np.all(np.isfinite(A)):
                raise PreconditionError(f"Gram matrix at {g!r} has a non-finite entry")
            self.M[g] = A
        if self.oracle is not None:
            e = self.oracle.identity()
            if e in self.M:
                A = self.M[e]
                if np.max(np.abs(A - A.conj().T)) > GRAM_SYMMETRY_TOL:
                    raise PreconditionError("Gram matrix at the identity is not Hermitian")
                if np.min(np.linalg.eigvalsh((A + A.conj().T) / 2)) < -GRAM_SYMMETRY_TOL:
                    raise PreconditionError("Gram matrix at the identity is not PSD")
            for g in self.F:
                ginv = self.oracle.invert(g)
                if ginv in self.M:
                    if np.max(np.abs(self.M[ginv] - self.M[g].conj().T)) > GRAM_SYMMETRY_TOL:
                        raise PreconditionError(
                            f"Gram matrices at {g!r} and its inverse are not adjoint"
                        )

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(self.M[g]))) for g in self.F)


def _gram_matrices(rep: Representation, vectors, F) -> dict:
    """``M[g][i][j] = <rep(g)v_i, v_j>`` for each g in F, by the sparse ``inner`` formula."""
    M = {}
    for g in F:
        moved = [rep.apply(g, v) for v in vectors]
        M[g] = np.array([[inner(mv, w) for w in vectors] for mv in moved], dtype=complex)
    return M


def gram(rep: Representation, vectors, F, oracle=None) -> GramFunction:
    """Gram function of the vectors under ``rep`` over the element set ``F``."""
    vectors = list(vectors)
    if not vectors:
        raise PreconditionError("gram needs at least one vector")
    for v in vectors:
        if not same_space(v.space, rep):
            raise KindMismatchError("gram vector lives outside the representation space")
    F = list(F)
    return GramFunction(oracle if oracle is not None else rep.oracle, F, len(vectors),
                        _gram_matrices(rep, vectors, F))


class GramNonzeros(NamedTuple):
    """The nonzeros ``T[g, i, j] = value`` of a ``(|F|, K, K)`` Gram tensor, g-major."""

    g: np.ndarray
    i: np.ndarray
    j: np.ndarray
    value: np.ndarray
    shape: tuple


def _gram_tensor(rep: Representation, vectors, F) -> GramNonzeros:
    """Nonzeros of T_g[i, j] = <rep(g)v_i, v_j>, one product ``Moved_g @ V^H`` per g.

    The block form of ``gram`` for a descent over the span of a
    ``Subspace``. Each g-slice is built, reduced to its nonzeros and
    dropped, so the ``(|F|, K, K)`` stack is never held. A ball delta basis
    reads the same arrays off its ball instead (``BallBasis.gram_tensor``),
    with no ``apply``. ``gram`` and ``discrepancy`` keep the sparse ``inner``
    formula (``_gram_matrices``), and so does ``verify`` of an
    explicit-basis report.
    Moved vectors are stacked over the columns of the vectors' own support;
    entries off it pair with zero and are left out.
    """
    index = KeyIndex(vectors)
    Vh = to_dense(vectors, index).conj().T
    parts = []
    for t, g in enumerate(F):
        T = to_dense([rep.apply(g, v) for v in vectors], index) @ Vh
        i, j = np.nonzero(T)
        parts.append((np.full(len(i), t), i, j, T[i, j]))
    g, i, j, value = (np.concatenate(c) for c in zip(*parts))
    K = len(vectors)
    return GramNonzeros(g, i, j, value, (len(F), K, K))


def _check_count(target: GramFunction, witnesses):
    if len(witnesses) != target.n:
        raise PreconditionError(f"expected {target.n} witnesses, got {len(witnesses)}")


def witness_matrices(target: GramFunction, rep: Representation, witnesses) -> dict:
    """Gram matrices of the witnesses over ``target.F``; one witness per target vector.

    The sparse ``inner`` formula, one ``rep.apply`` per witness and element:
    the Gram data of witnesses in a ``Subspace`` span, in the search and in
    ``verify``. Witnesses of a ball delta basis read theirs off the ball's
    tensor (``row_matrices``), to the same bits where the witnesses have
    equally many nonzeros.
    """
    witnesses = list(witnesses)
    _check_count(target, witnesses)
    return _gram_matrices(rep, witnesses, target.F)


def row_matrices(target: GramFunction, tensor: GramNonzeros, C) -> dict:
    """Gram matrices over ``target.F`` of the witnesses with coefficient rows ``C`` on a ball basis.

    ``tensor`` is the basis's ``gram_tensor(target.F)``: each T_g is a
    partial permutation, 1 at (i, j) where g x_i = x_j. So M[g][a, b] =
    <lambda(g)w_a, w_b> is the sum of C[a, i] conj(C[b, j]) over the
    nonzeros of T_g. Each product is formed as Python's complex product
    forms it, and ``np.bincount`` adds each entry's terms one at a time in
    the tensor's (ball) order, starting from 0.0 as ``sum`` does; a zero
    term leaves such a sum as it was. The matrices are therefore those of
    ``witness_matrices`` on ``basis.from_coords(C[a])``, bit for bit, where
    ``inner`` sums in the moved vector's order: whenever the witnesses have
    equally many nonzeros, and always for one witness.
    """
    C = np.asarray(C, dtype=complex)
    _check_count(target, C)
    nF, n = tensor.shape[0], len(C)
    x, y = C[:, tensor.i], C[:, tensor.j]
    xr, xi = x.real[:, None], x.imag[:, None]
    yr, yi = y.real[None], -y.imag[None]  # conj(C[b, j])
    pairs = np.arange(n * n).reshape(n, n, 1)
    bins = (tensor.g * (n * n) + pairs).ravel()
    M = np.empty(nF * n * n, dtype=complex)
    M.real = np.bincount(bins, (xr * yr - xi * yi).ravel(), len(M))
    M.imag = np.bincount(bins, (xr * yi + xi * yr).ravel(), len(M))
    return dict(zip(target.F, M.reshape(nF, n, n)))


def deviation(target: GramFunction, M: dict) -> float:
    """Max-abs entry of ``target.M[g] - M[g]`` over ``target.F``."""
    D = np.array([target.M[g] - M[g] for g in target.F])
    # hypot rounds as Python's abs(complex) does; np.abs can differ in the last bit
    return float(np.max(np.hypot(D.real, D.imag)))


def discrepancy(target: GramFunction, rep: Representation, witnesses) -> float:
    """Max-abs deviation of the witnesses' Gram function from the target."""
    return deviation(target, witness_matrices(target, rep, witnesses))


def trivial_target(oracle: GroupOracle, F=None) -> GramFunction:
    """Gram data of one invariant unit vector: M[g] = [[1]] over F.

    The default F is the identity together with the symmetric generating
    set; keeping the identity pins the witness norm, without which the
    data can be matched by rescaling alone.
    """
    if F is None:
        F = [oracle.identity()] + symmetric_generators(oracle)
    F = list(F)
    return GramFunction(oracle, F, 1, {g: np.array([[1.0 + 0j]]) for g in F})


@dataclass
class WitnessReport:
    """A search's witnesses and their discrepancy, with two lower bounds for it.

    On a trivial target over a ball delta basis ``certified_lower`` (of the
    witness's moduli) bounds the discrepancy of every witness in the span,
    and ``certified_floor`` that of every vector of a multiple of the
    regular representation; any other search leaves both None.
    """

    witnesses: list
    discrepancy: float
    iterations: int
    converged: bool
    certified_lower: float | None = None
    certified_floor: float | None = None
    gram: GramFunction | None = None  # the witnesses' Gram data over F, from search_witness
    target: GramFunction | None = None  # the Gram data realized, from transfer_witness


def _bincount_complex(bins, weights, size):
    """``np.bincount`` of complex weights, the real and imaginary parts summed apart."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(bins, weights.real, size)
    out.imag = np.bincount(bins, weights.imag, size)
    return out


def _objective_and_gradient(tensor: GramNonzeros, targets):
    """The search objective on the nonzeros of ``tensor``: ``C -> (f, G, worst)``.

    With D_g = C T_g C^H - M_g (``targets`` stacks the M_g to ``(|F|, n, n)``),
    f = sum_g |D_g|^2, worst = max |D_g| and G = 2 sum_g (D_g^H C T_g + D_g C
    T_g^H) is its matrix gradient. ``C T_g`` is a scatter: each nonzero
    T_g[i, j] adds ``C[:, i] * value`` to bin ``(g, row, j)``. The second term
    is the adjoint of ``sum_g T_g X_g`` with X_g = C^H D_g^H, a gather: each
    nonzero adds ``value * X_g[j]`` to bin i, so T is never conjugated. The bin indices
    are computed here once; the returned function evaluates one C.

    On a monomial T_g (a partial permutation with unit entries, as for a
    delta basis of a regular representation) each bin takes one exact
    product ``c * (1 + 0j)`` per g, and the sum over g runs in g order, so the
    values equal the dense batched products ``C @ T`` and
    ``sum(T @ (C^H D^H), axis=0)`` bit for bit.
    """
    nF, K, _ = tensor.shape
    targets = np.asarray(targets)
    n = targets.shape[1]
    rows = np.arange(n)[:, None]
    scatter = (tensor.g * (n * K) + rows * K + tensor.j).ravel()
    gather = (tensor.i[:, None] * n + rows.T).ravel()

    def evaluate(C):
        CT = _bincount_complex(scatter, (C[:, tensor.i] * tensor.value).ravel(), nF * n * K)
        CT = CT.reshape(nF, n, K)
        D = CT @ C.conj().T - targets
        absD = np.abs(D)
        Dh = D.conj().transpose(0, 2, 1)
        X = C.conj().T @ Dh
        TX = _bincount_complex(gather, (tensor.value[:, None] * X[tensor.g, tensor.j]).ravel(),
                               K * n)
        G = np.sum(Dh @ CT, axis=0) + TX.reshape(K, n).conj().T
        return float(np.sum(absD ** 2)), 2.0 * G, float(np.max(absD))

    return evaluate


def is_trivial_on(target: GramFunction, oracle: GroupOracle) -> bool:
    """Whether ``target`` is the trivial data: n = 1 and M_g = [[1]] exactly, on F holding e and S.

    S is ``oracle``'s symmetric generating set, the steps of its Cayley balls.
    """
    return (target.n == 1 and all(target.M[g][0, 0] == 1 for g in target.F)
            and {oracle.identity(), *symmetric_generators(oracle)} <= set(target.F))


def certified_floor(oracle: GroupOracle) -> float:
    """Lower bound for the trivial-target discrepancy of every vector of a multiple of lambda.

    The largest double f with (1 + f)^2 rho^2 <= (1 - f)^2, for the norm
    bound rho^2 = ``squared_norm_bound(oracle)`` of the averaged shift, that
    is f <= (1 - rho)/(1 + rho): 0 where rho = 1, and 7 - 4 sqrt(3) on F2
    (Kesten 1959).
    """
    rho2 = squared_norm_bound(oracle)
    rho = math.sqrt(rho2)
    return round_outward((1.0 - rho) / (1.0 + rho),
                         lambda f: (1 + f) ** 2 * rho2 <= (1 - f) ** 2, -math.inf)


def _bound_ball(basis: Subspace | BallBasis | None, target: GramFunction) -> Ball | None:
    """The ball of a ball delta basis on a target trivial on its steps; None for any other span."""
    if isinstance(basis, BallBasis) and is_trivial_on(target, basis.oracle):
        return basis.ball
    return None


def span_bounds(basis: Subspace | BallBasis | None, target: GramFunction, witnesses) -> tuple:
    """A search's ``certified-lower`` and ``certified-floor``, each None where it does not apply.

    They apply to a ball delta basis (``ball_delta_basis``) and a target
    trivial on its ball's steps (``is_trivial_on``); ``basis`` None stands
    for any other span, and the ball is built only where the bounds apply.
    The lower bound reads the moduli of the one witness in ball order, with
    no eigen solve: for their Collatz-Wielandt ratio
    cw = ``collatz_wielandt(|w|, M|w|)``, which bounds the top eigenvalue of
    the ball's averaged shift M from above, it is max(0, (1 - cw)/(1 + cw)),
    and None where a ball point has modulus 0. The floor is
    ``certified_floor``.
    """
    B = _bound_ball(basis, target)
    if B is None:
        return None, None
    w = witnesses[0].entries
    moduli = np.array([abs(w.get((0, x), 0)) for x in B.elements])
    cw = collatz_wielandt(moduli, averaged_shift(B, len(B))(moduli))
    lower = None if cw is None else max(0.0, (1.0 - cw) / (1.0 + cw))
    return lower, certified_floor(B.oracle)


def search_witness(target: GramFunction, pi: Representation, basis: Subspace | BallBasis,
                   tol: float, budget: int = 1500, seed: int = 0,
                   restarts: int = 8) -> WitnessReport:
    """Search for witness vectors in the span of ``basis``.

    Minimizes the smooth sum-of-squares surrogate of the max-abs deviation
    by gradient descent with backtracking line search, restarting from
    seeded random coefficient matrices; the best restart wins, ties going
    to the earliest. The objective reads only the nonzeros of the basis's
    Gram tensor, built once per search. On a ball delta basis
    (``ball_delta_basis``) that is ``BallBasis.gram_tensor``, read off the
    ball before anything is scored: the objective takes O(|F| n K) per
    evaluation, its values are those of the dense batched products, bit for
    bit, and every scored witness's Gram data is ``row_matrices`` of its
    coefficient rows on the same tensor, so no ``apply`` runs. A
    ``Subspace`` span builds ``_gram_tensor`` only when a descent runs and
    scores its witnesses by ``witness_matrices``. The reported discrepancy
    is always the max-abs deviation of the returned witnesses' Gram data.

    On a ball delta basis and a target trivial on the ball's steps
    (``is_trivial_on``) restart 0 is the ball's Perron vector v
    from ``min_defect``, scaled to c v with c^2 = 2/(1 + mu) for its Rayleigh
    quotient mu: its deviation is (1 - mu)/(1 + mu) at e and, where the
    correlations <lambda(s)v, v> are equal (F2, Z^2), at every step, which
    the span cannot beat. The report then carries ``span_bounds`` of the
    returned witness: a lower bound from its moduli and ``certified_floor``
    (7 - 4 sqrt(3) on F2).
    The start is returned at once, with 0 iterations, when its discrepancy
    is at most ``tol`` or ``tol`` lies below its certified lower bound, which
    proves that no witness of the span reaches ``tol``; otherwise it is
    descended, and the random restarts 1.. follow. Any other target or basis
    draws every restart at random, and its bounds are None.
    """
    K = basis.dim  # a ball delta basis builds its ball here, so a ball past its cap ends first
    if not 0 < tol < np.inf:
        raise PreconditionError(f"tol must be finite and positive, got {tol!r}")
    if K == 0:
        raise PreconditionError("witness search needs a nonempty basis")
    n = target.n
    B = _bound_ball(basis, target)
    start = ball_tensor = None
    if isinstance(basis, BallBasis):
        if not same_space(basis.ambient, pi):
            raise KindMismatchError("the ball basis lives outside the representation space")
        ball_tensor = basis.gram_tensor(target.F)

    def scored(C, iterations):
        witnesses = [basis.from_coords(c) for c in C]
        M = (witness_matrices(target, pi, witnesses) if ball_tensor is None
             else row_matrices(target, ball_tensor, C))
        G = GramFunction(target.oracle, target.F, n, M)
        disc = deviation(target, G.M)
        return WitnessReport(witnesses, disc, iterations, bool(disc <= tol),
                             *span_bounds(basis, target, witnesses), G)

    if B is not None:
        row = min_defect(B)
        mu = 1.0 - row.min_avg_sq_defect / 2.0  # the Rayleigh quotient of v
        start = (2.0 / (1.0 + mu)) ** 0.5 * row.amplitudes[None, :]
        report = scored(start, 0)
        lower = report.certified_lower
        if report.converged or (lower is not None and tol < lower):
            return report
    tensor = ball_tensor if ball_tensor is not None else _gram_tensor(pi, basis.basis, target.F)
    objective = _objective_and_gradient(tensor, np.array([target.M[g] for g in target.F]))
    rng = np.random.default_rng(seed)
    scale = max(target.max_abs(), 1e-6) ** 0.5 / max(K, 1) ** 0.5
    best_C, best_disc, total_iters = None, float("inf"), 0
    for k in range(max(1, restarts)):
        if k == 0 and start is not None:
            C = start.astype(complex)
        else:
            C = scale * (rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K)))
        f, G, worst = objective(C)
        step = 1.0
        for _ in range(max(1, budget)):
            total_iters += 1
            if worst <= tol:
                break
            gnorm2 = float(np.sum(np.abs(G) ** 2))
            if gnorm2 <= 1e-24 * (1.0 + f):
                break
            accepted = False
            while step > 1e-18:
                C_new = C - step * G
                f_new, G_new, worst_new = objective(C_new)
                if f_new <= f - 1e-4 * step * gnorm2:
                    C, f, G, worst = C_new, f_new, G_new, worst_new
                    step *= 1.5
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
        if worst < best_disc:
            best_disc, best_C = worst, C
        if best_disc <= tol:
            break
    return scored(best_C, total_iters)


class BallBasis:
    """The delta vectors of shift copy 0 on the radius-``radius`` Cayley ball of ``oracle``.

    A span in ball order, read as ``Subspace`` is (``dim``, ``basis``,
    ``from_coords``), whose deltas are orthonormal by construction. The ball
    (under the element cap ``cap``) is built when first read, so a span that
    is neither searched nor bounded (``span_bounds``) builds no ball. The
    deltas are built only when ``basis`` is read: the search and ``verify``
    read the span's Gram tensor off the ball (``gram_tensor``) and its
    vectors as coordinate rows (``from_coords``, ``coords``).
    """

    def __init__(self, ambient: Representation, oracle: GroupOracle, radius: int, cap: int):
        self.ambient, self.oracle, self.radius, self.cap = ambient, oracle, radius, cap

    @cached_property
    def ball(self) -> Ball:
        return ball(self.oracle, self.radius, self.cap)

    @property
    def dim(self) -> int:
        return len(self.ball)

    @cached_property
    def basis(self) -> list:
        return [delta(self.ambient, 0, x) for x in self.ball.elements]

    def gram_tensor(self, F) -> GramNonzeros:
        """``_gram_tensor(ambient, basis, F)``, array for array, read off the ball.

        T_g[i, j] = <lambda(g)delta_{x_i}, delta_{x_j}> is 1 where g x_i = x_j:
        every i for g = e, the ball's ``left[:, s]`` for a step s, and for
        any other g (checked once) one unchecked product g x per ball
        element, looked up in the ball's index. No vector is built and no
        key is checked again: each x is an element the ball built.
        """
        B, oracle = self.ball, self.oracle
        e, steps = oracle.identity(), {s: j for j, s in enumerate(B.steps)}
        parts = []
        for t, g in enumerate(F):
            if g == e:
                j = np.arange(len(B))
            elif g in steps:
                j = B.left[:, steps[g]]
            else:
                oracle.check_element(g)
                j = np.array([B.index.get(oracle._mul(g, x), -1) for x in B.elements],
                             dtype=np.intp)
            i = np.flatnonzero(j >= 0)
            parts.append((np.full(len(i), t), i, j[i]))
        g, i, j = (np.concatenate(c) for c in zip(*parts))
        return GramNonzeros(g, i, j, np.ones(len(i), dtype=complex), (len(F), len(B), len(B)))

    def coords(self, v: SparseVector) -> np.ndarray:
        """The coordinate row of ``v`` over the ball, ``from_coords``'s inverse.

        A key outside copy 0 or off the ball is not in the span: PreconditionError.
        """
        c = np.zeros(self.dim, dtype=complex)
        index, oracle = self.ball.index, self.oracle
        for (copy, x), amp in v:
            if copy != 0 or x not in index:
                where = oracle.element_to_str(x) if copy == 0 else f"copy {copy}"
                raise PreconditionError(
                    f"entry at {where} is off the span: the deltas of copy 0 on the "
                    f"radius-{self.radius} ball")
            c[index[x]] = amp
        return c

    def from_coords(self, c) -> SparseVector:
        """``c @ Q`` for the identity Q: coordinate i is the amplitude at ``ball.elements[i]``."""
        keys = ((0, x) for x in self.ball.elements)
        return SparseVector(self.ambient, dict(zip(keys, np.asarray(c, dtype=complex).tolist())))


def ball_delta_basis(rep: Representation, r: int, cap: int = DEFAULT_BALL_CAP) -> BallBasis:
    """Delta vectors on the Cayley ball of shift copy 0; exactly orthonormal, built when read."""
    atom = rep.resolve(0)
    if not isinstance(atom, Regular):
        raise PreconditionError("ball basis requires a shift copy at index 0")
    return BallBasis(rep, atom.oracle, r, cap)


def shift_defect(w: SparseVector, g) -> float:
    """``||lambda(g)w - w||^2`` in floats, for a vector w of the regular representation."""
    return (w.space.apply(g, w) - w).norm2()


def shift_defect_exact(oracle, w: SparseVector, g) -> Fraction:
    """Exact ``||lambda(g)w - w||^2 / ||w||^2`` for a vector w of the regular representation.

    Float amplitudes are dyadic rationals n / 2^k: scaled by the largest
    2^k they are integers, and the ratio of integer sums is w's own defect,
    with no rounding.
    """
    ratios = {key: (a.real.as_integer_ratio(), a.imag.as_integer_ratio())
              for key, a in w.entries.items()}
    scale = max(d for pair in ratios.values() for _n, d in pair)
    amps = {key: tuple(n * (scale // d) for n, d in pair) for key, pair in ratios.items()}
    diff = {(c, oracle.multiply(g, x)): a for (c, x), a in amps.items()}  # lambda(g)w
    for key, (re, im) in amps.items():
        moved_re, moved_im = diff.get(key, (0, 0))
        diff[key] = (moved_re - re, moved_im - im)

    def norm2(parts):
        return sum(re * re + im * im for re, im in parts)

    return Fraction(norm2(diff.values()), norm2(amps.values()))


def folner_witness(oracle: GroupOracle, F, eps: float,
                   cap: int = DEFAULT_BALL_CAP) -> SparseVector:
    """Almost-invariant unit vector of the regular representation, certified exactly.

    Returns the defect probe's Perron vector
    ``min_defect(ball(oracle, r, cap)).argmin`` at the smallest radius
    r = 1, 2, ... whose exact defect ``shift_defect_exact`` is at most
    ``eps`` for every element of F. Each radius is screened with the float
    defect first; only a radius that passes is recounted exactly. On a
    finite group the ball saturates and its Perron vector is constant, with
    defect exactly 0. A ball past ``cap`` elements raises
    ``ResourceLimitError`` naming the smallest max-over-F defect reached and
    its radius; on a non-amenable group Kesten's bound keeps that defect
    away from 0.
    """
    if not 0 < eps < np.inf:
        raise PreconditionError(f"eps must be finite and positive, got {eps!r}")
    F = list(F)
    for g in F:
        oracle.check_element(g)
    best = None  # (max float defect over F, radius)
    r = 0
    while True:
        r += 1
        try:
            w = min_defect(ball(oracle, r, cap)).argmin
        except ResourceLimitError as exc:
            if best is None:
                raise
            raise ResourceLimitError(
                f"{exc}; best max defect over F {best[0]!r} at radius {best[1]}") from None
        worst = max((shift_defect(w, g) for g in F), default=0.0) / w.norm2()
        if best is None or worst < best[0]:
            best = (worst, r)
        if worst <= eps and all(shift_defect_exact(oracle, w, g) <= Fraction(eps) for g in F):
            return w


def _tail_structure(rho):
    """The infinite shift tail of rho; validate the shape."""
    if not isinstance(rho, DirectSum) or len(rho.parts) < 2:
        raise PreconditionError(
            "transfer expects a direct sum ending in an infinite stack of shift copies"
        )
    tail = rho.parts[-1]
    if not (isinstance(tail, Multiple) and tail.count is None
            and isinstance(tail.base, Regular)):
        raise PreconditionError(
            "transfer expects the last summand to be an infinite stack of shift copies"
        )
    return tail


def transfer_witness(rho: Representation, params, targets, F, eps: float,
                     dim_cap: int = DEFAULT_DIM_CAP,
                     cap: int = DEFAULT_BALL_CAP) -> WitnessReport:
    """Realize extension data inside untouched shift copies.

    ``rho`` must be a direct sum whose last summand is an infinite stack
    of shift copies; the other summands form the explicit extension
    (common part plus complement). Parameters must be supported in the
    common part plus finitely many stack copies. Each target splits into
    its projection onto that subspace (kept verbatim) and a remainder w_i
    whose Gram data is reproduced in fresh stack copies by tensoring with
    the almost-invariant unit vector f of ``folner_witness``. For real f,
    <lambda(g)f, f> = ||f||^2 - ||lambda(g)f - f||^2 / 2, so the per-entry
    error is max|M| * ||lambda(g)f - f||^2 / 2, which f is chosen to keep
    below ``eps``. ``cap`` bounds f's Cayley ball as in ``folner_witness``.

    The tensor product is Fell's absorption, xi (x) delta_h ->
    rho(h)^-1 xi (x) delta_h, read in the canonical basis: every key of a
    shifted remainder rho(h)^-1 w_i (h in the support of f), in first-seen
    ``KeyIndex`` order, is one fresh stack copy, and the witness's
    amplitude at (copy k, h) is f(h) times the amplitude of rho(h)^-1 w_i at
    key k. The keys span every shifted remainder, so the map is exactly
    isometric. The fresh copies start right after the highest stack copy
    that a parameter or target touches; ``dim_cap`` bounds their number.
    They depend on the inputs only, so repeated calls on the same ``rho``
    return the same witnesses.
    """
    if not 0 < eps < np.inf:
        raise PreconditionError(f"eps must be finite and positive, got {eps!r}")
    tail = _tail_structure(rho)
    oracle = tail.base.oracle
    params = list(params)
    targets = list(targets)
    for v in params + targets:
        if not same_space(v.space, rho):
            raise KindMismatchError("transfer vectors must live in the extension space")
    F = list(F)
    tail_start = rho.part_offset(len(rho.parts) - 1)
    common_end = rho.part_offset(1)
    # the kept subspace: the common part and the stack copies the parameters touch
    kept_end = tail_start
    for v in params:
        for leaf, _key in v.entries:
            if common_end <= leaf < tail_start:
                raise PreconditionError(
                    "parameters must be supported in the common part and the shift stack"
                )
            kept_end = max(kept_end, leaf + 1)
    kept = [v.restrict(lambda key: key[0] < common_end or tail_start <= key[0] < kept_end)
            for v in targets]
    remainders = [v - u for v, u in zip(targets, kept)]
    witnesses = params + kept
    total_target = gram(rho, params + targets, F, oracle=oracle)

    if any(not w.is_zero() for w in remainders):
        rem_gram = gram(rho, remainders, F, oracle=oracle)
        f = folner_witness(oracle, F, eps / max(1.0, rem_gram.max_abs()), cap)
        phi = [(h, amp.real) for (_c, h), amp in f]
        shifted = [[rho.apply(oracle.invert(h), w) for h, _a in phi] for w in remainders]
        index = KeyIndex(s for row in shifted for s in row)
        if len(index) > dim_cap:
            raise ResourceLimitError(f"dimension cap {dim_cap} exceeded")
        first = max([kept_end - 1] + [leaf for v in targets for leaf, _key in v.entries]) + 1
        witnesses = params + [
            u + SparseVector(rho, {(first + index.column[key], h): amp * a
                                   for (h, a), s in zip(phi, row) for key, amp in s})
            for u, row in zip(kept, shifted)]
    disc = discrepancy(total_target, rho, witnesses)
    return WitnessReport(witnesses, disc, 0, bool(disc <= eps), target=total_target)
