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

Every span a search reads gives its Gram tensor through one call,
``span_tensor``, and every witness's Gram data is ``row_matrices`` of its
coefficient rows on that tensor, in the search and in ``verify``. Both ball
readings go through one index map, ``Ball.left_column(g)``: the Gram
tensor of a ball delta basis (``BallBasis.gram_tensor``) and the shift
defect of amplitudes in ball order (``shift_defect``), which is an
exact ``Fraction`` of integer sums, with no float path and no oracle
product per entry.

On the trivial target (one invariant unit vector) over a Cayley ball the
same Perron vector is the search's start, and Kesten's bound (Kesten 1959)
with a Collatz-Wielandt ratio (Wielandt 1950) proves how close any witness
can come: if a vector v on the ball matches [[1]] within delta at e and at
every step s, then 1 - delta <= Re<Mv, v> <= lambda(1 + delta) for the
ball-compressed averaged shift M and any bound lambda on its norm, so
delta >= (1 - lambda)/(1 + lambda).
"""

from __future__ import annotations

import itertools
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
from .amenability import (DefectReport, averaged_shift, collatz_wielandt, min_defect,
                          round_outward, squared_norm_bound)
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

    The block form of ``gram`` over the basis vectors of a ``Subspace``
    (``span_tensor``). Each g-slice is built, reduced to its nonzeros and
    dropped, so the ``(|F|, K, K)`` stack is never held. A ball delta basis
    reads the same arrays off its ball instead (``BallBasis.gram_tensor``),
    with no ``apply``. ``gram`` and ``discrepancy`` keep the sparse ``inner``
    formula (``_gram_matrices``).
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


def row_matrices(target: GramFunction, tensor: GramNonzeros, C) -> dict:
    """Gram matrices over ``target.F`` of the witnesses with coefficient rows ``C`` on a span.

    ``tensor`` is the span's ``span_tensor(basis, target.F)``, so M[g][a, b] =
    <pi(g)w_a, w_b> for w_a = ``basis.from_coords(C[a])`` is the sum of
    (C[a, i] T_g[i, j]) conj(C[b, j]) over the nonzeros of T_g. On a ball
    delta basis each T_g is a partial permutation, exactly 1 at (i, j) where
    g x_i = x_j, so the first factor is C[a, i] itself. Each product is
    formed as Python's complex product forms it, and ``np.bincount`` adds
    each entry's terms one at a time in the tensor's (ball) order, starting
    from 0.0 as ``sum`` does; a zero term leaves such a sum as it was. On a
    ball the matrices are therefore those of ``gram`` of the witnesses, bit
    for bit, where ``inner`` sums in the moved vector's order: whenever the
    witnesses have equally many nonzeros, and always for one witness. On a
    ``Subspace`` they agree with it to rounding.
    """
    C = np.asarray(C, dtype=complex)
    _check_count(target, C)
    nF, n = tensor.shape[0], len(C)
    x, y = C[:, tensor.i] * tensor.value, C[:, tensor.j]
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
    """Max-abs deviation of the witnesses' Gram function from the target, one witness per vector.

    The witnesses' Gram matrices come from the sparse ``inner`` formula, one
    ``rep.apply`` per witness and element of ``target.F``.
    """
    witnesses = list(witnesses)
    _check_count(target, witnesses)
    return deviation(target, _gram_matrices(rep, witnesses, target.F))


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
    span's Perron row) bounds the discrepancy of every witness in the span,
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


def span_tensor(basis: Subspace | BallBasis, F) -> GramNonzeros:
    """The Gram tensor over ``F`` of the span's orthonormal basis, which ``row_matrices`` reads.

    A ball delta basis reads it off its ball (``BallBasis.gram_tensor``); a
    ``Subspace`` forms it from its basis vectors (``_gram_tensor``).
    """
    if isinstance(basis, BallBasis):
        return basis.gram_tensor(F)
    return _gram_tensor(basis.ambient, basis.basis, F)


def span_bounds(basis: Subspace | BallBasis | None, target: GramFunction) -> tuple:
    """A search's ``certified-lower`` and ``certified-floor``, each None where it does not apply.

    They apply to a ball delta basis (``ball_delta_basis``) and a target
    trivial on its ball's steps (``is_trivial_on``); ``basis`` None stands
    for any other span, and the ball is built only where the bounds apply.
    Both bound every witness of the span, so neither reads a witness. The
    lower bound reads the span's Perron row (``BallBasis.perron``, the
    search's start): for the Collatz-Wielandt ratio cw =
    ``collatz_wielandt(v, Mv)`` of its amplitudes v, which bounds the top
    eigenvalue of the ball's averaged shift M from above, it is
    max(0, (1 - cw)/(1 + cw)), and None where an amplitude is not positive.
    The floor is ``certified_floor``.
    """
    if not (isinstance(basis, BallBasis) and is_trivial_on(target, basis.oracle)):
        return None, None
    B, v = basis.ball, basis.perron.amplitudes
    cw = collatz_wielandt(v, averaged_shift(B, len(B))(v))
    lower = None if cw is None else max(0.0, (1.0 - cw) / (1.0 + cw))
    return lower, certified_floor(B.oracle)


def search_witness(target: GramFunction, pi: Representation, basis: Subspace | BallBasis,
                   tol: float, budget: int = 1500, seed: int = 0,
                   restarts: int = 8) -> WitnessReport:
    """Search for witness vectors in the span of ``basis``.

    Minimizes the smooth sum-of-squares surrogate of the max-abs deviation
    by gradient descent with backtracking line search, restarting from
    seeded random coefficient matrices; the best restart wins, ties going
    to the earliest. The objective reads only the nonzeros of the span's
    Gram tensor (``span_tensor``), built once per search before anything is
    scored, and every scored witness's Gram data is ``row_matrices`` of its
    coefficient rows on the same tensor. On a ball delta basis
    (``ball_delta_basis``) the tensor is read off the ball: the objective
    takes O(|F| n K) per evaluation, its values are those of the dense
    batched products, bit for bit, and no ``apply`` runs. The reported
    discrepancy is always the max-abs deviation of the returned witnesses'
    Gram data.

    On a ball delta basis and a target trivial on the ball's steps
    (``is_trivial_on``) restart 0 is the ball's Perron vector v
    (``BallBasis.perron``), scaled to c v with c^2 = 2/(1 + mu) for its
    Rayleigh quotient mu: its deviation is (1 - mu)/(1 + mu) at e and, where
    the correlations <lambda(s)v, v> are equal (F2, Z^2), at every step,
    which the span cannot beat. The report then carries ``span_bounds``, read
    off the same row, so the search solves once: the span's lower bound,
    which a descended witness keeps, and ``certified_floor`` (7 - 4 sqrt(3)
    on F2).
    The start is returned at once, with 0 iterations, when its discrepancy
    is at most ``tol`` or ``tol`` lies below the span's lower bound, which
    proves that no witness of the span reaches ``tol``; otherwise it is
    descended, and the random restarts 1.. follow. Any other target or basis
    draws every restart at random, and its bounds are None.
    """
    K = basis.dim  # a ball delta basis builds its ball here, so a ball past its cap ends first
    if not 0 < tol < np.inf:
        raise PreconditionError(f"tol must be finite and positive, got {tol!r}")
    if K == 0:
        raise PreconditionError("witness search needs a nonempty basis")
    if not same_space(basis.ambient, pi):
        raise KindMismatchError("the basis lives outside the representation space")
    n, start = target.n, None
    tensor = span_tensor(basis, target.F)
    lower, floor = span_bounds(basis, target)

    def scored(C, iterations):
        G = GramFunction(target.oracle, target.F, n, row_matrices(target, tensor, C))
        disc = deviation(target, G.M)
        return WitnessReport([basis.from_coords(c) for c in C], disc, iterations,
                             bool(disc <= tol), lower, floor, G)

    if floor is not None:  # the bounds apply: the start is the span's Perron row
        row = basis.perron
        mu = 1.0 - row.min_avg_sq_defect / 2.0  # the Rayleigh quotient of v
        start = (2.0 / (1.0 + mu)) ** 0.5 * row.amplitudes[None, :]
        report = scored(start, 0)
        if report.converged or (lower is not None and tol < lower):
            return report
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

    A span in ball order, orthonormal by construction, whose vectors are
    coordinate rows over the ball (``dim``, ``from_coords``). The ball (under
    the element cap ``cap``) is built when first read, so a span that is
    neither searched nor bounded (``span_bounds``) builds no ball, and no
    delta vector is ever built: the search and ``verify`` read the span's
    Gram tensor off the ball (``gram_tensor``) and its Perron row off one
    solve (``perron``). Read as a one-leaf space (``resolve``,
    ``leaf_key_from_str``) it reads each vector key as the position of the
    ball element it spells, so ``serialize.parse_block`` reads a witness
    list in either wire form as the columns of its coordinate rows.
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
    def perron(self) -> DefectReport:
        """``min_defect`` of the ball: the search's start and the span's bound read this one row."""
        return min_defect(self.ball)

    def gram_tensor(self, F) -> GramNonzeros:
        """``_gram_tensor`` of the ball's deltas over ``F``, array for array, read off the ball.

        T_g[i, j] = <lambda(g)delta_{x_i}, delta_{x_j}> is 1 where g x_i = x_j,
        that is at j = ``ball.left_column(g)[i]``: no vector is built and no
        key is checked again.
        """
        B = self.ball
        J = np.array([B.left_column(g) for g in F])
        g, i = np.nonzero(J >= 0)  # g-major, each g's i ascending
        return GramNonzeros(g, i, J[g, i], np.ones(len(i), dtype=complex),
                            (len(F), len(B), len(B)))

    def _off_the_span(self, where) -> PreconditionError:
        return PreconditionError(f"entry at {where} is off the span: the deltas of copy 0 on "
                                 f"the radius-{self.radius} ball")

    def resolve(self, copy: int) -> BallBasis:
        """The basis itself, the one leaf, at copy 0; a key of any other copy is off the span."""
        if copy != 0:
            raise self._off_the_span(f"copy {copy}")
        return self

    def leaf_key_from_str(self, s: str) -> int:
        """The ball position of the element that ``s`` spells exactly as ``element_to_str`` does."""
        try:
            return self.ball.spelling[s]
        except KeyError:
            raise self._off_the_span(s) from None

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


def shift_defect(B: Ball, w, g) -> Fraction:
    """Exact ``||lambda(g)w - w||^2 / ||w||^2`` for amplitudes ``w`` in the ball order of ``B``.

    ``w`` is real or complex. A double is m 2^e with m 2^53 an integer
    (``np.frexp``), so scaled by the largest power-of-two denominator among
    all real and imaginary parts each part is an integer vector x, and the
    ratio of integer sums is w's own defect, with no rounding. lambda(g)
    moves the amplitude at x_i to ``B.left_column(g)[i]``, and mass moved off
    the ball meets nothing there, so ||lambda(g)x - x||^2 = 2(||x||^2 - sum
    x_i x_(g x_i)) over the i that stay on the ball, part by part.
    """
    w = np.asarray(w)
    if w.shape != (len(B),):
        raise PreconditionError(f"expected {len(B)} ball amplitudes, got shape {w.shape}")
    scaled = [np.frexp(part) for part in ((w.real, w.imag) if np.iscomplexobj(w) else (w,))]
    low = min(int(e.min()) for _m, e in scaled)
    parts = [np.array([n << k for n, k in zip((m * 2.0 ** 53).astype(np.int64).tolist(),
                                               (e - low).tolist())], dtype=object)
             for m, e in scaled]
    column = B.left_column(g)
    i = np.flatnonzero(column >= 0)
    norm2 = sum(x.dot(x) for x in parts)
    return Fraction(2 * (norm2 - sum(x[i].dot(x[column[i]]) for x in parts)), norm2)


def folner_witness(oracle: GroupOracle, F, eps: float,
                   cap: int = DEFAULT_BALL_CAP) -> DefectReport:
    """The defect probe's Perron row on the first ball whose vector is almost invariant under F.

    Returns ``min_defect(ball(oracle, r, cap))`` at the smallest radius
    r = 1, 2, ... where the exact ``shift_defect`` of its amplitudes is at
    most ``Fraction(eps)`` for every element of F; its ``argmin`` is the
    unit vector. On a finite group the ball saturates and its Perron vector
    is constant, with defect exactly 0. On an infinite amenable group the
    support needed grows like eps^(-d/2) for growth degree d: the radius-r
    ball's Dirichlet gap is of order r^-2 and its size of order r^d. A ball
    past ``cap`` elements raises ``ResourceLimitError`` naming the smallest
    max-over-F defect reached (the nearest double) and its radius; on a
    non-amenable group Kesten's bound keeps that defect away from 0.
    """
    if not 0 < eps < np.inf:
        raise PreconditionError(f"eps must be finite and positive, got {eps!r}")
    F = list(F)
    for g in F:
        oracle.check_element(g)
    best = None  # (max exact defect over F, radius)
    for r in itertools.count(1):
        try:
            row = min_defect(ball(oracle, r, cap))
        except ResourceLimitError as exc:
            if best is None:
                raise
            raise ResourceLimitError(f"{exc}; best max defect over F {float(best[0])!r} "
                                     f"at radius {best[1]}") from None
        worst = max((shift_defect(row.ball, row.amplitudes, g) for g in F), default=0)
        if best is None or worst < best[0]:
            best = (worst, r)
        if worst <= Fraction(eps):
            return row


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
    the almost-invariant unit vector f of ``folner_witness``: the positive
    Perron amplitudes f(h) of its row, read in ball order off the row's
    ball. For real f, <lambda(g)f, f> = ||f||^2 - ||lambda(g)f - f||^2 / 2,
    so the per-entry error is max|M| * ||lambda(g)f - f||^2 / 2, which f is
    chosen (by its exact defect) to keep below ``eps``. ``cap`` bounds f's
    Cayley ball as in ``folner_witness``.

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
        phi = list(zip(f.ball.elements, f.amplitudes.tolist()))
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
