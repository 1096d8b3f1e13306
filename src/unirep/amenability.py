"""Random-walk and almost-invariant-vector probes of amenability.

The probes are one-sided numerical certificates: exact return
probabilities of the symmetric walk (integer walk counts on a Cayley
ball), the smallest eigenvalue of the averaged shift-defect form on
Cayley balls, and a certified interval for the walk's spectral radius.
The last two are one number (Kesten): the minimum defect on a ball is
2(1 - lambda_max(M)) for the ball-compressed walk operator M, so both come
from one Perron solve, a restarted Lanczos iteration (Lanczos 1950) that
needs about O(r) products with M on an amenable ball where power
iteration needs O(r^2). Its Rayleigh quotient bounds lambda_max(M) from
below and the Collatz-Wielandt bound of its positive final vector bounds
it from above; the solve stops only once the two are within the
tolerance, which certifies the defect from both sides.

The operator and the walk are read off the ball's neighbour table: their
edges are x -> s x for the ball's ``left`` entries, with no product recomputed.
``defect_table`` gives the defect for every radius 1..r from one ball:
the ball enumerates in breadth-first order, so the radius-rho ball is a
prefix of the radius-r ball and its edges are the radius-r edges with
both ends in that prefix, in the same order. Each radius therefore
solves the same arrays as a ball built for it alone, and the defect
probe builds one ball per run. Each minimizer is kept as its amplitudes
in ball order. For the free kinds on their standard generators the walk
distribution is constant on spheres, so the walks are counted per
distance instead of on the full (exponentially growing) ball.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .groups import DEFAULT_BALL_CAP, FreeGroupOracle, GroupOracle, ball, symmetric_generators
from .reps import Regular
from .vectors import SparseVector

DEFAULT_SUPPORT_CAP = 100_000
RATIO_SLACK = 1e-12
RESTART = 24       # Krylov vectors per Lanczos cycle
BREAKDOWN = 1e-14  # a Lanczos beta this small (|M| <= 1) ends the cycle
EIGEN_TOL = 1e-9   # the defect solve's residual and certified gap


@dataclass
class ReturnProbabilityTable:
    """Exact return probabilities p_{2n}(e) of the symmetric walk, with estimator traces."""

    n_max: int
    p: dict            # even step -> Fraction
    root_estimates: dict = field(default_factory=dict)   # 2n -> p^{1/(2n)}
    ratio_estimates: dict = field(default_factory=dict)  # 2n -> sqrt(p_{2n+2}/p_{2n})

    def __post_init__(self):
        steps = sorted(self.p)
        if steps[0] != 0 or self.p[0] != 1:
            raise PreconditionError("return probabilities must start at p_0 = 1")
        for s in steps:
            value = float(self.p[s])
            if not (0 < value <= 1):
                raise PreconditionError(f"return probability out of range at step {s}")
            if s > 0:
                self.root_estimates[s] = value ** (1.0 / s)
        for a, b in zip(steps, steps[1:]):
            ratio = (float(self.p[b]) / float(self.p[a])) ** 0.5
            if ratio > 1 + RATIO_SLACK:
                raise PreconditionError(f"ratio estimator exceeds 1 at step {a}")
            self.ratio_estimates[a] = ratio

    @property
    def final_ratio(self) -> float:
        return self.ratio_estimates[max(self.ratio_estimates)]


def _walk_returns(rows, cols, n: int, deg: int, n_max: int) -> dict:
    """Exact p_{2n}(e) from integer counts of the walks along the edges ``rows[i] <- cols[i]``.

    Vertex 0 is e, and an edge listed k times carries k of the deg steps.
    """
    count = np.zeros(n, dtype=object)  # Python integers: no overflow
    count[0] = 1
    p = {0: Fraction(1)}
    for step in range(1, n_max + 1):
        new = np.zeros(n, dtype=object)
        np.add.at(new, rows, count[cols])
        count = new
        if step % 2 == 0:
            p[step] = Fraction(count[0], deg ** step)
    return p


def _free_on_standard_steps(oracle: GroupOracle, steps) -> bool:
    """Whether ``steps`` is a free group's standard symmetric generating set."""
    return isinstance(oracle, FreeGroupOracle) and set(steps) == set(symmetric_generators(oracle))


def return_probabilities(oracle: GroupOracle, S=None, n_max: int = 40,
                         support_cap: int = DEFAULT_SUPPORT_CAP) -> ReturnProbabilityTable:
    """Exact p_{2n}(e), 2n <= n_max, for the uniform walk on S union S^-1.

    The walks are counted in integers on the ball of radius n_max // 2, one
    scatter-add over its edges x -> s x per step, and p_{2n}(e) is the count
    at e over deg^(2n). The truncation is exact: a walk back at e by step
    2n <= n_max never leaves the radius-n ball. A ball of more than
    ``support_cap`` elements raises ``ResourceLimitError`` naming the radius
    reached. The free kinds on their standard generators count the walks
    per distance to e instead: from e all deg steps move out, from d > 0
    one moves in and deg - 1 move out.
    """
    if n_max < 2:
        raise PreconditionError("n_max must be at least 2, the first return step")
    steps = symmetric_generators(oracle, S)
    if not steps:
        return ReturnProbabilityTable(n_max, {s: Fraction(1) for s in range(0, n_max + 1, 2)})
    deg = len(steps)
    if _free_on_standard_steps(oracle, steps):
        d = np.arange(1, n_max // 2 + 1)  # a walk past distance n_max // 2 cannot return
        rows = np.concatenate([np.ones(deg, np.intp), np.repeat(d + 1, deg - 1), d - 1])
        cols = np.concatenate([np.zeros(deg, np.intp), np.repeat(d, deg - 1), d])
        return ReturnProbabilityTable(n_max, _walk_returns(rows, cols, len(d) + 2, deg, n_max))
    B = ball(oracle, n_max // 2, support_cap, S)
    return ReturnProbabilityTable(n_max, _walk_returns(*B.edges(len(B)), len(B), deg, n_max))


def _perron_solve(rows, cols, dim, deg, tol, max_iter):
    """Restarted Lanczos solve for the Perron eigenpair of the ball-compressed operator M.

    M has entries 1/deg on the edges ``rows[i] <- cols[i]``. It is
    symmetric, nonnegative and irreducible (the ball is connected), so its
    top eigenvector is positive. Each cycle checks the unit vector v (first
    the constant vector) and stops once v is positive and both the
    defect-form residual 2|Mv - mu v| and the certified gap 2(cw - mu) are
    at most ``tol``, for the Rayleigh quotient mu and the Collatz-Wielandt
    bound cw = max(max_i (Mv)_i / v_i, mu) (mu bounds the top eigenvalue
    from below, so it only lifts a ratio rounded under it). Otherwise the
    cycle builds a Krylov block of at most ``RESTART`` vectors from v with
    two-pass full reorthogonalization, ending early where the block spans an
    invariant subspace, and restarts from the top Ritz vector signed to a
    positive sum. Returns mu, cw, the residual, v and the number of products
    with M, at most ``max_iter``.
    """
    def matvec(x):
        return np.bincount(rows, weights=x[cols], minlength=dim) / deg

    v = np.full(dim, dim ** -0.5)
    products, stalled = 0, False
    while True:
        mv = matvec(v)
        products += 1
        mu = float(np.dot(v, mv))
        w = mv - mu * v
        residual = 2.0 * float(np.linalg.norm(w))
        if residual <= tol and np.all(v > 0):
            cw = max(float(np.max(mv / v)), mu)
            if 2.0 * (cw - mu) <= tol:
                return mu, cw, residual, v, products
        # a cycle needs one product past v and one to check its restart vector
        if stalled or products + 2 > max_iter:
            raise ConvergenceError(
                f"Lanczos did not reach residual and gap {tol} in {products} products",
                best=2.0 * (1.0 - mu),
            )
        Q = np.empty((min(RESTART, dim, max_iter - products), dim))
        Q[0] = v
        alpha, beta = [mu], []
        for j in range(1, len(Q)):
            for _ in range(2):  # twice is enough (Kahan-Parlett)
                w -= Q[:j].T @ (Q[:j] @ w)
            b = float(np.linalg.norm(w))
            if b <= BREAKDOWN:
                break
            Q[j] = w / b
            mq = matvec(Q[j])
            products += 1
            alpha.append(float(np.dot(Q[j], mq)))
            beta.append(b)
            w = mq - alpha[-1] * Q[j] - b * Q[j - 1]
        stalled = not beta  # v is an eigenvector to rounding, yet fails the check
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        v = np.linalg.eigh(T)[1][:, -1] @ Q[:len(alpha)]
        v /= np.linalg.norm(v) if v.sum() > 0 else -np.linalg.norm(v)


@dataclass
class DefectReport:
    """Smallest averaged squared shift defect over unit vectors on a Cayley ball.

    ``amplitudes`` is the minimizer in ball order: entry i is its amplitude
    at ``elements[i]``, a prefix of the ball's enumeration. ``argmin`` is the
    same vector as a ``SparseVector`` of the regular representation.
    """

    radius: int
    min_avg_sq_defect: float
    amplitudes: np.ndarray
    residual: float
    certified_lower_bound: float
    iterations: int  # products with the ball operator
    space: Regular = field(repr=False)
    elements: list = field(repr=False)

    @property
    def argmin(self) -> SparseVector:
        entries = {(0, x): a for x, a in zip(self.elements, self.amplitudes)}
        return SparseVector(self.space, entries)


def _defects(oracle, S, r, radii, tol, max_iter, ball_cap):
    """DefectReports for ``radii`` (each at most r), from one radius-r ball."""
    if r < 0:
        raise PreconditionError("radius must be non-negative")
    space = Regular(oracle)
    B = ball(oracle, r, ball_cap, S)
    deg = len(B.steps)
    if not deg:  # no steps: every vector is invariant
        return [DefectReport(rho, 0.0, np.ones(1), 0.0, 0.0, 0, space, B.elements)
                for rho in radii]
    reports = []
    for rho in radii:
        n = int(B.sizes[rho])
        rows, cols = B.edges(n)
        mu, cw_upper, residual, vec, iters = _perron_solve(rows, cols, n, deg, tol, max_iter)
        # the form is PSD: a Rayleigh quotient a rounding step past the top clamps to 0
        value = max(0.0, 2.0 * (1.0 - mu))
        lower = max(0.0, 2.0 * (1.0 - cw_upper))
        reports.append(DefectReport(rho, value, vec, residual, lower, iters, space, B.elements))
    return reports


def min_defect(oracle: GroupOracle, S=None, r: int = 4, tol: float = EIGEN_TOL,
               max_iter: int = 500_000, ball_cap: int = DEFAULT_BALL_CAP) -> DefectReport:
    """Minimum of (1/|S+S^-1|) sum_s ||shift_s(w) - w||^2 over unit w on the ball.

    The quadratic form equals 2(I - M) with M the ball-compressed averaged
    shift operator, assembled exactly from ball adjacency, so the minimum
    is 2(1 - lambda_max(M)) (Kesten). A restarted Lanczos solve returns a
    positive unit vector v whose defect-form residual and certified gap are
    both at most ``tol``. The value is max(0, 2(1 - mu)) for the Rayleigh
    quotient mu of v; the form is positive semidefinite, so it bounds the
    minimum from above. The certified lower bound is max(0, 2(1 - cw)) for
    the Collatz-Wielandt bound cw = max(max_i (Mv)_i / v_i, mu) >=
    lambda_max(M) (Wielandt 1950), so value - certified lower bound <= tol.
    ``max_iter`` is a budget of products with M, and ``iterations`` counts
    them. A solve that does not converge within it raises
    ``ConvergenceError`` whose ``best`` is the last defect value.
    """
    return _defects(oracle, S, r, [r], tol, max_iter, ball_cap)[0]


def defect_table(oracle: GroupOracle, S=None, r: int = 4, tol: float = EIGEN_TOL,
                 max_iter: int = 500_000,
                 ball_cap: int = DEFAULT_BALL_CAP) -> list[DefectReport]:
    """``min_defect`` at every radius 1..r, from one radius-r ball and edge list.

    Each row equals ``min_defect(oracle, S, rho, tol, max_iter, ball_cap)``
    exactly: the radius-rho operator is read off the radius-r one.
    """
    return _defects(oracle, S, r, range(1, r + 1), tol, max_iter, ball_cap)


@dataclass
class SpectralRadiusInterval:
    """Certified interval for the norm of the averaged shift operator.

    ``defect`` is the defect solve on the ball that gives the lower end.
    """

    radius: int
    lower: float
    upper: float
    defect: DefectReport

    @property
    def iterations(self) -> int:
        return self.defect.iterations

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def __contains__(self, x) -> bool:
        return self.lower <= x <= self.upper

    @classmethod
    def from_defect(cls, oracle: GroupOracle, S, defect: DefectReport) -> SpectralRadiusInterval:
        """The interval whose lower end is 1 - d/2 for the defect solve ``defect``."""
        lower = 1.0 - defect.min_avg_sq_defect / 2.0
        upper = min(1.0, max(certified_upper(oracle, S), lower))
        return cls(defect.radius, lower, upper, defect)


def certified_upper(oracle: GroupOracle, S=None) -> float:
    """Upper bound for the spectral radius of the walk on S union S^-1.

    The operator norm of an average of unitaries is at most 1. On a free
    group with its standard generators the Cayley graph is the 2k-regular
    tree, where the weight function (2k-1)^(-|x|/2) witnesses the sharp
    Schur-test bound sqrt(2k-1)/k.
    """
    steps = symmetric_generators(oracle, S)
    if _free_on_standard_steps(oracle, steps):
        k = oracle.rank
        return (2 * k - 1) ** 0.5 / k
    return 1.0


def spectral_radius_bound(oracle: GroupOracle, S=None, r: int = 6, tol: float = EIGEN_TOL,
                          max_iter: int = 500_000,
                          ball_cap: int = DEFAULT_BALL_CAP) -> SpectralRadiusInterval:
    """Certified spectral-radius interval from ball compression and norm bounds.

    The lower end is 1 - d/2 for the defect d = ``min_defect(oracle, S, r,
    tol, max_iter, ball_cap)``: the Rayleigh quotient of the final Lanczos
    vector for the ball-compressed averaged shift operator, and any
    Rayleigh quotient is a true lower bound. ``tol`` is therefore the
    defect-form residual and certified gap, and ``max_iter`` the budget of
    products with the operator. The upper end is a certified norm bound.
    The defect solve is attached as ``defect``; the walk's return
    probabilities are ``return_probabilities``.
    """
    defect = min_defect(oracle, S, r, tol, max_iter, ball_cap)
    return SpectralRadiusInterval.from_defect(oracle, S, defect)
