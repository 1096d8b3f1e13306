"""Random-walk and almost-invariant-vector probes of amenability.

The probes are one-sided numerical certificates: exact return
probabilities of the symmetric walk (integer walk counts on a Cayley
ball), the smallest eigenvalue of the averaged shift-defect form on
Cayley balls, and a certified interval for the walk's spectral radius.
The last two are one number (Kesten): the minimum defect on a ball is
2(1 - lambda_max(M)) for the ball-compressed walk operator M, so both come
from one Perron solve, a thick-restart Lanczos iteration (Lanczos 1950;
Wu and Simon 2000) that needs about O(r) products with M on an amenable
ball where power iteration needs O(r^2). Each restart keeps the top Ritz
vector and the next ``THICK`` ones, so a cycle goes on from the best
directions of the Krylov space the last one built. Its Rayleigh quotient
bounds lambda_max(M) from below and the Collatz-Wielandt bound of its
positive final vector (``collatz_wielandt``) bounds it from above; the
solve stops only once the two are within the tolerance, which certifies
the defect from both sides.

Every probe reads a prefix of the space ``probe_ball`` gives. On most
groups that is a ``Ball`` from ``groups.ball``, which alone decides the
steps and the element cap. The radius-rho ball is the prefix
``elements[:sizes[rho]]`` of any larger breadth-first ball, and its edges
x -> s x are the larger ball's ``left`` entries with both ends in that
prefix: a walk or a defect row read off a larger ball solves the same
arrays as on a ball of its own radius, and each minimizer is kept as its
amplitudes in ball order. A free group on its standard generators builds
no ball: its Cayley graph is the 2k-regular tree, whose automorphisms
fixing e act transitively on each sphere and commute with the walk and
with M. So the walk from e and M's Perron vector are radial, and both run
on the (r + 1)-point distance chain (``DistanceChain``), whose minimizers
are kept as one amplitude per sphere. Each space holds one in-neighbour
table, built once: the walk counts, every defect row and every
certificate gather along it, cut to their prefix.

``verify`` recomputes a report with the functions that made it:
``walk_block`` (the return-probability block of exact p_{2n}(e), with root
and ratio estimates, which tend to the spectral radius),
``defect_certificate`` (a vector's defect, which bounds the
minimum from above, with a Collatz-Wielandt bound from below) and
``spectral_ends`` (an interval that holds the walk operator's norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, PreconditionError, ResourceLimitError
# ball is kept bound here: the benchmark tracer checks every module binding of it
from .groups import (  # noqa: F401
    DEFAULT_BALL_CAP,
    Ball,
    FreeGroupOracle,
    GroupOracle,
    ball,
    symmetric_generators,
)
from .reps import Regular
from .vectors import SparseVector

RESTART = 24       # Krylov vectors per Lanczos cycle
THICK = 4          # Ritz vectors kept past the top one at a Lanczos restart
BREAKDOWN = 1e-14  # a Lanczos beta this small (|M| <= 1) ends the cycle
EIGEN_TOL = 1e-9   # the defect solve's residual and certified gap
MAX_PRODUCTS = 500_000  # the defect solve's budget of products with the ball operator


def _walk_returns(into, mult, deg: int, n_max: int) -> dict:
    """Exact p_{2n}(e) from integer counts of the walks along the in-neighbour table ``into``.

    Column i of ``into`` lists the tails of the edges into point i of an
    n-point prefix, and an entry n reads a zero pad slot; ``mult`` holds how
    many of the deg steps each entry stands for, or is None for one each.
    Point 0 is e.
    """
    n = into.shape[1]
    count = np.zeros(n + 1, dtype=object)  # Python integers: no overflow; count[n] is the pad
    count[0] = 1
    p = {0: Fraction(1)}
    for step in range(1, n_max + 1):
        tails = count[into] if mult is None else mult * count[into]
        count[:n] = np.add.reduce(tails, axis=0)
        if step % 2 == 0:
            p[step] = Fraction(count[0], deg ** step)
    return p


def _free_on_standard_steps(oracle: GroupOracle, steps) -> bool:
    """Whether ``steps`` is a free group's standard symmetric generating set."""
    return isinstance(oracle, FreeGroupOracle) and set(steps) == set(symmetric_generators(oracle))


class DistanceChain:
    """A free group's Cayley ball on its standard steps, lumped by distance to e.

    Point d of the radius-``radius`` chain is the unit radial vector
    1_{S_d} / sqrt(|S_d|) on the sphere S_d, so ``sizes[k] = k + 1`` points
    make up the radius-k prefix, as ``Ball.sizes`` counts elements. There
    are no elements, and |S_d| = deg (deg - 1)^(d - 1) is never formed.
    From e all deg steps move out; from d > 0 one step moves in and deg - 1
    move out. ``in_neighbours`` is the ``(2, radius + 1)`` table whose
    column d holds d - 1 and d + 1, the points whose steps lead into d; an
    entry off the chain is ``radius + 1``, as on a ``Ball``.
    ``multiplicities`` counts the steps each entry stands for (those from a
    point of S_{d-1} into S_d, and the one back from S_{d+1}) in Python
    integers, like the walk counts it scales, and ``weights`` is M's weight
    on each entry, sqrt(out * back)/deg for the two multiplicities of the
    edge it crosses. All three are built once.
    """

    def __init__(self, oracle: FreeGroupOracle, radius: int):
        self.oracle, self.radius = oracle, radius
        self.steps = symmetric_generators(oracle)
        deg, d = len(self.steps), np.arange(radius + 1)
        self.in_neighbours = np.stack([np.where(d > 0, d - 1, radius + 1), d + 1])
        out = np.array([0, deg, *[deg - 1] * radius])  # steps from a point of S_{d-1} into S_d
        self.multiplicities = np.stack([out[:-1], np.ones_like(d)]).astype(object)
        self.weights = np.sqrt(np.stack([out[:-1], out[1:]])) / deg

    @property
    def sizes(self) -> range:
        return range(1, self.radius + 2)


def probe_ball(oracle: GroupOracle, r: int, cap: int = DEFAULT_BALL_CAP) -> Ball | DistanceChain:
    """The radius-r space the probes read on ``oracle``'s generators.

    A free group's is its ``DistanceChain``, whose r + 1 points ``cap``
    bounds as it bounds a ball's elements; any other group's is
    ``ball(oracle, r, cap)``.
    """
    if isinstance(oracle, FreeGroupOracle):
        if not isinstance(r, int) or r < 0:
            raise PreconditionError("ball radius must be a non-negative integer")
        if r >= cap:
            raise ResourceLimitError(f"ball element cap {cap} exceeded at radius {cap} "
                                     "of the distance chain")
        return DistanceChain(oracle, r)
    return ball(oracle, r, cap)


def _in_table(B: Ball | DistanceChain, n: int) -> np.ndarray:
    """``B.in_neighbours`` cut to the first n points, every neighbour past them read as n."""
    return np.minimum(B.in_neighbours[:, :n], n)


def averaged_shift(B: Ball | DistanceChain, n: int):
    """The operator M, the average of the shifts compressed to the first n points of ``B``.

    M is one gather along ``B.in_neighbours`` cut to the prefix, where a
    neighbour past it reads a zero pad slot, summed down each column from
    0.0 in table order. On a ``Ball`` point i is the delta at
    ``elements[i]``, and each edge x -> s x carries 1/deg: (Mx)_i is the
    sum of x over the in-neighbours of i in the prefix, over deg. Those are
    the additions of a scatter-add over the prefix's edges in ``left`` order,
    so the values agree with it bit for bit. On a ``DistanceChain`` M maps
    radial vectors to radial vectors, and there it is the symmetric
    tridiagonal matrix T with the chain's ``weights`` between d and d + 1:
    sqrt(deg)/deg between e and the first sphere, sqrt(deg - 1)/deg beyond.
    For the radial v with sphere amplitudes u, M v is the radial vector with
    amplitudes T u, so each ratio (Mv)(x)/v(x) on S_d is (Tu)_d/u_d. Each
    column adds the term from d - 1 before the one from d + 1, as a
    scatter-add over the chain's out-edges and then its back-edges does, so
    the values agree with that scatter bit for bit. With no steps every
    vector is invariant, and M is the identity. Returns M as a function of
    a length-n vector, whose value is a new array.
    """
    deg = len(B.steps)
    if not deg:
        return np.copy
    into = _in_table(B, n)
    weights = B.weights[:, :n] if isinstance(B, DistanceChain) else None
    pad = np.zeros(n + 1)

    def shift(x):
        pad[:n] = x
        if weights is None:
            return np.add.reduce(pad[into], axis=0, initial=0.0) / deg
        return np.add.reduce(weights * pad[into], axis=0, initial=0.0)

    return shift


def walk_radius(n_max: int) -> int:
    """Radius of the space ``return_probabilities`` needs for steps up to ``n_max``.

    A walk back at e by step 2n <= n_max never leaves the radius-n ball, so
    the radius is n_max // 2.
    """
    if n_max < 2:
        raise PreconditionError("n_max must be at least 2, the first return step")
    return n_max // 2


def return_probabilities(B: Ball | DistanceChain, n_max: int = 40) -> dict:
    """Exact p_{2n}(e), 2n <= n_max, for the uniform walk on the steps of ``B``.

    The walks are counted in integers on the prefix of radius
    ``walk_radius``, one gather along its in-neighbour table per step (on a
    ``DistanceChain`` each entry times its multiplicity), and p_{2n}(e) is
    the count at e over deg^(2n), an exact ``Fraction`` keyed by its step
    2n; a shorter ``B`` raises ``PreconditionError``.
    """
    r = walk_radius(n_max)
    if B.radius < r:
        raise PreconditionError(f"walks to step {n_max} need radius {r}, not {B.radius}")
    deg = len(B.steps)
    if not deg:
        return {s: Fraction(1) for s in range(0, n_max + 1, 2)}
    n = int(B.sizes[r])
    mult = B.multiplicities[:, :n] if isinstance(B, DistanceChain) else None
    return _walk_returns(_in_table(B, n), mult, deg, n_max)


def walk_block(p: dict) -> tuple[dict, float | None]:
    """The report's ``return-probabilities`` block of the exact p_{2n}(e), keyed by step,
    and its final ratio.

    The block lists the steps, each p rounded to the nearest double and as
    its exact string, the root estimates p_s^(1/s) (None at step 0) and the
    ratio estimates sqrt(p_b / p_a) at each step a but the last (None there),
    for b the next step. Exact counts give p_0 = 1 and p_{2n+2} <= p_{2n} <= 1
    (the walk is symmetric), so each ratio estimate is at most 1: correctly
    rounded division keeps that order. A p whose double is 0 (every count is
    positive, but its double can underflow) raises ``PreconditionError``.
    The final ratio, the report's ``final-ratio`` and headline, is the last
    ratio estimate: the one at the step before the last (None for one step).
    """
    steps = sorted(p)
    x = [float(p[s]) for s in steps]
    if 0.0 in x:
        raise PreconditionError(f"return probability underflows at step {steps[x.index(0.0)]}")
    ratios = [(b / a) ** 0.5 for a, b in zip(x, x[1:])]
    return {
        "steps": steps,
        "p": x,
        "p-exact": [str(p[s]) for s in steps],
        "root-estimates": [None] + [a ** (1.0 / s) for s, a in zip(steps[1:], x[1:])],
        "ratio-estimates": ratios + [None],
    }, ratios[-1] if ratios else None


def collatz_wielandt(v, mv) -> float | None:
    """max_i (Mv)_i / v_i >= lambda_max(M) for M >= 0 and ``mv`` = M v; None unless v > 0."""
    if not np.all(v > 0):
        return None
    return float(np.max(mv / v))


def _perron_solve(matvec, dim):
    """Thick-restart Lanczos solve for the Perron eigenpair of the compressed operator M.

    ``matvec`` is M as a function on length-``dim`` vectors, from
    ``averaged_shift``, whose value is a new array. M is symmetric,
    nonnegative and irreducible (the ball and its distance chain are
    connected), so its top eigenvector is positive. Each cycle checks the unit vector v (first
    the constant vector) and stops once v is positive and both the
    defect-form residual 2|Mv - mu v| and the certified gap 2(cw - mu) are
    at most ``EIGEN_TOL``, for the Rayleigh quotient mu and
    cw = max(``collatz_wielandt(v, Mv)``, mu) (mu bounds the top eigenvalue
    from below, so it only lifts a ratio rounded under it).
    Otherwise the cycle builds a block Q of at most ``RESTART`` rows and
    restarts from its top Ritz vector signed to a positive sum. The block
    holds v, then the next ``THICK`` Ritz vectors of the last block (formed
    only now that another cycle follows), then Krylov vectors from the
    residual direction of v (thick restart; Wu and Simon 2000). In exact
    arithmetic every kept Ritz vector's residual lies along v's, so the
    projection H = Q M Q^T has the Ritz values on its kept diagonal (mu
    first) and h = Q Mv as its first column; eigh of H gives the next
    Ritz pairs. Each Krylov step makes one product Mq with the newest row q
    and one projection h = Q Mq on the block: h is q's row of H, and
    w = Mq - h Q does the recurrence and the full reorthogonalization at
    once; |w| is the next row's norm. The step writes q, h and w into the
    block, H and the product's own array. A pass that cancelled (|w| < |h|/2:
    under 1/sqrt(5) of |Mq| is left, and the rounding error of w relative
    to |w| grew as much) projects w once more, and twice is enough
    (Kahan-Parlett; Daniel, Gragg, Kaufman and Stewart 1976). That second
    pass also takes w to rounding level where the block spans an invariant
    subspace, which ends the cycle early. A cycle that adds no Krylov vector
    (Mv lies in the kept span, so v is an eigenvector to rounding, yet
    fails the check) raises ``ConvergenceError`` at the next check, as
    does a budget with no room for one product past v and one to check the
    restart vector; a block the budget cuts keeps only as many Ritz vectors
    as leave a row for a Krylov vector. With ``THICK`` = 0 each cycle
    restarts from the top Ritz vector alone. Returns mu, cw, the residual,
    v and the number of products with M, at most ``MAX_PRODUCTS``. The
    module constants are read at each call.
    """
    v = np.full(dim, dim ** -0.5)
    basis = np.empty((min(RESTART, dim), dim))  # every cycle's block Q, allocated once
    H = np.zeros((len(basis), len(basis)))     # its projection Q M Q^T, lower triangle
    ritz = np.empty((THICK, dim))               # the kept Ritz vectors past v, formed into Q
    theta, s = np.zeros(1), np.ones((1, 1))     # the last block's Ritz pairs, top first: v alone
    products, stalled = 0, False
    while True:
        mv = matvec(v)
        products += 1
        mu = float(np.dot(v, mv))
        residual = 2.0 * float(np.linalg.norm(mv - mu * v))
        cw = collatz_wielandt(v, mv) if residual <= EIGEN_TOL else None
        if cw is not None and 2.0 * (max(cw, mu) - mu) <= EIGEN_TOL:
            return mu, max(cw, mu), residual, v, products
        # a cycle needs one product past v and one to check its restart vector
        if stalled or products + 2 > MAX_PRODUCTS:
            raise ConvergenceError(
                f"Lanczos did not reach residual and gap {EIGEN_TOL} in {products} products",
                best=2.0 * (1.0 - mu),
            )
        Q = basis[:MAX_PRODUCTS - products]
        k = min(THICK + 1, len(theta), len(Q) - 1)  # kept rows, leaving one for a Krylov vector
        np.matmul(s[:, 1:k].T, basis[:len(s)], out=ritz[:k - 1])
        Q[0], Q[1:k] = v, ritz[:k - 1]
        H[:k, :k] = np.diag(theta[:k])
        H[:k, 0] = h = Q[:k] @ mv
        w = mv - h @ Q[:k]
        m = k
        for j in range(k, len(Q)):
            b = float(np.dot(w, w)) ** 0.5
            if b < 0.5 * float(np.dot(h, h)) ** 0.5:  # the pass cancelled: project once more
                w -= (Q[:j] @ w) @ Q[:j]
                b = float(np.dot(w, w)) ** 0.5
            if b <= BREAKDOWN:
                break
            np.divide(w, b, out=Q[j])
            w = matvec(Q[j])
            products, m = products + 1, j + 1
            h = np.matmul(Q[:m], w, out=H[j, :m])
            w -= h @ Q[:m]
        stalled = m == k  # no Krylov vector: v is an eigenvector to rounding, yet fails the check
        theta, s = np.linalg.eigh(H[:m, :m])
        theta, s = theta[::-1], s[:, ::-1]  # the top Ritz pair first
        v = s[:, 0] @ Q[:m]
        v /= np.linalg.norm(v) if v.sum() > 0 else -np.linalg.norm(v)


@dataclass
class DefectReport:
    """Smallest averaged squared shift defect over unit vectors on a Cayley ball.

    ``amplitudes`` is the minimizer on the first ``ball.sizes[radius]``
    points of ``ball``. On a ``Ball`` entry i is its amplitude at
    ``ball.elements[i]``, and ``argmin`` is the same vector as a
    ``SparseVector`` of the regular representation. On a ``DistanceChain``
    entry d is u_d, the minimizer's norm on the sphere S_d, and its
    amplitude at each element of S_d is u_d / sqrt(|S_d|); such a row has
    no ``argmin``.
    """

    radius: int
    min_avg_sq_defect: float
    amplitudes: np.ndarray
    residual: float
    certified_lower_bound: float
    iterations: int  # products with the ball operator
    ball: Ball | DistanceChain = field(repr=False)

    @property
    def argmin(self) -> SparseVector:
        if isinstance(self.ball, DistanceChain):
            raise PreconditionError("a distance-chain row holds sphere amplitudes, not a vector")
        entries = {(0, x): a for x, a in zip(self.ball.elements, self.amplitudes)}
        return SparseVector(Regular(self.ball.oracle), entries)


def defect_table(B: Ball | DistanceChain, radii=None) -> list[DefectReport]:
    """``min_defect`` on the radius-rho prefix of ``B`` for each rho in ``radii`` (default 1..r).

    Each row equals ``min_defect(ball(B.oracle, rho, S=B.steps))`` exactly:
    the prefix's operator is the one a ball of radius rho alone gives.
    Radius 0 is the one-point ball. On a ``DistanceChain`` each row solves
    the (rho + 1)-point chain, whose top eigenvalue is the ball operator's.
    """
    radii = range(1, B.radius + 1) if radii is None else radii
    reports = []
    for rho in radii:
        if not 0 <= rho <= B.radius:
            raise PreconditionError(f"defect radius {rho} outside 0..{B.radius}")
        n = int(B.sizes[rho])
        mu, cw_upper, residual, vec, iters = _perron_solve(averaged_shift(B, n), n)
        # the form is PSD: a Rayleigh quotient a rounding step past the top clamps to 0
        value = max(0.0, 2.0 * (1.0 - mu))
        lower = max(0.0, 2.0 * (1.0 - cw_upper))
        reports.append(DefectReport(rho, value, vec, residual, lower, iters, B))
    return reports


def min_defect(B: Ball | DistanceChain) -> DefectReport:
    """Minimum of (1/|S+S^-1|) sum_s ||shift_s(w) - w||^2 over unit w on the ball ``B``.

    The quadratic form equals 2(I - M) with M the ball-compressed averaged
    shift operator, assembled exactly from ball adjacency, so the minimum
    is 2(1 - lambda_max(M)) (Kesten). A thick-restart Lanczos solve returns a
    positive unit vector v whose defect-form residual and certified gap are
    both at most ``EIGEN_TOL``. The value is max(0, 2(1 - mu)) for the
    Rayleigh quotient mu of v; the form is positive semidefinite, so it
    bounds the minimum from above. The certified lower bound is
    max(0, 2(1 - cw)) for cw = max(``collatz_wielandt(v, Mv)``, mu), so
    value - certified lower bound <= ``EIGEN_TOL``. ``MAX_PRODUCTS`` is the
    budget of products with M, and ``iterations`` counts them. A solve that
    does not converge within it raises ``ConvergenceError`` whose ``best``
    is the last defect value.
    """
    return defect_table(B, [B.radius])[0]


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


def spectral_ends(B: Ball | DistanceChain, d: float) -> tuple[float, float]:
    """1 - d/2 and min(1, max(u, 1 - d/2)) for a defect d on ``B`` and u = ``certified_upper``."""
    lower = 1.0 - d / 2.0
    return lower, min(1.0, max(certified_upper(B.oracle, B.steps), lower))


def defect_certificate(B: Ball | DistanceChain, w) -> tuple[float, float]:
    """The averaged squared shift defect of w on the first len(w) points of ``B``, and its bound.

    ``w`` holds real amplitudes in ball order, or per sphere on a distance
    chain. The shifts are unitary, so the defect is 2(1 - <Mw, w>/|w|^2). The
    bound is max(0, 2(1 - ``collatz_wielandt(w, Mw)``)), nan unless w > 0.
    """
    n2 = float(np.dot(w, w))
    if n2 == 0:
        return float("nan"), float("nan")
    mw = averaged_shift(B, len(w))(w)
    defect = 2.0 * (1.0 - float(np.dot(mw, w)) / n2)
    cw = collatz_wielandt(w, mw)
    return defect, float("nan") if cw is None else max(0.0, 2.0 * (1.0 - cw))


def round_outward(x: float, holds, outward: float) -> float:
    """The double nearest an exact bound on its safe side, found from a float ``x`` near it.

    ``holds`` decides exactly, on the ``Fraction`` of a double, whether that
    double lies on the safe side of the bound: at or past it toward
    ``outward`` (inf for an upper bound, -inf for a lower one). ``x`` steps
    outward until it holds, then inward while the next double still holds.
    """
    while not holds(Fraction(x)):
        x = math.nextafter(x, outward)
    while holds(Fraction(y := math.nextafter(x, -outward))):
        x = y
    return x


def squared_norm_bound(oracle: GroupOracle, S=None) -> Fraction:
    """rho^2, exactly, for an upper bound rho on the norm of the walk operator on S union S^-1.

    The operator norm of an average of unitaries is at most 1. On a free
    group with its standard generators the Cayley graph is the 2k-regular
    tree, where the weight function (2k-1)^(-|x|/2) witnesses the sharp
    Schur-test bound (Kesten 1959): rho^2 = (2k-1)/k^2.
    """
    if _free_on_standard_steps(oracle, symmetric_generators(oracle, S)):
        return Fraction(2 * oracle.rank - 1, oracle.rank ** 2)
    return Fraction(1)


def certified_upper(oracle: GroupOracle, S=None) -> float:
    """The smallest double u with u^2 >= ``squared_norm_bound(oracle, S)``."""
    rho2 = squared_norm_bound(oracle, S)
    return round_outward(math.sqrt(rho2), lambda u: u * u >= rho2, math.inf)


def spectral_radius_bound(B: Ball | DistanceChain) -> SpectralRadiusInterval:
    """Certified spectral-radius interval: ``spectral_ends`` of the defect ``min_defect(B)``.

    That defect comes from the Rayleigh quotient of the final Lanczos vector,
    so ``EIGEN_TOL`` and ``MAX_PRODUCTS`` are its solve's. The defect solve is
    attached as ``defect``; the walk's return probabilities are
    ``return_probabilities``.
    """
    d = min_defect(B)
    return SpectralRadiusInterval(d.radius, *spectral_ends(B, d.min_avg_sq_defect), d)
