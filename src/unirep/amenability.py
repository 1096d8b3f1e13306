"""Random-walk and almost-invariant-vector probes of amenability.

The probes are one-sided numerical certificates: return probabilities of
the symmetric walk (exact rational convolution up to a configurable
step), the smallest eigenvalue of the averaged shift-defect form on
Cayley balls, and a certified interval for the walk's spectral radius.
The last two are one number (Kesten): the minimum defect on a ball is
2(1 - lambda_max(M)) for the ball-compressed walk operator M, so both come
from one Perron solve. Its Rayleigh quotient bounds lambda_max(M) from
below and the Collatz-Wielandt bound of its positive iterate bounds it
from above, which certifies the defect from both sides.

``defect_table`` gives the defect for every radius 1..r from one ball
operator: the ball enumerates in breadth-first order, so the radius-rho
ball is a prefix of the radius-r ball and its edges are the radius-r
edges with both ends in that prefix, in the same order. Each radius
therefore solves the same arrays as a ball built for it alone, and the
probe builds one ball per run. For the free kinds on their standard
generators the walk distribution is constant on spheres, so the
convolution runs on the exact radial chain instead of the full
(exponentially growing) support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, PreconditionError, ResourceLimitError
from .groups import FreeGroupOracle, GroupOracle, ball, symmetric_generators
from .reps import Regular
from .vectors import SparseVector

DEFAULT_EXACT_STEPS = 40
DEFAULT_SUPPORT_CAP = 100_000
RATIO_SLACK = 1e-12


@dataclass
class ReturnProbabilityTable:
    """Return probabilities p_{2n}(e) of the symmetric walk with estimator traces."""

    n_max: int
    p: dict            # even step -> Fraction (exact) or float
    exact_through: int
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


def _free_radial_returns(rank: int, n_max: int) -> dict:
    """Exact distances-to-identity chain of the walk on a free group.

    The step distribution is uniform on the unit sphere and convolution
    preserves constancy on spheres, so tracking per-sphere mass is exact.
    """
    d = Fraction(2 * rank)
    out_frac = Fraction(2 * rank - 1) / d
    in_frac = Fraction(1) / d
    mass = {0: Fraction(1)}
    p = {0: Fraction(1)}
    for step in range(1, n_max + 1):
        new: dict = {}
        for k, m in mass.items():
            if k == 0:
                new[1] = new.get(1, Fraction(0)) + m
            else:
                new[k + 1] = new.get(k + 1, Fraction(0)) + m * out_frac
                new[k - 1] = new.get(k - 1, Fraction(0)) + m * in_frac
        mass = new
        if step % 2 == 0:
            p[step] = mass.get(0, Fraction(0))
    return p


def return_probabilities(oracle: GroupOracle, S=None, n_max: int = DEFAULT_EXACT_STEPS,
                         exact_steps: int = DEFAULT_EXACT_STEPS,
                         support_cap: int = DEFAULT_SUPPORT_CAP) -> ReturnProbabilityTable:
    """p_{2n}(e) for the uniform walk on S union S^-1, exact up to ``exact_steps``.

    The walk distribution is convolved on explicit group elements with no
    truncation; rational arithmetic is used through ``exact_steps`` and
    double precision beyond. Exceeding ``support_cap`` raises a resource
    error naming the step reached.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    steps = symmetric_generators(oracle, S)
    if not steps:
        p = {s: Fraction(1) for s in range(0, n_max + 1, 2)}
        return ReturnProbabilityTable(n_max, p, n_max)
    if isinstance(oracle, FreeGroupOracle) and set(steps) == set(
        symmetric_generators(oracle)
    ):
        p = _free_radial_returns(oracle.rank, n_max)
        return ReturnProbabilityTable(n_max, p, n_max)
    e = oracle.identity()
    weight = Fraction(1, len(steps))
    dist = {e: Fraction(1)}
    exact = True
    p = {0: Fraction(1)}
    for step in range(1, n_max + 1):
        if exact and step > exact_steps:
            dist = {x: float(m) for x, m in dist.items()}
            exact = False
        new: dict = {}
        w = weight if exact else float(weight)
        for x, m in dist.items():
            mw = m * w
            for s in steps:
                y = oracle._mul(s, x)
                new[y] = new.get(y, 0) + mw
        if len(new) > support_cap:
            raise ResourceLimitError(
                f"walk support {len(new)} exceeds cap {support_cap} at step {step}"
            )
        dist = new
        if step % 2 == 0:
            p[step] = dist.get(e, Fraction(0) if exact else 0.0)
    return ReturnProbabilityTable(n_max, p, min(n_max, exact_steps))


def _ball_operator(oracle, steps, r, cap):
    """The radius-r ball with the edge arrays of its compressed walk operator.

    Returns the ball, the ``rows``/``cols`` index arrays of the edges
    x -> s x with both ends in the ball (``cols`` ascending), and ``sizes``
    with ``sizes[rho]`` the number of elements of the radius-rho ball, a
    prefix of the breadth-first enumeration.
    """
    B = ball(oracle, r, cap)
    index = {x: i for i, x in enumerate(B.elements)}
    mul = oracle._mul
    rows, cols = [], []
    for x, ix in index.items():
        for s in steps:
            iy = index.get(mul(s, x))
            if iy is not None:
                rows.append(iy)
                cols.append(ix)
    sizes = np.cumsum(np.bincount([B.word_length[x] for x in B.elements], minlength=r + 1))
    return B, np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp), sizes


def _perron_solve(rows, cols, dim, deg, tol, max_iter):
    """Power iteration on I + M for the ball-compressed averaged shift operator M.

    M has entries 1/deg on the edges ``rows[i] <- cols[i]``. It is
    symmetric, nonnegative and irreducible (the ball is connected), so
    I + M is positive semidefinite and its iterates from the constant
    vector stay positive. Stops once the residual of the defect form
    2(I - M) at the iterate is at most ``tol``. Returns the Rayleigh
    quotient mu of M, the Collatz-Wielandt upper bound max_i (Mv)_i / v_i
    on the top eigenvalue of M, the defect-form residual, the iterate and
    the iteration count.
    """
    v = np.full(dim, dim ** -0.5)
    mu = 0.0
    for it in range(1, max_iter + 1):
        mv = np.bincount(rows, weights=v[cols], minlength=dim) / deg
        mu = float(np.dot(v, mv))
        residual = 2.0 * float(np.linalg.norm(mv - mu * v))
        if residual <= tol:
            return mu, float(np.max(mv / v)), residual, v, it
        w = v + mv
        v = w / np.linalg.norm(w)
    raise ConvergenceError(
        f"power iteration did not reach residual {tol} in {max_iter} steps",
        best=2.0 * (1.0 - mu),
    )


@dataclass
class DefectReport:
    """Smallest averaged squared shift defect over unit vectors on a Cayley ball."""

    radius: int
    min_avg_sq_defect: float
    argmin: SparseVector
    residual: float
    certified_lower_bound: float
    certified_lower_bound_used: bool
    iterations: int


def _defects(oracle, S, r, radii, tol, max_iter, ball_cap):
    """DefectReports for ``radii`` (each at most r), from one radius-r ball operator."""
    if r < 0:
        raise PreconditionError("radius must be non-negative")
    space = Regular(oracle)
    steps = symmetric_generators(oracle, S)
    if not steps:
        e = oracle.identity()
        return [DefectReport(rho, 0.0, SparseVector(space, {(0, e): 1.0}), 0.0, 0.0, True, 0)
                for rho in radii]
    B, rows, cols, sizes = _ball_operator(oracle, steps, r, ball_cap)
    reports = []
    for rho in radii:
        n = int(sizes[rho])
        m = int(np.searchsorted(cols, n))  # cols ascend: edges out of the prefix come first
        inside = rows[:m] < n
        mu, cw_upper, residual, vec, iters = _perron_solve(
            rows[:m][inside], cols[:m][inside], n, len(steps), tol, max_iter)
        argmin = SparseVector(space, {(0, x): vec[i] for i, x in enumerate(B.elements[:n])})
        # the form is PSD: a Rayleigh quotient a rounding step past the top clamps to 0
        value = max(0.0, 2.0 * (1.0 - mu))
        lower = max(0.0, 2.0 * (1.0 - cw_upper))
        reports.append(DefectReport(rho, value, argmin, residual, lower, True, iters))
    return reports


def min_defect(oracle: GroupOracle, S=None, r: int = 4, tol: float = 1e-9,
               max_iter: int = 500_000, ball_cap: int = DEFAULT_SUPPORT_CAP) -> DefectReport:
    """Minimum of (1/|S+S^-1|) sum_s ||shift_s(w) - w||^2 over unit w on the ball.

    The quadratic form equals 2(I - M) with M the ball-compressed averaged
    shift operator, assembled exactly from ball adjacency, so the minimum
    is 2(1 - lambda_max(M)) (Kesten). The value is max(0, 2(1 - mu)) for
    the Rayleigh quotient mu of the Perron iterate, once the defect-form
    residual is at most ``tol``; the form is positive semidefinite, so it
    bounds the minimum from above. The certified lower bound is 2(1 - cw)
    for the Collatz-Wielandt bound cw = max_i (Mv)_i / v_i >= lambda_max(M)
    of the positive iterate v (Wielandt 1950). A solve that does not
    converge in ``max_iter`` steps raises ``ConvergenceError`` whose
    ``best`` is the last defect value.
    """
    return _defects(oracle, S, r, [r], tol, max_iter, ball_cap)[0]


def defect_table(oracle: GroupOracle, S=None, r: int = 4, tol: float = 1e-9,
                 max_iter: int = 500_000,
                 ball_cap: int = DEFAULT_SUPPORT_CAP) -> list[DefectReport]:
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
    table: ReturnProbabilityTable | None = None

    @property
    def lower_residual(self) -> float:
        return self.defect.residual / 2.0  # the residual on the scale of M

    @property
    def iterations(self) -> int:
        return self.defect.iterations

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def __contains__(self, x) -> bool:
        return self.lower <= x <= self.upper

    @classmethod
    def from_defect(cls, oracle: GroupOracle, S, defect: DefectReport,
                    table: ReturnProbabilityTable | None = None) -> SpectralRadiusInterval:
        """The interval whose lower end is 1 - d/2 for the defect solve ``defect``."""
        lower = 1.0 - defect.min_avg_sq_defect / 2.0
        upper = min(1.0, max(certified_upper(oracle, S), lower))
        return cls(defect.radius, lower, upper, defect, table)


def certified_upper(oracle: GroupOracle, S=None) -> float:
    """Upper bound for the spectral radius of the walk on S union S^-1.

    The operator norm of an average of unitaries is at most 1. On a free
    group with its standard generators the Cayley graph is the 2k-regular
    tree, where the weight function (2k-1)^(-|x|/2) witnesses the sharp
    Schur-test bound sqrt(2k-1)/k.
    """
    steps = symmetric_generators(oracle, S)
    if steps and isinstance(oracle, FreeGroupOracle) and set(steps) == set(
        symmetric_generators(oracle)
    ):
        k = oracle.rank
        return (2 * k - 1) ** 0.5 / k
    return 1.0


def spectral_radius_bound(oracle: GroupOracle, S=None, r: int = 6, n_max: int | None = None,
                          tol: float = 1e-9, max_iter: int = 500_000,
                          ball_cap: int = DEFAULT_SUPPORT_CAP,
                          exact_steps: int = DEFAULT_EXACT_STEPS,
                          support_cap: int = DEFAULT_SUPPORT_CAP) -> SpectralRadiusInterval:
    """Certified spectral-radius interval from ball compression and norm bounds.

    The lower end is 1 - d/2 for the defect d = ``min_defect(oracle, S, r,
    tol, max_iter, ball_cap)``: the Rayleigh quotient of the Perron iterate
    for the ball-compressed averaged shift operator, and any Rayleigh
    quotient is a true lower bound. ``tol`` is therefore the defect-form
    residual. The upper end is a certified norm bound. The defect solve is
    attached as ``defect``. Optionally attaches the return-probability
    table with its monotone ratio trace for ``n_max`` steps.
    """
    table = None
    if n_max is not None:
        table = return_probabilities(oracle, S, n_max, exact_steps, support_cap)
    defect = min_defect(oracle, S, r, tol, max_iter, ball_cap)
    return SpectralRadiusInterval.from_defect(oracle, S, defect, table)
