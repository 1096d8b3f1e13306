"""Return probabilities, defect minimization, and spectral-radius certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unirep import amenability
from unirep import (
    ConvergenceError,
    DistanceChain,
    FgAbelianOracle,
    FreeGroupOracle,
    PreconditionError,
    Regular,
    ResourceLimitError,
    ball,
    defect_table,
    min_defect,
    probe_ball,
    return_probabilities,
    spectral_radius_bound,
    symmetric_generators,
    walk_radius,
)
from util import (chain_shift, cyclic_table, dinf_rewriting, f2_oracle, h3_rewriting,
                  psl2z_rewriting, scatter_shift, z2_oracle, z2_rewriting, z_oracle)


def walk_table(oracle, S, n_max):
    """Return probabilities read off the smallest space the walk needs, ``probe_ball``'s for no S."""
    r = walk_radius(n_max)
    B = probe_ball(oracle, r) if S is None else ball(oracle, r, S=S)
    return return_probabilities(B, n_max)


def test_z_binomial_closed_form_exact():
    Z = z_oracle()
    table = walk_table(Z, None, 40)
    for n in range(0, 21):
        assert table.p[2 * n] == Fraction(math.comb(2 * n, n), 4**n)


def test_z_tail_matches_binomial_exactly():
    Z = z_oracle()
    table = walk_table(Z, None, 60)
    for n in range(21, 31):
        assert table.p[2 * n] == Fraction(math.comb(2 * n, n), 4**n)


def reference_return_probabilities(oracle, S, n_max):
    """p_{2n}(e) by convolving the walk distribution on explicit elements in ``Fraction``s."""
    steps = symmetric_generators(oracle, S)
    e = oracle.identity()
    weight = Fraction(1, len(steps))
    dist = {e: Fraction(1)}
    p = {0: Fraction(1)}
    for step in range(1, n_max + 1):
        new = {}
        for x, m in dist.items():
            for s in steps:
                y = oracle.multiply(s, x)
                new[y] = new.get(y, 0) + m * weight
        dist = new
        if step % 2 == 0:
            p[step] = dist.get(e, Fraction(0))
    return p


def _free_steps(rank):
    """Step sets of one or two nontrivial reduced words of the free group of ``rank``."""
    F = FreeGroupOracle(rank)
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    word = st.lists(st.sampled_from(letters), min_size=1, max_size=3).map(
        lambda w: _reduced(F, w)).filter(bool)
    return st.tuples(st.just(F), st.lists(word, min_size=1, max_size=2, unique=True),
                     st.integers(2, 7))


def _reduced(F, letters):
    """The reduced word of a letter sequence."""
    out = ()
    for x in letters:
        out = F.multiply(out, (x,))
    return out


WALKS = st.one_of(
    st.tuples(st.builds(FgAbelianOracle, st.integers(0, 2),
                        st.lists(st.integers(2, 3), max_size=1)).filter(lambda G: G.generators),
              st.none(), st.integers(2, 14)),
    st.tuples(st.integers(2, 6).map(cyclic_table), st.none(), st.integers(2, 20)),
    st.tuples(st.just(z2_rewriting()), st.none(), st.integers(2, 12)),
    _free_steps(2),
    _free_steps(3),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(WALKS)
@example((FgAbelianOracle(2), None, 14))
@example((FgAbelianOracle(1, [3]), None, 17))
@example((z2_rewriting(), None, 12))
@example((FreeGroupOracle(3), [(1, 2), (3,)], 7))
@example((f2_oracle(), None, 5))
def test_walk_counts_match_fraction_convolution(walk):
    oracle, S, n_max = walk
    assert walk_table(oracle, S, n_max).p == reference_return_probabilities(
        oracle, S, n_max)


def test_finite_group_returns_to_uniform():
    Z3 = cyclic_table(3)
    table = walk_table(Z3, None, 60)
    assert abs(float(table.p[60]) - Fraction(1, 3)) < 1e-9
    assert abs(table.final_ratio - 1.0) < 1e-9


def test_ratio_trace_monotone_and_bounded():
    for oracle in (z_oracle(), f2_oracle(), cyclic_table(4)):
        table = walk_table(oracle, None, 30)
        ratios = [table.ratio_estimates[k] for k in sorted(table.ratio_estimates)]
        assert all(r <= 1 + 1e-12 for r in ratios)
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_f2_radial_agrees_with_generic_convolution():
    F2 = f2_oracle()
    assert walk_table(F2, None, 8).p == reference_return_probabilities(F2, None, 8)


def test_f2_ratio_near_kesten_value():
    F2 = f2_oracle()
    table = walk_table(F2, None, 50)
    assert abs(table.final_ratio - math.sqrt(3) / 2) <= 0.03


def test_trivial_group_walk():
    triv = FgAbelianOracle(0, [])
    table = walk_table(triv, None, 10)
    assert all(table.p[s] == 1 for s in table.p)


def test_walk_ball_cap_resource_error():
    """The walk's ball is capped by ``ball``'s element cap, which names the radius reached."""
    Z2 = z2_oracle()
    with pytest.raises(ResourceLimitError, match="radius"):
        return_probabilities(ball(Z2, walk_radius(30), 10), 30)


def test_walk_on_a_shorter_ball_is_refused():
    with pytest.raises(PreconditionError, match="need radius 5"):
        return_probabilities(ball(z_oracle(), 4), 10)
    # a free group's walk reads a prefix of its distance chain, which is refused alike
    with pytest.raises(PreconditionError, match="need radius 5, not 4"):
        return_probabilities(probe_ball(f2_oracle(), 4), 10)
    assert return_probabilities(probe_ball(f2_oracle(), 5), 10).p == (
        reference_return_probabilities(f2_oracle(), None, 10))


def tridiagonal_min_defect(m):
    """Dense reference for a path of m vertices: smallest eigenvalue of 2(I - M)."""
    M = np.zeros((m, m))
    for i in range(m - 1):
        M[i, i + 1] = M[i + 1, i] = 0.5
    return float(np.linalg.eigvalsh(2 * (np.eye(m) - M))[0])


def test_min_defect_path_closed_form():
    Z = z_oracle()
    report = min_defect(ball(Z, 5))
    m = 11  # ball of radius 5 is a path of 11 points
    expected = 2 - 2 * math.cos(math.pi / (m + 1))
    assert abs(report.min_avg_sq_defect - expected) < 1e-9
    assert abs(report.min_avg_sq_defect - tridiagonal_min_defect(m)) < 1e-9


def test_defect_table_z2_sine_closed_form():
    """Probe-abelian's Z^2 rows: the diamond ball is a product of two path walks.

    In the rotated coordinates u = x + y, v = x - y the radius-rho ball is
    |u|, |v| <= rho with u = v (mod 2), and the averaged shift there is the
    product of the two path walks on -rho..rho, whose top eigenvalue is
    cos(pi/(2rho+2)) each; so row rho is 2(1 - cos^2) = 2 sin^2(pi/(2rho+2)).
    """
    rows = defect_table(probe_ball(z2_oracle(), 30))
    assert [row.radius for row in rows] == list(range(1, 31))
    for row in rows:
        exact = 2 * math.sin(math.pi / (2 * row.radius + 2)) ** 2
        assert abs(row.min_avg_sq_defect - exact) <= 1e-12
        assert abs(row.certified_lower_bound - exact) <= amenability.EIGEN_TOL


def test_min_defect_finite_group_zero():
    Z5 = cyclic_table(5)
    report = min_defect(ball(Z5, 4))
    assert report.min_avg_sq_defect < 1e-12
    assert 0 <= report.certified_lower_bound <= report.min_avg_sq_defect


@pytest.mark.parametrize("n", [3, 5, 7])
def test_finite_group_defect_clamped_at_zero(n):
    report = min_defect(ball(cyclic_table(n), 4))
    assert report.min_avg_sq_defect >= 0
    interval = spectral_radius_bound(ball(cyclic_table(n), 4))
    assert interval.lower in interval


@pytest.mark.parametrize("make", [z_oracle, z2_oracle, f2_oracle, z2_rewriting, h3_rewriting])
def test_defect_table_rows_equal_min_defect(make):
    """Rows and walks read off one larger ball equal those of a ball of their own radius."""
    oracle = make()
    big = ball(oracle, 5)
    table = defect_table(big)
    assert [row.radius for row in table] == [1, 2, 3, 4, 5]
    assert [row.radius for row in defect_table(big, [0, 2])] == [0, 2]
    for row in defect_table(big, range(6)):
        single = min_defect(ball(oracle, row.radius))
        assert row.min_avg_sq_defect == single.min_avg_sq_defect
        assert row.certified_lower_bound == single.certified_lower_bound
        assert row.residual == single.residual
        assert row.iterations == single.iterations
        assert row.argmin.entries == single.argmin.entries
        alone = spectral_radius_bound(ball(oracle, row.radius))
        assert (row.radius, *amenability.spectral_ends(big, row.min_avg_sq_defect)) == (
            alone.radius, alone.lower, alone.upper)
    for n_max in range(2, 11):
        assert return_probabilities(big, n_max).p == walk_table(oracle, None, n_max).p
    with pytest.raises(PreconditionError):
        defect_table(big, [6])


SHIFT_BALLS = {
    "Z2-r30": lambda: ball(z2_oracle(), 30),
    "Z2-rewriting-r16": lambda: ball(z2_rewriting(), 16),
    "H3-r6": lambda: ball(h3_rewriting(), 6),
    "PSL2Z-r10": lambda: ball(psl2z_rewriting(), 10),
    "ZxZ4xZ6-r4": lambda: ball(FgAbelianOracle(1, [4, 6]), 4),
    "Dinf-r8": lambda: ball(dinf_rewriting(), 8),
    "Z7-identity-step-r4": lambda: ball(cyclic_table(7), 4, S=[0, 1]),
    "F2-on-a2-ab-r4": lambda: ball(f2_oracle(), 4, S=[(1, 1), (1, 2)]),
}


@pytest.mark.parametrize("make", SHIFT_BALLS.values(), ids=SHIFT_BALLS)
def test_averaged_shift_gathers_the_scatter_sums_bit_for_bit(make):
    """On every prefix the in-neighbour gather makes the reference scatter's sums, signs too."""
    B = make()
    rng = np.random.default_rng(0)
    for n in range(1, len(B) + 1):
        x = rng.standard_normal(n)
        got, want = amenability.averaged_shift(B, n)(x), scatter_shift(B, n)(x)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), n
    zeros = np.full(len(B), -0.0)
    assert amenability.averaged_shift(B, len(B))(zeros).tobytes() == (
        scatter_shift(B, len(B))(zeros).tobytes())


WALK_CHAINS = {f"F{rank}-chain-r12": lambda rank=rank: probe_ball(FreeGroupOracle(rank), 12)
               for rank in (1, 2, 3)}


@pytest.mark.parametrize("make", [*SHIFT_BALLS.values(), *WALK_CHAINS.values()],
                         ids=[*SHIFT_BALLS, *WALK_CHAINS])
def test_walk_on_a_prefix_equals_the_smallest_space(make):
    """A neighbour past the walk's prefix reads the pad slot, so a longer space adds no walk."""
    B = make()
    chain = isinstance(B, DistanceChain)
    n_maxes = range(2, 2 * B.radius + 2) if chain else sorted({2, 3, B.radius, 2 * B.radius + 1})
    for n_max in n_maxes:
        r = walk_radius(n_max)
        smallest = probe_ball(B.oracle, r) if chain else ball(B.oracle, r, S=B.steps)
        assert return_probabilities(B, n_max).p == return_probabilities(smallest, n_max).p, n_max


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_chain_shift_gathers_the_edge_list_sums_bit_for_bit(rank):
    """On every chain prefix the gather makes the reference edge list's sums, signs too."""
    chain = probe_ball(FreeGroupOracle(rank), 40)
    rng = np.random.default_rng(0)
    for n in chain.sizes:
        x = rng.standard_normal(n)
        got, want = amenability.averaged_shift(chain, n)(x), chain_shift(2 * rank, n)(x)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), n
        zeros = np.full(n, -0.0)
        assert amenability.averaged_shift(chain, n)(zeros).tobytes() == (
            chain_shift(2 * rank, n)(zeros).tobytes())


def test_in_neighbours_are_the_left_rows_sorted():
    """Column i holds row i of ``left``, ascending, with -1 as ``len(B)`` past the others."""
    B = ball(cyclic_table(7), 2, S=[0, 1])
    assert B.in_neighbours is B.in_neighbours  # built once per ball
    expected = np.sort(np.where(B.left < 0, len(B), B.left), axis=1).T
    assert np.array_equal(B.in_neighbours, expected)
    assert B.in_neighbours[:, 0].tolist() == [0, 1, 2]  # e, then the steps 1 and 6
    assert len(B) in B.in_neighbours[:, -1]  # the last sphere leaves the ball


def test_defect_rows_equal_the_scatter_solve_bit_for_bit():
    """Each Z2 row is the Lanczos solve on the reference scatter, number for number."""
    B = ball(z2_oracle(), 30)
    for row in defect_table(B, range(31)):
        n = int(B.sizes[row.radius])
        mu, cw, residual, v, products = amenability._perron_solve(scatter_shift(B, n), n)
        assert row.amplitudes.tobytes() == v.tobytes()
        assert row.min_avg_sq_defect == max(0.0, 2.0 * (1.0 - mu))
        assert row.certified_lower_bound == max(0.0, 2.0 * (1.0 - cw))
        assert (row.residual, row.iterations) == (residual, products)


def test_min_defect_argmin_rayleigh_matches():
    Z = z_oracle()
    reg = Regular(Z)
    report = min_defect(ball(Z, 4))
    w = report.argmin
    steps = symmetric_generators(Z)
    rayleigh = sum((reg.apply(s, w) - w).norm2() for s in steps) / (len(steps) * w.norm2())
    assert abs(rayleigh - report.min_avg_sq_defect) < 1e-9


def test_min_defect_with_custom_steps_walks_its_own_ball():
    F2 = f2_oracle()
    path = min_defect(ball(F2, 3, S=[(1,)]))  # one free generator's ball: a path of 7 points
    assert abs(path.min_avg_sq_defect - (2 - 2 * math.cos(math.pi / 8))) < 1e-9
    assert 0 <= path.certified_lower_bound <= path.min_avg_sq_defect
    square = min_defect(ball(F2, 3, S=[(1, 1), (2,)]))  # a^2 and b freely generate a copy of F2
    standard = min_defect(ball(F2, 3))
    assert abs(square.min_avg_sq_defect - standard.min_avg_sq_defect) < 1e-12
    assert 0 <= square.certified_lower_bound <= square.min_avg_sq_defect
    assert square.min_avg_sq_defect - square.certified_lower_bound <= 1e-9


def test_min_defect_monotone_in_radius():
    for oracle in (z_oracle(), f2_oracle()):
        values = [min_defect(ball(oracle, r)).min_avg_sq_defect for r in range(1, 6)]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_min_defect_amenable_decays_nonamenable_floors():
    assert min_defect(ball(z_oracle(), 10)).min_avg_sq_defect < 0.05
    assert min_defect(ball(z2_oracle(), 6)).min_avg_sq_defect < 0.2
    floor = 2 - math.sqrt(3)
    for r in range(1, 6):
        report = min_defect(ball(f2_oracle(), r))
        assert report.certified_lower_bound >= floor - 1e-9


def test_min_defect_dense_oracle_small_radius():
    F2 = f2_oracle()
    for r in (1, 2, 3):
        B = ball(F2, r)
        steps = symmetric_generators(F2)
        index = {x: i for i, x in enumerate(B.elements)}
        M = np.zeros((len(B), len(B)))
        for x, ix in index.items():
            for s in steps:
                iy = index.get(F2.multiply(s, x))
                if iy is not None:
                    M[iy, ix] += 1 / len(steps)
        dense = float(np.linalg.eigvalsh(2 * (np.eye(len(B)) - M))[0])
        report = min_defect(ball(F2, r))
        assert abs(report.min_avg_sq_defect - dense) < 1e-9
        # Collatz-Wielandt: a proven lower bound, and a tight one
        assert report.certified_lower_bound <= dense
        assert report.min_avg_sq_defect - report.certified_lower_bound < 1e-8


def dense_min_defect(oracle, r):
    """Smallest eigenvalue of 2(I - M) for the dense ball-compressed operator M."""
    B = ball(oracle, r)
    steps = symmetric_generators(oracle)
    index = {x: i for i, x in enumerate(B.elements)}
    M = np.zeros((len(B), len(B)))
    for x, ix in index.items():
        for s in steps:
            iy = index.get(oracle.multiply(s, x))
            if iy is not None:
                M[iy, ix] += 1 / len(steps)
    return float(np.linalg.eigvalsh(2 * (np.eye(len(B)) - M))[0])


SOLVER_CASES = (
    [pytest.param(z_oracle, r, id=f"Z-r{r}") for r in range(9)]
    + [pytest.param(z2_oracle, r, id=f"Z2-r{r}") for r in range(1, 7)]
    + [pytest.param(f2_oracle, r, id=f"F2-r{r}") for r in range(1, 5)]
    + [pytest.param(z2_rewriting, r, id=f"Z2-rewriting-r{r}") for r in range(1, 6)]
    # saturated balls: the Krylov block breaks down
    + [pytest.param(lambda n=n: cyclic_table(n), 4, id=f"Z{n}-r4") for n in (3, 5, 7)]
)


@pytest.mark.parametrize("rank, r", [(1, 20), (2, 9), (3, 5)])
def test_distance_chain_rows_equal_the_ball(rank, r):
    """Each chain row is its ball row: value and certificate within 1e-12, u_d the sphere norms."""
    oracle = FreeGroupOracle(rank)
    chain = probe_ball(oracle, r)
    assert isinstance(chain, DistanceChain)
    B = ball(oracle, r)
    for lumped, full in zip(defect_table(chain), defect_table(B), strict=True):
        assert lumped.radius == full.radius
        assert abs(lumped.min_avg_sq_defect - full.min_avg_sq_defect) <= 1e-12
        assert abs(lumped.certified_lower_bound - full.certified_lower_bound) <= 1e-12
        spheres = np.split(full.amplitudes, B.sizes[:lumped.radius])
        norms = [np.linalg.norm(sphere) for sphere in spheres]
        assert np.allclose(lumped.amplitudes, norms, rtol=0, atol=1e-9)
    with pytest.raises(PreconditionError, match="sphere amplitudes"):
        lumped.argmin


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_distance_chain_certificate_bounds_the_ball_operator(rank):
    """The chain's Collatz-Wielandt bound is at least the top eigenvalue of the whole ball's M.

    ``eigvalsh`` is backward stable, so its top eigenvalue of the n-point M
    may lie up to about n * eps from the true one (on F1 at radius 1 it is one
    ulp above sqrt(2)/2 rounded); the defects are compared with that allowance.
    """
    oracle = FreeGroupOracle(rank)
    for row in defect_table(probe_ball(oracle, 4)):
        assert 0 <= row.certified_lower_bound <= row.min_avg_sq_defect
        rounding = 2 * len(ball(oracle, row.radius)) * np.finfo(float).eps
        assert row.certified_lower_bound <= dense_min_defect(oracle, row.radius) + rounding


class _RecordedTable(np.ndarray):
    """An in-neighbour table that records the number of points of each prefix cut from it."""

    def __getitem__(self, key):
        cut = np.asarray(super().__getitem__(key))
        self.cuts.append(cut.shape[1])
        return cut


def test_walk_and_defect_read_one_distance_chain(monkeypatch):
    """One probe builds one chain, and its walk and every row gather along that chain's table."""
    built = []
    init = DistanceChain.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(DistanceChain, "__init__", counted)
    F2 = f2_oracle()
    chain = probe_ball(F2, 4)
    chain.in_neighbours = chain.in_neighbours.view(_RecordedTable)
    chain.in_neighbours.cuts = []
    assert return_probabilities(chain, 8).p == reference_return_probabilities(F2, None, 8)
    rows = defect_table(chain, range(5))
    for row in rows:
        value, _ = amenability.defect_certificate(chain, row.amplitudes)
        assert abs(value - row.min_avg_sq_defect) <= 1e-12
    assert built == [chain]
    # the walk's radius-4 prefix, then rows 0..4, then their certificates
    assert chain.in_neighbours.cuts == [5, *range(1, 6), *range(1, 6)]


def test_kesten_constant_as_a_measured_rate():
    """On F2 the defect falls to 2 - sqrt(3) as about 8.4 / r^2 (8.06 at r = 100, 8.50 at 1000)."""
    r = 300
    row = min_defect(probe_ball(f2_oracle(), r))
    assert 8 <= (row.min_avg_sq_defect - (2 - math.sqrt(3))) * r ** 2 <= 9
    assert 0 <= row.certified_lower_bound <= row.min_avg_sq_defect


@pytest.mark.parametrize("make, r", SOLVER_CASES)
def test_lanczos_matches_dense_with_certified_gap(make, r):
    oracle = make()
    tol = 1e-9
    report = min_defect(ball(oracle, r))
    value, lower = report.min_avg_sq_defect, report.certified_lower_bound
    assert abs(value - dense_min_defect(oracle, r)) <= 1e-9
    assert 0 <= lower <= value
    assert value - lower <= tol
    assert all(a.imag == 0 and a.real > 0 for a in report.argmin.entries.values())


def test_lanczos_products_on_amenable_ball():
    # power iteration needs 3,132 products with the ball operator here
    assert min_defect(ball(z2_oracle(), 30)).iterations <= 3132 // 4


# Products per defect row, rows 0..r, as the two-pass step took them (Gram-Schmidt
# twice after the three-term update). The one-pass step makes each product cheaper;
# these pin that it needs no more of them, on amenable balls and on saturated and
# full free balls, where the Krylov block spans an invariant subspace early.
Z2_R30_PRODUCTS = [1, 3, 4, 7, 8, 25, 25, 25, 25, 49, 49, 49, 49, 73, 73, 73, 97, 97, 97, 97,
                   121, 121, 121, 145, 145, 145, 145, 193, 169, 193, 193]


@pytest.mark.parametrize("make, r, products", [
    pytest.param(z2_oracle, 30, Z2_R30_PRODUCTS, id="Z2-r30"),
    pytest.param(lambda: FreeGroupOracle(2), 9, [1, *range(3, 12)], id="F2-ball-r9"),
    pytest.param(lambda: FreeGroupOracle(3), 6, [1, *range(3, 9)], id="F3-ball-r6"),
    pytest.param(lambda: cyclic_table(7), 4, [1, 3, 4, 1, 1], id="Z7-r4"),
])
def test_lanczos_products_per_row_do_not_grow(make, r, products):
    rows = defect_table(ball(make(), r), range(r + 1))
    assert [row.radius for row in rows] == list(range(r + 1))
    got = [row.iterations for row in rows]
    assert all(a <= b for a, b in zip(got, products, strict=True)), (got, products)


def test_lanczos_below_rounding_raises_instead_of_looping(monkeypatch):
    monkeypatch.setattr(amenability, "EIGEN_TOL", 1e-16)
    with pytest.raises(ConvergenceError) as info:
        min_defect(ball(z2_oracle(), 20))
    assert 0 < info.value.best < 0.02


def test_min_defect_nonconvergence_reports_best(monkeypatch):
    monkeypatch.setattr(amenability, "MAX_PRODUCTS", 1)
    with pytest.raises(ConvergenceError) as info:
        min_defect(ball(z_oracle(), 5))
    # one step leaves the constant vector on the 11-point path, whose
    # defect Rayleigh quotient is 2(1 - 10/11)
    assert abs(info.value.best - 2 / 11) < 1e-12


def test_lanczos_without_kept_ritz_vectors_restarts_as_before(monkeypatch):
    """THICK = 0 restarts from the top Ritz vector alone: the counts pinned above, exactly."""
    monkeypatch.setattr(amenability, "THICK", 0)
    rows = defect_table(ball(z2_oracle(), 30), range(31))
    assert [row.iterations for row in rows] == Z2_R30_PRODUCTS


# Products per defect row with the thick restart's kept Ritz vectors: 1,752 on Z2 rows
# 1..30 (2,616 restarting from the top Ritz vector alone), 2,477 on Z rows 1..50 (5,533),
# and 645 on the F2 chain's row 300 (2,521).
Z2_R30_THICK_PRODUCTS = [1, 3, 4, 7, 8, 25, 25, 25, 25, 45, 45, 45, 45, 45, 65, 65, 65, 65, 65,
                         65, 65, 85, 85, 85, 85, 85, 105, 105, 105, 105, 105]
Z_R50_THICK_PRODUCTS = [1, *range(3, 26), 45, *[65] * 13, *[85] * 5, *[105] * 8]


@pytest.mark.parametrize("B, radii, products", [
    pytest.param(lambda: ball(z2_oracle(), 30), range(31), Z2_R30_THICK_PRODUCTS, id="Z2-r30"),
    pytest.param(lambda: ball(z_oracle(), 50), range(51), Z_R50_THICK_PRODUCTS, id="Z-r50"),
    pytest.param(lambda: probe_ball(f2_oracle(), 300), [300], [645], id="F2-chain-r300"),
])
def test_thick_restart_products_per_row(B, radii, products):
    got = [row.iterations for row in defect_table(B(), radii)]
    assert all(a <= b for a, b in zip(got, products, strict=True)), (got, products)


@pytest.mark.parametrize("make, r", [(z_oracle, 50), (z2_oracle, 12)])
def test_thick_restart_rows_match_dense(make, r):
    """Every row that restarts with kept Ritz vectors is the dense minimum, certified."""
    oracle = make()
    rows = [row for row in defect_table(ball(oracle, r), range(r + 1))
            if row.iterations > amenability.RESTART + 1]
    assert rows
    for row in rows:
        value, lower = row.min_avg_sq_defect, row.certified_lower_bound
        assert abs(value - dense_min_defect(oracle, row.radius)) <= 1e-9
        assert 0 <= lower <= value
        assert value - lower <= amenability.EIGEN_TOL
        assert all(a.imag == 0 and a.real > 0 for a in row.argmin.entries.values())


@pytest.mark.parametrize("budget", [26, 28, 30])
def test_budget_that_cuts_the_kept_rows_reports_best(monkeypatch, budget):
    """A block cut below the kept Ritz vectors keeps fewer of them and ends in ConvergenceError."""
    monkeypatch.setattr(amenability, "MAX_PRODUCTS", budget)
    with pytest.raises(ConvergenceError) as info:
        min_defect(ball(z2_oracle(), 20))
    assert 0 < info.value.best < 0.02


def test_consistency_defect_vs_compression():
    for oracle in (z_oracle(), f2_oracle()):
        for r in (2, 4):
            d = min_defect(ball(oracle, r)).min_avg_sq_defect
            mu = spectral_radius_bound(ball(oracle, r)).lower
            assert 1 - d <= mu + 1e-9


def test_spectral_z_path_bounds():
    Z = z_oracle()
    interval = spectral_radius_bound(ball(Z, 50))
    assert interval.lower >= math.cos(math.pi / 52)
    # exact compressed value for a path of 101 vertices
    assert abs(interval.lower - math.cos(math.pi / 102)) < 1e-9
    assert interval.upper == 1.0


def radial_jacobi_top(rank, r):
    d = 2 * rank
    offdiag = [1 / math.sqrt(d)] + [math.sqrt(d - 1) / d] * (r - 1)
    J = np.zeros((r + 1, r + 1))
    for i, ai in enumerate(offdiag):
        J[i, i + 1] = J[i + 1, i] = ai
    return float(np.linalg.eigvalsh(J)[-1])


def test_spectral_f2_interval():
    F2 = f2_oracle()
    interval = spectral_radius_bound(ball(F2, 8))
    rho = math.sqrt(3) / 2
    assert rho in interval
    assert interval.width <= 0.05
    assert abs(interval.lower - radial_jacobi_top(2, 8)) < 1e-9
    assert interval.upper == amenability.certified_upper(F2)
    assert interval.upper == math.nextafter(rho, 1)  # sqrt(3)/2 rounds below itself


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_certified_upper_is_the_smallest_double_above_kesten(k):
    """On F_k the upper end u is the smallest double with u^2 k^2 >= 2k - 1, exactly."""
    u = amenability.certified_upper(FreeGroupOracle(k))
    assert Fraction(u) ** 2 * k * k >= 2 * k - 1
    assert Fraction(math.nextafter(u, 0)) ** 2 * k * k < 2 * k - 1


def test_spectral_lower_nondecreasing_in_radius():
    for oracle in (z_oracle(), f2_oracle()):
        lows = [spectral_radius_bound(ball(oracle, r)).lower for r in range(1, 6)]
        assert all(b >= a - 1e-9 for a, b in zip(lows, lows[1:]))


def test_spectral_trivial_group():
    triv = FgAbelianOracle(0, [])
    interval = spectral_radius_bound(ball(triv, 3))
    assert interval.lower == interval.upper == 1.0


@pytest.mark.parametrize("n_max", [0, 1])
def test_nmax_validation(n_max):
    with pytest.raises(PreconditionError):
        walk_radius(n_max)
    with pytest.raises(PreconditionError):
        return_probabilities(ball(z_oracle(), 3), n_max)
