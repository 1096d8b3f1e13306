"""The paper's dichotomy as one table: lambda^infinity is existentially closed iff G is amenable.

Each row is a group and the trivial-target discrepancy delta_r that ``contain``
returns at once: the scaled Perron start on the radius-r Cayley ball's delta
basis, ``search_witness(trivial_target(G), Regular(G), ball_delta_basis(..., r),
1e-13).discrepancy``. The tolerance lies below every row's Collatz-Wielandt
bound, so no descent runs.

* Amenable rows (Folner 1955, Hulanicki 1964: the trivial representation is
  weakly contained in lambda, so delta_r -> 0): on Z and on the infinite dihedral
  group D_inf, whose Cayley graphs are the same line, delta_r = tan^2(pi/(4r+4));
  on Z^2, delta_r = sin^2(t)/(1 + cos^2(t)) with t = pi/(2r+2). Both are
  (1 - mu)/(1 + mu) for the top eigenvalue mu of the walk killed off the ball,
  cos(t) on the path and cos^2(t) on the diamond, so r^2 delta_r stays bounded
  (it tends to pi^2/16 and pi^2/8). The certified floor of such a group is 0.
* The non-amenable row (Kesten 1959: the simple walk on F2 has spectral radius
  sqrt(3)/2): every delta_r is at least the certified floor, the largest double at
  most 7 - 4 sqrt(3) > 0, for every vector of every multiple of lambda.

The H3 and PSL(2, Z) rows of the dichotomy are not in this table: neither has
a closed form, and PSL(2, Z) has no positive certified floor yet.
"""

import math

import pytest

from unirep import FgAbelianOracle, FreeGroupOracle, Regular
from unirep.containment import ball_delta_basis, search_witness, trivial_target
from util import dinf_rewriting

TOL = 1e-13


def _start(oracle, r):
    """The search's report at radius r: the scaled Perron start, returned at once."""
    rep = Regular(oracle)
    report = search_witness(trivial_target(oracle), rep, ball_delta_basis(rep, r), TOL)
    assert report.iterations == 0
    return report


def _line(r):
    return math.tan(math.pi / (4 * r + 4)) ** 2


def _grid(r):
    t = math.pi / (2 * r + 2)
    return math.sin(t) ** 2 / (1 + math.cos(t) ** 2)


AMENABLE = {
    "Z": (lambda: FgAbelianOracle(1), _line, (1, 2, 3, 5, 8, 13, 32)),
    "D_inf": (dinf_rewriting, _line, (1, 2, 3, 5, 8, 13, 32)),
    "Z2": (lambda: FgAbelianOracle(2), _grid, (1, 2, 3, 5, 8, 13, 24)),
}


@pytest.mark.parametrize("group", AMENABLE)
def test_amenable_rows_follow_their_closed_forms(group):
    make_oracle, closed_form, radii = AMENABLE[group]
    oracle = make_oracle()
    for r in radii:
        report = _start(oracle, r)
        assert abs(report.discrepancy - closed_form(r)) <= TOL, r
        assert report.certified_floor == 0.0


def test_free_group_row_stays_above_its_kesten_floor():
    oracle = FreeGroupOracle(2)
    for r in range(1, 6):
        report = _start(oracle, r)
        assert abs(report.certified_floor - (7 - 4 * math.sqrt(3))) <= TOL
        assert 0 < report.certified_floor <= report.discrepancy, r
