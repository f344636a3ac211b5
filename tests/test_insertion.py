from fractions import Fraction
from math import factorial

import pytest

from sepstat import config
from sepstat.exhaustive import sweep
from sepstat.insertion import bond_rows, horizontal_rows
from sepstat.series import bond_gf, coeff, vertical_sep_gf

ORDER = config.MAX_ORDER


def _series_rows(series):
    return [{m: c for m, c in enumerate(coeff(series, n).coeffs) if c}
            for n in range(ORDER + 1)]


def test_rows_equal_series_rows_up_to_the_largest_order():
    assert bond_rows(ORDER) == _series_rows(bond_gf(ORDER))
    assert horizontal_rows(ORDER) == _series_rows(vertical_sep_gf(ORDER))


@pytest.mark.parametrize("n", range(9))
def test_rows_equal_sweep(n):
    tables = sweep(n)
    assert bond_rows(n)[n] == tables["bonds"]
    assert horizontal_rows(n)[n] == tables["horizontal"]
    assert horizontal_rows(n)[n] == tables["vertical"]


def test_bond_row_0_is_hertzsprungs_problem():
    # OEIS A002464: a(n) = (n+1)a(n-1) - (n-2)a(n-2) - (n-5)a(n-3)
    # + (n-3)a(n-4), with a(0..3) = 1, 1, 0, 0
    a = [1, 1, 0, 0]
    for n in range(4, ORDER + 1):
        a.append(
            (n + 1) * a[n - 1] - (n - 2) * a[n - 2]
            - (n - 5) * a[n - 3] + (n - 3) * a[n - 4]
        )
    assert [row.get(0, 0) for row in bond_rows(ORDER)] == a


@pytest.mark.parametrize(
    "rows, gap", [(bond_rows, 1), (horizontal_rows, 2)], ids=["bonds", "horizontal"]
)
def test_rows_sum_to_n_factorial_with_mean_two_per_n_per_pair(rows, gap):
    # an event is one of the n - gap value pairs {v, v + gap} made
    # adjacent, and each pair is adjacent with probability 2/n
    for n, row in enumerate(rows(ORDER)):
        total = sum(row.values())
        assert total == factorial(n), n
        if n >= 2:
            mean = Fraction(sum(m * c for m, c in row.items()), total)
            assert mean == Fraction(2 * (n - gap), n), n
