"""The closed-form rows of `vertical`, `horizontal` and `bonds`
(:func:`sepstat.transfer.event_row`), against the series, the marked
series, the sweep, OEIS A002464 and moments counted from value pairs.

The file keeps the name it had when these rows came from insertion
recurrences, so that its test ids stay the same.
"""

from fractions import Fraction
from math import comb, factorial

import pytest

from sepstat import config
from sepstat.exhaustive import sweep
from sepstat.series import (
    MarkerPoly,
    bond_gf,
    bond_marked_gf,
    coeff,
    vertical_marked_gf,
    vertical_sep_gf,
)
from sepstat.transfer import event_row

ORDER = config.MAX_ORDER


def _series_rows(series):
    return [{m: c for m, c in enumerate(coeff(series, n).coeffs) if c}
            for n in range(ORDER + 1)]


def _rows(kind):
    return [event_row(n, kind) for n in range(ORDER + 1)]


def test_rows_equal_series_rows_up_to_the_largest_order():
    assert _rows("bonds") == _series_rows(bond_gf(ORDER))
    h = _series_rows(vertical_sep_gf(ORDER))
    assert _rows("horizontal") == h
    assert _rows("vertical") == h


@pytest.mark.parametrize("builder, kind", [(bond_marked_gf, "bonds"),
                                           (vertical_marked_gf, "vertical")],
                         ids=["bonds", "vertical"])
def test_marked_rows_are_the_binomial_transform_of_the_rows(builder, kind):
    # marking any k of a permutation's j events: [v^k] = sum_j C(j, k) count_j
    series = builder(ORDER)
    for n, row in enumerate(_rows(kind)):
        marked = [sum(comb(j, k) * c for j, c in row.items()) for k in range(n + 1)]
        assert coeff(series, n) == MarkerPoly(marked), n


@pytest.mark.parametrize("n", range(9))
def test_rows_equal_sweep(n):
    tables = sweep(n)
    for kind in ("bonds", "horizontal", "vertical"):
        assert event_row(n, kind) == tables[kind], kind


def test_bond_row_0_is_hertzsprungs_problem():
    # OEIS A002464: a(n) = (n+1)a(n-1) - (n-2)a(n-2) - (n-5)a(n-3)
    # + (n-3)a(n-4), with a(0..3) = 1, 1, 0, 0
    a = [1, 1, 0, 0]
    for n in range(4, ORDER + 1):
        a.append(
            (n + 1) * a[n - 1] - (n - 2) * a[n - 2]
            - (n - 5) * a[n - 3] + (n - 3) * a[n - 4]
        )
    assert [row.get(0, 0) for row in _rows("bonds")] == a


@pytest.mark.parametrize("kind, gap", [("bonds", 1), ("horizontal", 2)],
                         ids=["bonds", "horizontal"])
def test_rows_sum_to_n_factorial_with_mean_two_per_n_per_pair(kind, gap):
    # an event is one of the n - gap value pairs {v, v + gap} made
    # adjacent, and each pair is adjacent with probability 2/n
    for n, row in enumerate(_rows(kind)):
        total = sum(row.values())
        assert total == factorial(n), n
        if n >= 2:
            mean = Fraction(sum(m * c for m, c in row.items()), total)
            assert mean == Fraction(2 * (n - gap), n), n


@pytest.mark.parametrize("kind", ["bonds", "horizontal", "vertical"])
def test_second_factorial_moment_equals_the_pair_count(kind):
    # E[C(X, 2)] sums, over the unordered pairs of events, the chance
    # that both hold. Two value pairs {v, v + g} that share a value are
    # both adjacent in 2 (n - 2)! permutations (their three values in
    # one of 2 monotone orders), two disjoint ones in 4 (n - 2)!. Of the
    # C(n - g, 2) pairs of events, n - 2g share a value, which gives
    # 2(n - 2)^2 / (n(n - 1)) for bonds (g = 1) and
    # 2(n^2 - 6n + 10) / (n(n - 1)) for H and V (g = 2). The second is
    # right only for n >= 4: at n = 2 and 3 the count n - 4 of pairs
    # that share a value is negative.
    def formula(n):
        if kind == "bonds":
            return Fraction(2 * (n - 2) ** 2, n * (n - 1))
        return Fraction(2 * (n * n - 6 * n + 10), n * (n - 1))

    for n in range(2 if kind == "bonds" else 4, ORDER + 1):
        row = event_row(n, kind)
        pairs = sum(comb(m, 2) * c for m, c in row.items())
        assert Fraction(pairs, factorial(n)) == formula(n), n
