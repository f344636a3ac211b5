import json
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from sepstat.cli import main
from sepstat.exhaustive import expectation_formula, sweep
from sepstat.series import (
    BiSeries,
    MarkerPoly,
    bond_gf,
    bond_marked_gf,
    coeff,
    run_table,
    substitute_marker,
    vertical_marked_gf,
    vertical_sep_gf,
)

small_polys = st.builds(
    MarkerPoly, st.lists(st.integers(min_value=-9, max_value=9), max_size=5)
)


# ---------------------------------------------------------------------------
# MarkerPoly


def test_poly_normalization_and_lookup():
    p = MarkerPoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert not MarkerPoly((0, 0))
    assert MarkerPoly((0, 0)) == MarkerPoly()


def test_poly_mul():
    assert MarkerPoly((1, 1)) * MarkerPoly((1, 1)) == MarkerPoly((1, 2, 1))
    assert MarkerPoly((2, 3)) * 0 == MarkerPoly()
    assert 3 * MarkerPoly((1, 0, 2)) == MarkerPoly((3, 0, 6))


def test_poly_shift_expansion():
    # v^2 at offset -1 is (v-1)^2
    assert MarkerPoly((0, 0, 1)).shifted(-1) == MarkerPoly((1, -2, 1))
    assert MarkerPoly((6, 4)).shifted(-1) == MarkerPoly((2, 4))


def binomial_shift(poly, offset):
    """The shift expanded term by term: c*v^k becomes
    sum_j c*C(k, j)*offset^(k-j)*v^j."""
    out = [0] * len(poly.coeffs)
    for k, c in enumerate(poly.coeffs):
        for j in range(k + 1):
            out[j] += c * comb(k, j) * offset ** (k - j)
    return MarkerPoly(out)


@given(small_polys, st.integers(min_value=-3, max_value=3))
def test_poly_shift_roundtrip(p, c):
    assert p.shifted(c).shifted(-c) == p


@given(
    st.builds(MarkerPoly, st.lists(st.integers(-10**6, 10**6), max_size=12)),
    st.integers(min_value=-5, max_value=5),
)
def test_poly_shift_matches_binomial_expansion(p, c):
    assert p.shifted(c) == binomial_shift(p, c)


def synthetic_division_shift(poly, offset):
    """The shift by repeated synthetic division, d(d + 1)/2 steps of
    one multiply-add each."""
    out = list(poly.coeffs)
    d = len(out) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            out[j] += offset * out[j + 1]
    return MarkerPoly(out)


BIG = 10**400
WIDTH_CASES = [
    (),
    (5,),
    (-BIG,),
    # degree 0: the one slot equals the bound, here 2^(8k) - 1, so a
    # slot with no room for the sign overflows
    (255,),
    (-255,),
    (2**64 - 1,),
    (-(2**64 - 1),),
    (BIG, -BIG),
    (0, 1),
    (-3, -7),
    (BIG, 0, 0, -1, 0, BIG),
    (-1, -BIG, -2, -BIG),
    tuple(range(1, 66)),
    tuple(-BIG - k for k in range(65)),
    tuple((-1) ** k * BIG for k in range(65)),
    tuple(BIG if k % 7 == 0 else 0 for k in range(65)),
]


@pytest.mark.parametrize("offset", (1, -1, 2, -2, 1000, -1000))
@pytest.mark.parametrize("coeffs", WIDTH_CASES, ids=range(len(WIDTH_CASES)))
def test_poly_shift_at_the_slot_width_bound(coeffs, offset):
    # degrees 0, 1 and 64, huge and all-negative coefficients, interior
    # zeros: every slot of the packed shift must come back exact
    p = MarkerPoly(coeffs)
    assert p.shifted(offset) == binomial_shift(p, offset)
    assert p.shifted(offset) == synthetic_division_shift(p, offset)
    assert p.shifted(offset).shifted(-offset) == p


@pytest.mark.parametrize("d", range(65))
def test_poly_shift_of_binomial_power(d):
    # (1 + t)^d -> (2 + t)^d: every term of the per-slot bound
    # sum_k |c_k| C(k, j) |offset|^(k - j) is positive, so each slot
    # meets that bound exactly
    p = MarkerPoly([comb(d, j) for j in range(d + 1)])
    expected = MarkerPoly([comb(d, j) * 2 ** (d - j) for j in range(d + 1)])
    assert p.shifted(1) == expected == binomial_shift(p, 1)
    assert expected.shifted(-1) == p


def test_substitute_marker_matches_binomial_expansion_at_order_64():
    a = vertical_marked_gf(64)
    for offset in (-1, 2, -3, 5):
        shifted = substitute_marker(a, offset)
        for e, poly in a:
            assert coeff(shifted, e) == binomial_shift(poly, offset)


@given(small_polys, small_polys, small_polys)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# BiSeries


def test_series_validation():
    with pytest.raises(ValueError):
        BiSeries(2, {3: MarkerPoly((1,))})
    with pytest.raises(ValueError):
        BiSeries(2, {-2: MarkerPoly((1,))})
    with pytest.raises(ValueError):
        BiSeries(0, {-1: MarkerPoly((1,))})
    with pytest.raises(ValueError):
        BiSeries(-1)


def test_substitute_marker():
    a = BiSeries(2, {2: MarkerPoly((0, 0, 1))})
    assert coeff(substitute_marker(a, -1), 2) == MarkerPoly((1, -2, 1))
    assert substitute_marker(a, 0) == a
    assert substitute_marker(substitute_marker(a, -1), +1) == a


@given(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda order: st.builds(
            BiSeries,
            st.just(order),
            st.dictionaries(st.integers(0, order), small_polys, max_size=order + 1),
        )
    ),
    st.integers(min_value=-5, max_value=5),
)
def test_substitute_marker_roundtrip(a, offset):
    assert substitute_marker(substitute_marker(a, offset), -offset) == a


def test_coeff_bounds():
    h = vertical_sep_gf(3)
    assert coeff(h, 0) == MarkerPoly((1,))
    assert coeff(h, 3).coeffs[1] == 4
    with pytest.raises(ValueError, match=r"^exponent 4 outside the exact range 0\.\.3$"):
        coeff(h, 4)
    with pytest.raises(ValueError, match=r"^exponent -1 outside the exact range 0\.\.3$"):
        coeff(h, -1)


@pytest.mark.parametrize("n", [True, 1.0, "1"])
def test_coeff_requires_an_int_exponent(n):
    with pytest.raises(ValueError, match=rf"^exponent {n!r} is not an integer$"):
        coeff(bond_gf(3), n)


def test_absent_rows_share_no_zero():
    # a caller that writes to the zero it was handed changes no other row
    coeff(BiSeries(2), 1).coeffs = (5,)
    assert coeff(BiSeries(3), 0) == MarkerPoly()


# ---------------------------------------------------------------------------
# The run table


def test_run_table_matches_composition_count():
    # R[m][k] spreads k extra entries over i of the m runs (each of them
    # then ascending or descending): sum_i C(m, i) 2^i C(k - 1, i - 1)
    size = 64
    table = run_table(size)
    for m in range(size + 1):
        assert table[m][0] == 1
        for k in range(1, size + 1):
            want = sum(comb(m, i) * 2**i * comb(k - 1, i - 1) for i in range(1, m + 1))
            assert table[m][k] == want, (m, k)
    with pytest.raises(ValueError):
        run_table(-1)


# ---------------------------------------------------------------------------
# Marked bonds / bonds


def test_bond_marked_gf_small_rows():
    a = bond_marked_gf(4)
    assert coeff(a, 0) == MarkerPoly((1,))
    assert coeff(a, 1) == MarkerPoly((1,))
    assert coeff(a, 3) == MarkerPoly((6, 8, 2))


def test_bond_marked_gf_matches_binomial_oracle():
    # marked-bond counts are sums of C(bonds, m) over the group
    a = bond_marked_gf(8)
    for n in range(9):
        table = sweep(n)["bonds"]
        want = [sum(c * comb(b, m) for b, c in table.items()) for m in range(n + 1)]
        assert coeff(a, n) == MarkerPoly(want), n


def test_bond_gf_rows():
    b = bond_gf(4)
    assert coeff(b, 3) == MarkerPoly((0, 4, 2))
    assert sum(coeff(b, 4).coeffs) == 24
    assert coeff(b, 4).coeffs[0] == 2  # the two kings of S_4


def test_bond_gf_row_zero_is_hertzsprungs_problem():
    """Row m = 0 of the bond series counts the permutations with no
    |p_i - p_{i+1}| = 1: Hertzsprung's problem, OEIS A002464
    (https://oeis.org/A002464), a(n) = (n+1)a(n-1) - (n-2)a(n-2)
    - (n-5)a(n-3) + (n-3)a(n-4) with a(0..3) = 1, 1, 0, 0. The
    recurrence does not use the run table, so this checks the series
    past the sweep's reach, up to the CLI's largest order."""
    a = [1, 1, 0, 0]
    for n in range(4, 65):
        a.append(
            (n + 1) * a[n - 1] - (n - 2) * a[n - 2]
            - (n - 5) * a[n - 3] + (n - 3) * a[n - 4]
        )
    b = bond_gf(64)
    assert [coeff(b, n).coeffs[0] for n in range(65)] == a


# ---------------------------------------------------------------------------
# Vertical separators


def test_vertical_marked_gf_small_rows():
    g = vertical_marked_gf(3)
    assert coeff(g, 0) == MarkerPoly((1,))
    assert coeff(g, 2) == MarkerPoly((2,))
    assert coeff(g, 3) == MarkerPoly((6, 4))


def paired_vertical_marked_rows(order):
    """The rows of the marked vertical series by pairing the run-table
    entries of the two halves directly, one term per pair (a, b)."""
    table = run_table((order + 1) // 2)
    rows = []
    for n in range(order + 1):
        longer, shorter = (n + 1) // 2, n // 2
        row = [0] * (n + 1)
        for a in range(longer + 1):
            for b in range(shorter + 1):
                row[n - a - b] += (
                    factorial(a + b) * table[a][longer - a] * table[b][shorter - b]
                )
        rows.append(MarkerPoly(row))
    return rows


def test_vertical_marked_gf_matches_direct_pairing():
    oracle = paired_vertical_marked_rows(64)
    for order in range(65):
        g = vertical_marked_gf(order)
        assert g.order == order
        for n in range(order + 1):
            # every term, the v^k with k >= 2 included
            assert coeff(g, n) == oracle[n]


def test_vertical_sep_gf_small_rows():
    h = vertical_sep_gf(3)
    assert coeff(h, 3) == MarkerPoly((2, 4))
    assert coeff(h, 1) == MarkerPoly((1,))
    assert coeff(h, 2) == MarkerPoly((2,))


@pytest.mark.parametrize("n", range(7))
def test_vertical_sep_gf_matches_enumeration(n):
    h = vertical_sep_gf(6)
    table = sweep(n)["vertical"]
    row = {m: c for m, c in enumerate(coeff(h, n).coeffs) if c}
    assert row == dict(table)


def test_normalization_at_marker_one():
    h = vertical_sep_gf(8)
    for n in range(9):
        assert sum(coeff(h, n).coeffs) == factorial(n)


def test_binomial_transform_between_marked_and_exact():
    g = vertical_marked_gf(8)
    h = vertical_sep_gf(8)
    for n in range(9):
        row = coeff(h, n).coeffs
        want = [sum(c * comb(k, m) for k, c in enumerate(row)) for m in range(n + 1)]
        assert coeff(g, n) == MarkerPoly(want)


def test_vertical_marked_gf_first_moment_is_the_expectation_formula():
    # [z^n v^1] counts (permutation, vertical separator) pairs, so over
    # n! it is E[V]; neither side enumerates S_n
    g = vertical_marked_gf(64)
    for n in range(65):
        row = coeff(g, n).coeffs
        pairs = row[1] if len(row) > 1 else 0
        assert Fraction(pairs, factorial(n)) == expectation_formula(n, "vertical")


def test_marker_degree_bound():
    # vertical separators occupy interior positions, so at most n - 2
    # fit; the bound is attained from n = 3 on
    h = vertical_sep_gf(8)
    for n in range(9):
        assert len(coeff(h, n).coeffs) - 1 <= max(n - 2, 0)
    for n in range(3, 9):
        assert len(coeff(h, n).coeffs) - 1 == n - 2


def test_nonnegative_counts():
    for series in (vertical_sep_gf(8), vertical_marked_gf(8), bond_marked_gf(8)):
        for n in range(9):
            assert all(c >= 0 for c in coeff(series, n).coeffs)


def test_horizontal_distribution_equals_vertical_series():
    h = vertical_sep_gf(6)
    for n in range(7):
        table = sweep(n)["horizontal"]
        row = {m: c for m, c in enumerate(coeff(h, n).coeffs) if c}
        assert row == dict(table)


# ---------------------------------------------------------------------------
# Rendered by `gf`


def test_series_to_json_shape(capsys):
    assert main(["gf", "--which", "h", "--order", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 3
    assert data["coeffs"]["0"] == ["1"]
    assert data["coeffs"]["3"] == ["2", "4"]


def test_series_csv_rows(capsys):
    assert main(["gf", "--which", "A", "--order", "3", "--format", "csv"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = [tuple(int(field) for field in line.split(",")) for line in lines]
    assert header == "n,m,count"
    assert (3, 0, 6) in rows and (3, 1, 8) in rows and (3, 2, 2) in rows
    assert all(c != 0 for _, _, c in rows)
