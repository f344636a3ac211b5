"""Truncated power series in z with integer polynomial coefficients
in one marker variable, and the generating functions for the bond and
vertical-separator statistics.

Every coefficient is read off one table of exact integers, the run
table; a series of order N stores the coefficients of z^0..z^N and
nothing beyond the order.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, Mapping


class MarkerPoly:
    """An integer polynomial in the marker variable, stored densely
    with no trailing zeros.

    >>> MarkerPoly((6, 8, 2))
    MarkerPoly([6, 8, 2])
    >>> MarkerPoly((1, 1)) * MarkerPoly((1, 1))
    MarkerPoly([1, 2, 1])
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] | list[int] = ()) -> None:
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MarkerPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    # perfbench/tracing.py looks up __add__, __mul__ and __rmul__ by name
    def __add__(self, other: "MarkerPoly") -> "MarkerPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return MarkerPoly(out)

    def __mul__(self, other: "MarkerPoly | int") -> "MarkerPoly":
        if isinstance(other, int):
            return MarkerPoly(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return MarkerPoly(out)

    __rmul__ = __mul__

    def shifted(self, offset: int) -> "MarkerPoly":
        """Substitute marker -> marker + offset, expanded exactly (a
        Taylor shift by repeated synthetic division)."""
        if offset == 0 or not self.coeffs:
            return self
        out = list(self.coeffs)
        d = len(out) - 1
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                out[j] += offset * out[j + 1]
        return MarkerPoly(out)

    def __repr__(self) -> str:
        return f"MarkerPoly({list(self.coeffs)})"


_ZERO = MarkerPoly()


class BiSeries:
    """A truncated series sum_e coeff[e] * z^e with MarkerPoly
    coefficients, exact up to z^order. Treated as immutable."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Mapping[int, MarkerPoly] | None = None):
        if order < 0:
            raise ValueError(f"series order {order} out of range")
        clean: dict[int, MarkerPoly] = {}
        if coeffs:
            for e, poly in coeffs.items():
                if e < 0 or e > order:
                    raise ValueError(f"exponent {e} outside 0..{order}")
                if poly:
                    clean[e] = poly
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", clean)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __iter__(self) -> Iterator[tuple[int, MarkerPoly]]:
        return iter(sorted(self.coeffs.items()))

    def __repr__(self) -> str:
        terms = ", ".join(f"z^{e}: {list(p.coeffs)}" for e, p in self)
        return f"BiSeries(order={self.order}, {{{terms}}})"


def substitute_marker(a: BiSeries, offset: int) -> BiSeries:
    """Replace the marker variable t by t + offset in every coefficient."""
    return BiSeries(a.order, {e: poly.shifted(offset) for e, poly in a.coeffs.items()})


def coeff(a: BiSeries, n: int) -> MarkerPoly:
    """The z^n coefficient; beyond the truncation order is an error,
    not zero."""
    if not 0 <= n <= a.order:
        raise ValueError(f"exponent {n} outside the exact range 0..{a.order}")
    return a.coeffs.get(n, _ZERO)


# ---------------------------------------------------------------------------
# The generating functions


def run_table(size: int) -> list[list[int]]:
    """R[m][k] = [x^k] ((1 + x)/(1 - x))^m for 0 <= m, k <= size.

    R[m][k] counts the ways to cut m + k ordered entries into m runs,
    each run of two or more entries ascending or descending; a run of
    j entries adds j - 1 to k. Multiplying ((1 + x)/(1 - x))^m by
    1 - x gives R[m][k] = R[m][k-1] + R[m-1][k] + R[m-1][k-1].

    >>> run_table(3)
    [[1, 0, 0, 0], [1, 2, 2, 2], [1, 4, 8, 12], [1, 6, 18, 38]]
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    table = [[1] + [0] * size]
    for _ in range(size):
        prev, row = table[-1], [1]
        for k in range(1, size + 1):
            row.append(row[k - 1] + prev[k] + prev[k - 1])
        table.append(row)
    return table


def bond_marked_gf(order: int) -> BiSeries:
    """Permutations by size (z) and number of *marked* bonds (marker).

    A permutation with marked bonds is a sequence of m runs of the
    run factor f = z + sum_{j>=2} 2 z^j v^{j-1} (a length-1 run, or an
    ascending or descending run of j entries with one marker per bond),
    in any of m! orders. A run of j entries carries j - 1 bonds, so
    f = z (1 + x)/(1 - x) with x = z v, and
    [z^n v^k] = (n - k)! R[n - k][k]. The empty permutation (m = 0)
    gives the constant term 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    table = run_table(order)
    return BiSeries(order, {
        n: MarkerPoly([factorial(n - k) * table[n - k][k] for k in range(n + 1)])
        for n in range(order + 1)
    })


def bond_gf(order: int) -> BiSeries:
    """Permutations by size and exact number of bonds: the marked
    series with marker -> marker - 1 (inclusion-exclusion)."""
    return substitute_marker(bond_marked_gf(order), -1)


def vertical_marked_gf(order: int) -> BiSeries:
    """Permutations by size and number of *marked* vertical separators.

    The entry between the ends of a bond of one comb half sits in the
    other half, so marked vertical separators are the marked bonds of
    the two halves (`comb_marked`). Each half is a sequence of runs of
    the bond series' run factor f, read in w = z^2 because a half holds
    every other entry. Halves of j and l entries cut into a and b
    runs give [w^j] f^a * [w^l] f^b = R[a][j - a] R[b][l - b]
    v^(n - a - b) (see `run_table`), and the a + b runs can be ordered
    in (a + b)! ways. Size 2k pairs two halves of k entries; size
    2k + 1 pairs the k + 1 odd-position entries with the k even ones.
    This pairing is the Hadamard product of the two halves' series.
    Only size 0 takes the empty pair, so the constant term is 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    half = (order + 1) // 2  # entries in the longer half at size order
    table = run_table(half)
    weight = [factorial(m) for m in range(2 * half + 1)]
    out: dict[int, MarkerPoly] = {}
    for n in range(order + 1):
        longer, shorter = (n + 1) // 2, n // 2
        row = [0] * (n + 1)
        for a in range(longer + 1):
            ra = table[a][longer - a]
            for b in range(shorter + 1):
                row[n - a - b] += weight[a + b] * ra * table[b][shorter - b]
        out[n] = MarkerPoly(row)
    return BiSeries(order, out)


def vertical_sep_gf(order: int) -> BiSeries:
    """Permutations by size and exact number of vertical separators:
    the marked series with marker -> marker - 1. By the inverse
    symmetry this is also the distribution of horizontal separators."""
    return substitute_marker(vertical_marked_gf(order), -1)


# ---------------------------------------------------------------------------
# Export


def series_to_json(a: BiSeries) -> dict:
    """{"order": N, "coeffs": {"n": ["c0", "c1", ...]}} with big
    integers rendered as decimal strings."""
    return {
        "order": a.order,
        "coeffs": {
            str(e): [str(c) for c in poly.coeffs] for e, poly in a
        },
    }


def series_csv_rows(a: BiSeries) -> list[tuple[int, int, int]]:
    """One (n, m, count) row per nonzero coefficient."""
    rows = []
    for e, poly in a:
        for m, c in enumerate(poly.coeffs):
            if c:
                rows.append((e, m, c))
    return rows
