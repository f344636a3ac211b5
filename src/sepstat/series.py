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

from . import config


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
        self.coeffs = tuple(coeffs[:end])

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
        """Substitute marker -> marker + offset, expanded exactly.

        The Taylor shift is one Horner evaluation of the polynomial at
        X = 2^w + offset: p(X) = sum_j q_j 2^(w j), where q is the
        shifted polynomial, so its coefficients are the signed base-2^w
        digits of one integer. They are bounded by
        |q_j| <= sum_k |c_k| C(k, j) |offset|^(k - j)
        <= M = sum_k |c_k| (1 + |offset|)^k, itself a Horner evaluation,
        so a slot of w >= bit_length(M) + 1 bits (rounded up to whole
        bytes) holds q_j + 2^(w - 1) in 0..2^w - 1. Adding that bias
        to every slot makes the integer nonnegative and lets the slots
        be cut out of its bytes.
        """
        coeffs = self.coeffs
        if offset == 0 or not coeffs:
            return self
        base = 1 + abs(offset)
        bound = 0
        for c in reversed(coeffs):
            bound = bound * base + abs(c)
        size = (bound.bit_length() + 8) // 8  # bytes per slot
        width = 8 * size
        acc = 0
        for c in reversed(coeffs):
            acc = (acc << width) + offset * acc + c
        half = 1 << (width - 1)
        bias = int.from_bytes((b"\0" * (size - 1) + b"\x80") * len(coeffs), "little")
        raw = (acc + bias).to_bytes(size * len(coeffs), "little")
        return MarkerPoly([
            int.from_bytes(raw[i:i + size], "little") - half
            for i in range(0, len(raw), size)
        ])

    def __repr__(self) -> str:
        return f"MarkerPoly({list(self.coeffs)})"


class BiSeries:
    """A truncated series sum_e coeff[e] * z^e with MarkerPoly
    coefficients, exact up to z^order. The library never mutates a
    series or its coefficients, but nothing enforces this."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Mapping[int, MarkerPoly] | None = None):
        config.check_n(order, name="order")
        clean: dict[int, MarkerPoly] = {}
        if coeffs:
            for e, poly in coeffs.items():
                if e < 0 or e > order:
                    raise ValueError(f"exponent {e} outside 0..{order}")
                if poly:
                    clean[e] = poly
        self.order = order
        self.coeffs = clean

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
    not zero, and so is an exponent that is a bool or not an int."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"exponent {n!r} is not an integer")
    if not 0 <= n <= a.order:
        raise ValueError(f"exponent {n} outside the exact range 0..{a.order}")
    return a.coeffs.get(n) or MarkerPoly()


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
    config.check_n(size, name="size")
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
    config.check_n(order, name="order")
    table = run_table(order)
    weight = [factorial(m) for m in range(order + 1)]
    return BiSeries(order, {
        n: MarkerPoly([weight[n - k] * table[n - k][k] for k in range(n + 1)])
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

    With x_a = R[a][longer - a] and y_b = R[b][shorter - b], the
    coefficient of v^(n - s) is s! sum_{a+b=s} x_a y_b: a convolution,
    computed as one integer product (Kronecker substitution). x and y
    are packed into slots of w bits, w >= bit_length(sum x * sum y)
    rounded up to whole bytes. The terms are nonnegative, so every
    slot of the product holds a sum of at most sum x * sum y, which
    fits in w bits and never carries into the next slot.
    """
    config.check_n(order, name="order")
    half = (order + 1) // 2  # entries in the longer half at size order
    table = run_table(half)
    weight = [factorial(m) for m in range(2 * half + 1)]
    out: dict[int, MarkerPoly] = {}
    for n in range(order + 1):
        longer, shorter = (n + 1) // 2, n // 2
        x = [table[a][longer - a] for a in range(longer + 1)]
        y = [table[b][shorter - b] for b in range(shorter + 1)]
        size = ((sum(x) * sum(y)).bit_length() + 7) // 8  # bytes per slot
        product = _pack(x, size) * _pack(y, size)
        raw = product.to_bytes(size * (n + 1), "little")
        out[n] = MarkerPoly([
            weight[s] * int.from_bytes(raw[s * size:(s + 1) * size], "little")
            for s in range(n, -1, -1)
        ])
    return BiSeries(order, out)


def _pack(values: list[int], size: int) -> int:
    """sum_i values[i] * 2^(8 size i) for values in 0..2^(8 size) - 1."""
    packed = b"".join([v.to_bytes(size, "little") for v in values])
    return int.from_bytes(packed, "little")


def vertical_sep_gf(order: int) -> BiSeries:
    """Permutations by size and exact number of vertical separators:
    the marked series with marker -> marker - 1. By the inverse
    symmetry this is also the distribution of horizontal separators."""
    return substitute_marker(vertical_marked_gf(order), -1)
