"""Whole rows of the bond and horizontal-separator distributions, by
inserting the largest value.

Every permutation of 1..m+1 arises exactly once by putting m + 1 into
one of the m + 1 gaps of a permutation of 1..m (before the first entry,
between two entries, after the last). m + 1 can only meet m (a bond) and
m - 1 (a horizontal separator at m), and it can only break what sat
across the gap it fills. So a few facts about the values near m suffice
for a state, and each layer maps states of S_m to states of S_{m+1}
with a number of gaps as weight. Row n of a statistic is its
distribution over S_n, as {value: count}.

Bonds (OEIS A001100; row 0 is Hertzsprung's problem, A002464). A bond
is two adjacent entries whose values differ by 1. The state is (k, j):
k bonds, of which j (0 or 1) join m - 1 and m.

* The two gaps beside m add the bond (m, m + 1). When j = 1, one of them
  lies between m - 1 and m and also breaks that bond.
* Each of the other k - j bond gaps breaks one bond.
* The remaining (m + 1) - 2 - (k - j) gaps change nothing.
* m + 1 joins m exactly for the two gaps beside m, so j' = 1 there and
  j' = 0 elsewhere.

Horizontal separators. A horizontal separator at a is the pair of
values {a - 1, a + 1} in adjacent positions, so one gap breaks at most
one separator. The state is
(k, x, y): k separators, x = 1 when m - 1 is next to m - 3 (the
separator at m - 2) and y = 1 when m is next to m - 2 (the separator at
m - 1).

* The two gaps beside m - 1 put m + 1 next to m - 1, which makes m a
  separator. When x holds, one of them lies between m - 3 and m - 1 and
  also breaks the separator at m - 2.
* When y holds, the gap between m - 2 and m breaks the separator at
  m - 1.
* Each of the other k - x - y separator gaps breaks one.
* The remaining (m + 1) - 2 - y - (k - x - y) gaps change nothing.
* In S_{m+1}, x' says m is next to m - 2, which is y, except after the
  (m - 2, m) gap, where x' = 0. y' says m + 1 is next to m - 1, which
  holds exactly for the two gaps beside m - 1.

The inverse of a permutation turns each vertical separator into a
horizontal one, so the horizontal rows are the vertical rows too.
"""

from __future__ import annotations


def _bond_moves(m, k, j):
    yield (k + 1, 1), 2 - j  # beside m, away from m - 1
    yield (k, 1), j  # between m - 1 and m
    yield (k - 1, 0), k - j  # in another bond
    yield (k, 0), m - 1 - k + j  # anywhere else


def _horizontal_moves(m, k, x, y):
    yield (k + 1, y, 1), 2 - x  # beside m - 1, away from m - 3
    yield (k, y, 1), x  # between m - 3 and m - 1
    yield (k - 1, 0, 0), y  # between m - 2 and m
    yield (k - 1, y, 0), k - x - y  # in another separator
    yield (k, y, 0), m - 1 - k + x  # anywhere else


def _rows(order, rows, first, states, moves) -> list[dict[int, int]]:
    """Extend ``rows`` (n = 0..first) to n = 0..order, layer by layer
    from ``states``, the counts of the states of S_first, each state
    keyed by its statistic first."""
    for m in range(first, order):
        nxt: dict[tuple, int] = {}
        for state, count in states.items():
            for new, ways in moves(m, *state):
                if ways:
                    nxt[new] = nxt.get(new, 0) + ways * count
        states = nxt
        row: dict[int, int] = {}
        for (k, *_), count in states.items():
            row[k] = row.get(k, 0) + count
        rows.append(row)
    return rows[:order + 1]


def bond_rows(order: int) -> list[dict[int, int]]:
    """Rows n = 0..order of the bond distribution.

    >>> sorted(bond_rows(4)[4].items())
    [(0, 2), (1, 10), (2, 10), (3, 2)]
    """
    return _rows(order, [{0: 1}, {0: 1}], 1, {(0, 0): 1}, _bond_moves)


def horizontal_rows(order: int) -> list[dict[int, int]]:
    """Rows n = 0..order of the horizontal (and vertical) separator
    distribution.

    >>> sorted(horizontal_rows(4)[4].items())
    [(0, 8), (1, 8), (2, 8)]
    """
    return _rows(
        order, [{0: 1}, {0: 1}, {0: 2}], 2, {(0, 0, 0): 2}, _horizontal_moves
    )
