"""Exact distributions of the five statistics over S_n, counted without
enumerating S_n.

A permutation is built left to right. Every statistic is read off
windows of at most three adjacent entries, so placing the next entry c
after the last two entries (a, b) can flag b vertical (when a and c
differ by 1), flag the midpoint of (b, c) horizontal (when b and c
differ by 2) and add the bond (b, c). A state is the set of used values
with the last two entries; it carries, for each value the statistic has
reached so far, the number of prefixes that lead to it.

`both` and `any` count values, not events: a value is flagged at most
once vertical and at most once horizontal, and its first flag adds 1 to
`any`, its second 1 to `both`. Their states also keep the values that
hold one flag and can still receive the other:

* a value flagged vertical waits while its two value neighbours can
  still become adjacent: both unused, or one unused and the other the
  last entry;
* a value flagged horizontal waits while it is unused or is the last
  entry (the entry after it decides its vertical flag).

Each state's counts are one packed int, coefficient m in slot m of
``factorial(n).bit_length() + 1`` bits, so a transition is one exact
big-int add. The complement x -> n + 1 - x preserves all five
statistics, so only first entries up to (n + 1) / 2 are run, each
weighted by 2 except a middle one.
"""

from __future__ import annotations

from collections import Counter
from math import factorial

from . import config
from .separators import KINDS, VerificationError, has_knight_pair, separator_masks


def _window_events(n: int) -> tuple[list, list, list]:
    """Event tables over every ordered pair (b, c) and triple (a, b, c)
    of distinct values in 1..n: ``vflag[a][b][c]`` (b is vertical),
    ``mid[b][c]`` (the value flagged horizontal, or 0) and
    ``bond[b][c]``; index 0 stands for "no entry" and has no events.

    The events are read off :func:`separator_masks`, and every window is
    put to :func:`has_knight_pair` as well. Both are window-local, so
    agreement on every window is agreement on every word; a
    disagreement raises ``VerificationError``.
    """
    size = n + 1
    vflag = [[[False] * size for _ in range(size)] for _ in range(size)]
    mid = [[0] * size for _ in range(size)]
    bond = [[0] * size for _ in range(size)]

    def events(window: tuple[int, ...]) -> tuple[int, int, int]:
        vm, hm, bonds = separator_masks(window)
        if (vm | hm != 0) != has_knight_pair(window):
            raise VerificationError(
                f"separator-free oracles disagree on window {window}"
            )
        return vm, hm, bonds

    values = range(1, size)
    for b in values:
        for c in values:
            if c == b:
                continue
            _, hm, bonds = events((b, c))
            mid[b][c] = hm.bit_length() - 1 if hm else 0
            bond[b][c] = bonds
            for a in values:
                if a != b and a != c:
                    vflag[a][b][c] = events((a, b, c))[0] != 0
    return vflag, mid, bond


def distribution(n: int, kind: str) -> Counter:
    """Exact distribution of one statistic over S_n, as {value: count}
    with only nonzero counts.

    >>> sorted(distribution(4, "any").items())
    [(0, 8), (2, 6), (3, 8), (4, 2)]
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {KINDS}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > config.MAX_TRANSFER_N:
        raise ValueError(f"n={n} exceeds the transfer cap {config.MAX_TRANSFER_N}")
    vflag, mid, bond = _window_events(n)
    if n < 2:
        return Counter({0: 1})
    width = factorial(n).bit_length() + 1
    total = 0
    for first in range(1, (n + 1) // 2 + 1):
        weight = 1 if 2 * first == n + 1 else 2
        if kind in ("both", "any"):
            poly = _flag_pass(n, first, width, kind, vflag, mid)
        else:
            poly = _event_pass(n, first, width, kind, vflag, mid, bond)
        total += weight * poly
    slot = (1 << width) - 1
    counts = Counter()
    for m in range(n + 1):
        count = total >> (m * width) & slot
        if count:
            counts[m] = count
    return counts


# Keys pack the used-value mask (bit v for value v) in the low n + 1
# bits, then the last entry b and the one before it, a, in 4 bits each
# (values are at most 12), then the two waiting sets of `both` and `any`.
# The entry before the last only decides whether the last is vertical,
# which needs the next entry to be a value neighbour of it; once both
# value neighbours are used it is stored as 0, which merges states.


def _near(n: int) -> list[int]:
    """Bit mask of the value neighbours v - 1 and v + 1 in 1..n of each
    value v (index 0 has none)."""
    full = (1 << n + 1) - 2
    return [0] + [(1 << v - 1 | 1 << v + 1) & full for v in range(1, n + 1)]


def _event_pass(n, first, width, kind, vflag, mid, bond) -> int:
    """Counts for `vertical`, `horizontal` or `bonds` over the
    permutations starting with ``first``: each event adds 1, so a
    transition shifts its counts by ``width`` or by nothing."""
    size = n + 1
    full = (1 << size) - 2
    vals = range(1, size)
    near = _near(n)
    if kind == "vertical":
        shift = [[[width * f for f in row] for row in plane] for plane in vflag]
    else:
        near = [0] * size  # only `vertical` reads the entry before the last
        table = mid if kind == "horizontal" else bond
        plane = [[width * (e != 0) for e in row] for row in table]
        shift = [plane] * size
    cur = {1 << first | first << size: 1}
    for step in range(2, n + 1):
        keymask = -1 if step < n else 0  # the last layer merges every state
        nxt: dict[int, int] = {}
        while cur:
            key, poly = cur.popitem()
            used = key & full
            b = key >> size & 15
            row = shift[key >> size + 4 & 15][b]
            waiting = near[b] & ~used
            for c in vals:
                if used >> c & 1:
                    continue
                bit = 1 << c
                a = b if waiting | bit != bit else 0
                k2 = (used | bit | c << size | a << size + 4) & keymask
                nxt[k2] = nxt.get(k2, 0) + (poly << row[c])
        cur = nxt
    return cur.popitem()[1]


def _flag_pass(n, first, width, kind, vflag, mid) -> int:
    """Counts for `both` or `any` over the permutations starting with
    ``first``, with the waiting sets in the state."""
    size = n + 1
    full = (1 << size) - 2
    vals = range(1, size)
    near = _near(n)
    first_flag, second_flag = (width, 0) if kind == "any" else (0, width)
    pv_at = size + 8  # values flagged vertical, waiting for horizontal
    ph_at = 2 * size + 8  # values flagged horizontal, waiting for vertical
    cur = {1 << first | first << size: 1}
    for step in range(2, n + 1):
        keymask = -1 if step < n else 0
        nxt: dict[int, int] = {}
        while cur:
            key, poly = cur.popitem()
            used = key & full
            b = key >> size & 15
            vrow = vflag[key >> size + 4 & 15][b]
            mrow = mid[b]
            pv = key >> pv_at & full
            ph = key >> ph_at
            waiting = near[b] & ~used
            for c in vals:
                if used >> c & 1:
                    continue
                bit = 1 << c
                used2 = used | bit
                v2, h2, inc = pv, ph, 0
                if vrow[c]:
                    if h2 >> b & 1:
                        h2 ^= 1 << b
                        inc = second_flag
                    else:
                        v2 |= 1 << b
                        inc = first_flag
                m = mrow[c]
                if m:
                    if v2 >> m & 1:
                        v2 ^= 1 << m
                        inc += second_flag
                    else:
                        h2 |= 1 << m
                        inc += first_flag
                avail = full ^ used2 | bit  # unused, or the last entry
                v2 &= avail << 1 & avail >> 1
                h2 &= avail
                a = b if waiting | bit != bit else 0
                k2 = (used2 | c << size | a << size + 4 | v2 << pv_at
                      | h2 << ph_at) & keymask
                nxt[k2] = nxt.get(k2, 0) + (poly << inc)
        cur = nxt
    return cur.popitem()[1]
