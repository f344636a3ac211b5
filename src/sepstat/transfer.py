"""Exact distributions of the five statistics over S_n, counted without
enumerating S_n.

Every statistic is read off windows of at most three adjacent entries:
placing the next entry c after the last two entries (a, b) can flag b
vertical (when a and c differ by 1), flag the midpoint of (b, c)
horizontal (when b and c differ by 2) and add the bond (b, c). Before
any counting, for every kind, each window of 1..n is put to
`separator_masks`, whose masks must be what this value-distance rule
gives, and to the knight oracle.

`vertical`, `horizontal` and `bonds` count events, and each event is
fixed by one value distance: |c - a| = 1, |c - b| = 2 and |c - b| = 1.
A bond is a pair {v, v + 1} of values in adjacent positions, a
horizontal separator at u is the pair {u - 1, u + 1} in adjacent
positions, and the inverse of a permutation turns each vertical
separator into a horizontal one. So each row counts S_n by how many
pairs of a fixed set stand side by side, and :func:`event_row` writes
it in closed form by inclusion-exclusion (Kaplansky, Ann. Math.
Statist. 16, 1945):

* Chosen pairs that share a value chain into runs. If every pair of a
  run of j pairs is adjacent, its j + 1 values stand together in one of
  2 monotone orders and act as one entry. So for a set S of e pairs
  in r runs, 2^r (n - e)! permutations make every pair of S adjacent.
* Summed over the sets S of size e this is (n - e)! c_e, where c_e
  counts the e-sets with weight 2 per run. A permutation with k
  adjacent pairs is counted C(k, e) times, so
  (n - e)! c_e = sum_k C(k, e) count_k, and inverting gives
  count_k = sum_e (-1)^(e - k) C(e, k) (n - e)! c_e.
* The bond pairs form one line of values, 1..n. The horizontal pairs
  form two, the odd values and the even values; a set of them splits
  into one set on each line, its runs into the runs of each, so c is the
  convolution of the lines of ceil(n/2) and floor(n/2) values.

For n = 4 the horizontal lines are 1, 3 and 2, 4, each with c = (1, 2),
so c = (1, 4, 4), the terms (n - e)! c_e are 24, 24 and 8, and the row
is 24 - 24 + 8, 24 - 2 * 8 and 8:

>>> sorted(event_row(4, "horizontal").items())
[(0, 8), (1, 8), (2, 8)]

The bond rows are OEIS A001100, and their row 0 is Hertzsprung's
problem, A002464. c_e for a line of m values is R[m - e][e] of the run
table off which :mod:`sepstat.series` reads its coefficients. It is
written here again, importing nothing from there
(``tests/test_route_graph.py`` pins this module's imports), so that
comparing the rows with the series compares two pieces of code.

`both` and `any` count values, not events: a value is flagged at most
once vertical and at most once horizontal, and its first flag adds 1 to
`any`, its second 1 to `both`. Their pass builds permutations left to
right, and a state carries, for each value the statistic has reached so
far, the number of prefixes that lead to it. The states are the used
values, the last two entries and the values that hold one flag and can
still receive the other:

* a value flagged vertical waits while its two value neighbours can
  still become adjacent: both unused, or one unused and the other the
  last entry;
* a value flagged horizontal waits while it is unused or is the last
  entry (the entry after it decides its vertical flag).

Each layer groups its states by position, the used values and the last
two entries, and keeps one table of waiting sets per position. The
positions that differ only in the entry before the last, a, reach the
same successors: placing c after the last entry b leads to the used
values with c, the entries b and c, and every event but b's vertical
flag depends on b and c alone. So a step expands each group of
positions with the same used values and b once. Their tables are
projected together, once, onto the waiting sets that can still
matter, and each next entry c adds that one table to its successor, as
it stands when c flags nothing (most of them) and walked once when c
flags a horizontal separator. Only the tables whose a is c - 1 or
c + 1, at most two for each c, are walked again to move their counts to
b's vertical flag.

The complement x -> n + 1 - x preserves all five statistics and maps
this pass's transitions onto each other, so a state and its complement
lead to the same counts. The pass starts from the empty prefix, and
each of its n steps groups the layer, folds the groups and then places
one more entry; the counts are the sum of the last layer. The fold
works on whole groups, in place. Of a group and its complement group,
when both are in the layer, the one with fewer waiting sets is
complemented into the other member by member: the table of a goes to
the member n + 1 - a (0 stays 0), its waiting sets complemented, so the
pair is expanded once even where their members do not pair up. A group
whose complement is absent, or that is its own complement, is expanded
as it stands. The rule keeps its form under the complement: |c - a| is
unchanged and a midpoint m maps to n + 1 - m, so the checked events
commute with it.

Each state's counts are one packed int, coefficient m in slot m of
``factorial(n).bit_length() + 1`` bits, so a transition is one exact
big-int add.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial

from . import config
from .separators import KINDS, VerificationError, has_knight_pair, separator_masks


def _check_windows(n: int) -> list:
    """Check every window of distinct values in 1..n, in one loop over
    a = 0..n: a = 0 stands for "no entry" and gives the pairs (b, c),
    which flag no vertical and form no pair (a, b); the others give the
    triples (a, b, c). Return the horizontal mask of each pair (b, c)
    as ``table[b][c]``; row 0 and column 0, "no entry", are all 0.

    Each window's :func:`separator_masks` must be what the value-distance
    rule gives: b vertical exactly when |c - a| = 1, the midpoint of
    each adjacent pair that differs by 2 horizontal, and a bond for each
    adjacent pair that differs by 1. It is put to :func:`has_knight_pair`
    as well. All three are window-local, so agreement on every window is
    agreement on every word; a disagreement raises ``VerificationError``
    naming the window.
    """
    size = n + 1
    values = range(1, size)
    # the rule for the adjacent pair (x, y): its horizontal mask and bonds;
    # row and column 0 are "no entry", which forms no pair
    pair = [[(0, 0)] * size] + [
        [(0, 0)] + [(1 << (x + y >> 1) if abs(x - y) == 2 else 0,
                     int(abs(x - y) == 1)) for y in values] for x in values]
    # the knight oracle must find a pair exactly when a mask is nonempty
    for a in range(size):
        for b in values:
            if b == a:
                continue
            ha, ba = pair[a][b]
            rule = pair[b]
            for c in values:
                if c != a and c != b:
                    vertical = a and abs(c - a) == 1
                    hm, bonds = rule[c]
                    window = (a, b, c) if a else (b, c)
                    masks = (vertical << b, ha | hm, ba + bonds)
                    found = separator_masks(window)
                    if found != masks:
                        raise VerificationError(
                            f"separator_masks breaks the value-distance rule on "
                            f"window {window}: {found}, not {masks}"
                        )
                    if has_knight_pair(window) != (vertical or ha | hm != 0):
                        raise VerificationError(
                            f"separator-free oracles disagree on window {window}"
                        )
    return [[hm for hm, _ in row] for row in pair]


def distribution(n: int, kind: str) -> Counter:
    """Exact distribution of one statistic over S_n, as {value: count}
    with only nonzero counts.

    >>> sorted(distribution(4, "any").items())
    [(0, 8), (2, 6), (3, 8), (4, 2)]
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {KINDS}")
    config.check_n(n, config.MAX_TRANSFER_N, "transfer")
    if kind not in ("both", "any"):
        _check_windows(n)
        return Counter(event_row(n, kind))
    width = factorial(n).bit_length() + 1
    total = _flag_pass(n, *_flag_shifts(width, kind))
    slot = (1 << width) - 1
    counts = Counter()
    for m in range(n + 1):
        count = total >> (m * width) & slot
        if count:
            counts[m] = count
    return counts


def _line(m: int) -> list[int]:
    """c_e for a line of m values, e = 0..m - 1 ([1] when m <= 1): the
    ways to choose e of its m - 1 pairs (v, v + 1) and orient each
    maximal run of chosen pairs, 2 ways per run. The r runs of e chosen
    pairs are a composition of e into r parts, C(e - 1, r - 1) ways, set
    among the m - 1 - e other pairs, C(m - e, r) ways."""
    return [1] + [sum(2 ** r * comb(e - 1, r - 1) * comb(m - e, r)
                      for r in range(1, e + 1)) for e in range(1, m)]


def event_row(n: int, kind: str) -> dict[int, int]:
    """Row n of `vertical`, `horizontal` or `bonds` in closed form, as
    {value: count} with only nonzero counts, for any n >= 0. It makes
    no window check and has no cap; :func:`distribution` adds both.

    >>> sorted(event_row(4, "bonds").items())
    [(0, 2), (1, 10), (2, 10), (3, 2)]
    """
    if kind not in (kinds := ("vertical", "horizontal", "bonds")):
        raise ValueError(f"unknown kind {kind!r}; choose from {kinds}")
    config.check_n(n)
    if kind == "bonds":
        c = _line(n)
    else:
        odd, even = _line((n + 1) // 2), _line(n // 2)
        c = [0] * (len(odd) + len(even) - 1)
        for i, x in enumerate(odd):
            for j, y in enumerate(even):
                c[i + j] += x * y
    terms = [factorial(n - e) * ce for e, ce in enumerate(c)]
    row = {}
    for k in range(len(terms)):
        count = sum((-1) ** (e - k) * comb(e, k) * terms[e]
                    for e in range(k, len(terms)))
        if count:
            row[k] = count
    return row


# A layer maps position keys to tables that map waiting keys to counts.
# Position keys pack the used-value mask (bit v for value v) in the low
# n + 1 bits, then the last entry b and the one before it, a, in 4 bits
# each (4 bits hold values up to 15). Waiting keys pack the values flagged
# vertical, waiting for horizontal, in the low n + 1 bits and the values
# flagged horizontal, waiting for vertical, above them. The entry before
# the last only decides whether the last is vertical, which needs the
# next entry to be a value neighbour of it; once both value neighbours
# are used it is stored as 0, which merges positions. The complement of
# a key reverses its value sets over 1..n and maps b -> n + 1 - b and
# a -> n + 1 - a, keeping a = 0 and b = 0. Position 0 is the empty
# prefix: no value used and no entries. The positions that share the
# used values and b, and differ only in a, form a group: they reach the
# same successors, and only b's vertical flag tells them apart.


def _flag_shifts(width, kind) -> tuple[int, int]:
    """The (first, second) flag shifts of `_flag_pass` that count
    `kind` in slots of ``width`` bits: `any` counts a value's first
    flag, `both` its second."""
    return (width, 0) if kind == "any" else (0, width)


def _flag_pass(n, first, second) -> int:
    """Counts over S_n, packed in slots of a width w no count can fill,
    after every window is checked. Each value's first flag (vertical or
    horizontal) shifts its permutation's count ``first`` bits and its
    second flag ``second`` bits (`_flag_shifts` gives them for `any` and
    `both`). From the empty prefix, each step groups the positions of the
    layer that share the used values and b, folds each group and its
    complement group into one (member a into member n + 1 - a, every
    waiting set complemented), and places one more entry after each
    group: the group's tables are projected together once, each next
    entry c adds that one table to its successor, and only the tables
    whose a is c - 1 or c + 1, which flag b vertical, are walked again
    to move their counts. The counts are the sum of the last layer."""
    hmask = _check_windows(n)
    size = n + 1
    full = (1 << size) - 2
    vals = range(1, size)
    # bit mask of the value neighbours v - 1 and v + 1 in 1..n of each v
    near = [0] + [(1 << v - 1 | 1 << v + 1) & full for v in vals]
    # the unused values of each used mask, which never holds bit 0, at
    # index used >> 1
    free = [[c for c in vals if not used >> c & 1] for used in range(0, 1 << size, 2)]
    # each value set reversed over 1..n, and each entry complemented
    rev = [0] * (1 << size)
    for mask in range(2, 1 << size, 2):
        low = mask & -mask
        rev[mask] = rev[mask ^ low] | (1 << size) // low
    mirror = [0, *range(n, 0, -1)]  # 0 stands for "no entry"
    group_of = (1 << size + 4) - 1  # the used values and b of a position
    layer = {0: {0: 1}}  # the empty prefix: no value used, no entries
    for _ in range(n):
        # the tables of each group, by the entry before the last, a
        groups = {}
        for pos, table in layer.items():
            groups.setdefault(pos & group_of, {})[pos >> size + 4] = table
        for key in list(groups):
            members = groups.get(key)
            twin = rev[key & full] | mirror[key >> size] << size
            other = groups.get(twin)
            if members is None or other is None or twin == key:
                continue  # folded, or expanded in its own orientation
            # the group with fewer waiting keys is complemented, member a
            # into member n + 1 - a, into the other
            if sum(map(len, members.values())) < sum(map(len, other.values())):
                members, other, twin = other, members, key
            del groups[twin]
            for a, table in other.items():
                dest = members.setdefault(mirror[a], {})
                for w, poly in table.items():
                    w = rev[w & full] | rev[w >> size] << size
                    dest[w] = dest.get(w, 0) + poly
        layer = {}
        while groups:
            key, members = groups.popitem()
            used = key & full
            b = key >> size
            hrow = hmask[b]  # the horizontal masks of (b, c)
            # A flag waits only while the values it needs are unused now
            # (c, the new last entry, among them): `wmask` keeps those of
            # a waiting key, the same for every c.
            avail = full ^ used
            wmask = avail << 1 & avail >> 1 | avail << size
            lowb = 1 << b & wmask  # b flagged vertical, if it can wait
            # b is kept as the entry before the last while a value
            # neighbour of it other than c is unused.
            waiting = near[b] & ~used
            keep = b << size + 4 if waiting else 0
            lone = waiting.bit_length() - 1 if waiting & waiting - 1 == 0 else 0
            # The group's tables are projected together, keeping the bits
            # of b - 1 and b + 1, which c = b - 2 or b + 2 flags horizontal
            # (`quiet` drops those too), and those whose a flags b vertical
            # are listed by that c: a - 1 and a + 1, by the checked rule.
            xmask = wmask | near[b]
            merged, quiet, vertical = {}, {}, {}
            for a, table in members.items():
                if a:
                    vertical.setdefault(a - 1, []).append(table)
                    vertical.setdefault(a + 1, []).append(table)
                for w, poly in table.items():
                    w &= xmask
                    merged[w] = merged.get(w, 0) + poly
            for w, poly in merged.items():
                w &= wmask
                quiet[w] = quiet.get(w, 0) + poly
            for c in free[used >> 1]:
                p2 = used | 1 << c | c << size | (0 if c == lone else keep)
                dest = layer.get(p2)
                # The merged table goes in as if no a flagged b vertical.
                # A midpoint of (b, c) flagged horizontal sits between two
                # values that are used once c is, so its bit waiting for a
                # horizontal flag goes with `wmask`.
                hb = hrow[c]  # the bit of the midpoint
                if not hb:  # c flags nothing: add the projected table
                    if dest is None:
                        dest = layer[p2] = quiet.copy()
                    else:
                        for w, poly in quiet.items():
                            dest[w] = dest.get(w, 0) + poly
                else:
                    if dest is None:
                        dest = layer[p2] = {}
                    for w, poly in merged.items():
                        if w & hb:
                            inc = second
                        else:
                            w |= hb << size
                            inc = first
                        w &= wmask
                        dest[w] = dest.get(w, 0) + (poly << inc)
                # Then each table whose a flags b vertical moves its counts
                # to b's flagged key: where b waits for a vertical flag, the
                # key stays and the counts gain a second flag; elsewhere
                # they gain a first and b may wait for a horizontal one.
                for table in vertical.get(c, ()):
                    for w, poly in table.items():
                        if hb:
                            if w & hb:
                                poly <<= second
                            else:
                                w |= hb << size
                                poly <<= first
                        if w >> size + b & 1:
                            moved, inc = 0, second
                        else:
                            moved, inc = lowb, first
                        w &= wmask
                        if moved:
                            left = dest[w] - poly
                            if left:
                                dest[w] = left
                            else:  # no count is left at this key
                                del dest[w]
                            dest[w | moved] = dest.get(w | moved, 0) + (poly << inc)
                        elif inc:
                            dest[w] += (poly << inc) - poly
    return sum(sum(table.values()) for table in layer.values())
