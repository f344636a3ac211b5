"""Separator detection and the marked machinery.

A digit of a permutation is a *separator* when deleting it (and
standardizing) creates a 2-block that was not there before. Read
literally: the child has more bonds than survive from the permutation.
The bonds not touching the digit survive, and so does the join through
a run interior: deleting a digit both of whose adjacencies are bonds
(the 2 of 123) joins its neighbours into a bond that continues their
run, not a new block. The tests check this reading against every digit
of S_<=7. A separator arises in exactly two ways:

* vertical: the digit's positional neighbours hold values differing
  by 1 (deleting the middle brings them together);
* horizontal: for a digit a, the values a-1 and a+1 sit in adjacent
  positions (deleting a closes the value gap between them).

Both are computed in one place, :func:`separator_masks`.

The marked side of this module encodes permutations with marked bonds
as arrowed compositions, and realizes the correspondence between
marked bonds of the odd/even halves and marked vertical separators of
their comb interleaving.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Collection, NamedTuple, Sequence

from .perms import (
    ARROW,
    Direction,
    Permutation,
    Record,
    _block_bases,
    bonds,
    comb,
    comb_split,
    split_runs,
    standardize,
)

# ---------------------------------------------------------------------------
# Separator sets

# The five statistics of a permutation read off separator_masks: the
# numbers of vertical, horizontal, both-type and any-type separators,
# and the number of bonds.
KINDS = ("vertical", "horizontal", "both", "any", "bonds")
# The statistics with a closed-form expectation (`expect --kind`).
EXPECTATION_KINDS = ("vertical", "both", "any")


class VerificationError(RuntimeError):
    """Two routes that must agree did not: a bug in one of them.
    ``word`` is the permutation word they disagree on, when there is one."""

    def __init__(self, message: str, word: tuple[int, ...] | None = None) -> None:
        super().__init__(message)
        self.word = word


def separator_masks(word: Sequence[int]) -> tuple[int, int, int]:
    """(vertical, horizontal, bonds) of a word: bit v of the first two
    masks is set when digit v is a separator of that type, and bonds
    counts the adjacent pairs that differ by 1.

    All three are read off windows of at most three adjacent entries:
    the middle entry is vertical when the outer two differ by 1, value a
    is horizontal when some adjacent pair differs by 2 with midpoint a
    (that pair is {a-1, a+1}), and an adjacent pair differing by 1 is a
    bond.

    >>> vm, hm, b = separator_masks((3, 1, 5, 2, 4))
    >>> bin(vm), bin(hm), b
    ('0b100100', '0b1100', 0)
    """
    vmask = hmask = bonds = 0
    a = b = -2  # the two entries before c; -2 is never within 2 of a value
    for c in word:
        d = b - c
        if d == 2 or d == -2:
            hmask |= 1 << ((b + c) >> 1)
        elif d == 1 or d == -1:
            bonds += 1
        d = a - c
        if d == 1 or d == -1:
            vmask |= 1 << b
        a, b = b, c
    return vmask, hmask, bonds


def _values(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def position_mask(word: Sequence[int], mask: int) -> int:
    """The positions of the values set in ``mask``: bit i is set when
    bit word[i - 1] is (positions count from 1).

    >>> vm, hm, _ = separator_masks((3, 1, 5, 2, 4))
    >>> bin(vm), bin(position_mask((3, 1, 5, 2, 4), vm))
    ('0b100100', '0b11000')
    """
    return sum([1 << i for i, v in enumerate(word, 1) if mask >> v & 1])


def subsets(mask: int) -> list[frozenset[int]]:
    """Every subset of the bits set in ``mask``, doubling the list at
    each bit from the lowest: entry k holds the bits of ``mask`` picked
    by the set bits of k.

    >>> [sorted(s) for s in subsets(0b100110)]
    [[], [1], [2], [1, 2], [5], [1, 5], [2, 5], [1, 2, 5]]
    """
    out = [frozenset()]
    for bit in range(mask.bit_length()):
        if mask >> bit & 1:
            one = frozenset((bit,))
            out += [s | one for s in out]
    return out


class SeparatorReport(NamedTuple):
    """Separator sets of one permutation; ``both`` is the intersection
    and ``sep_count`` the size of the union."""

    vertical: frozenset[int]
    horizontal: frozenset[int]
    both: frozenset[int]
    sep_count: int


def separator_report(p: Permutation) -> SeparatorReport:
    """All four figures of both separator types from one mask scan: the
    vertical ones are the values p_i (2 <= i <= n-1) whose positional
    neighbours differ by 1, the horizontal ones the values a with a-1
    and a+1 in adjacent positions.

    >>> rep = separator_report(Permutation((1, 3, 2, 4, 6, 5, 8, 7, 9)))
    >>> sorted(rep.vertical), sorted(rep.horizontal)
    ([2, 3, 6, 7], [2, 3, 5, 8])
    """
    v, h, _ = separator_masks(p.entries)
    return SeparatorReport(
        vertical=_values(v),
        horizontal=_values(h),
        both=_values(v & h),
        sep_count=(v | h).bit_count(),
    )


def separator_count(p: Permutation) -> int:
    v, h, _ = separator_masks(p.entries)
    return (v | h).bit_count()


def has_knight_pair(word: Sequence[int]) -> bool:
    """True iff two entries of a one-line word sit a knight's move
    apart.

    Rook attacks are impossible in a permutation matrix, so this is
    the whole empress-attack test: offsets (1, 2) and (2, 1) in
    (position, value) distance. A permutation has no separator of
    either type iff its matrix carries n non-attacking empresses (rook
    + knight), that is iff this is False; it is written independently
    of :func:`separator_masks` so that each checks the other.
    """
    n = len(word)
    for i in range(n - 1):
        if abs(word[i] - word[i + 1]) == 2:
            return True
        if i + 2 < n and abs(word[i] - word[i + 2]) == 1:
            return True
    return False


# ---------------------------------------------------------------------------
# Marked words and arrowed compositions


class MarkedWord(Record):
    """A word of distinct positive integers with a chosen subset of its
    bonds marked; ``marked`` holds 1-indexed adjacent-pair indices.

    Construction stores the values as a tuple and the marks as a
    frozenset, so ``MarkedWord([2, 1])`` equals and hashes as
    ``MarkedWord((2, 1))``. Outside input is always checked.
    `enumerate_markings`, `decode_marked` and `split_marked` skip the
    check: their marks are bonds of words that are permutations, or
    halves of one, by construction.
    """

    __slots__ = ("values", "marked")

    def __init__(self, values: Sequence[int], marked: Collection[int] = ()) -> None:
        values, marked = tuple(values), frozenset(marked)
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"marked word values must be integers, got {v!r}")
        if len(set(values)) != len(values):
            raise ValueError("marked word values must be distinct")
        if values and min(values) < 1:
            raise ValueError("marked word values must be positive")
        legal = bonds(values)
        for i in marked:
            if not isinstance(i, int) or isinstance(i, bool):
                raise ValueError(f"marked index {i!r} is not an integer")
            if i not in legal:
                raise ValueError(f"marked index {i} is not a bond of the word")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "marked", marked)


class ArrowedComposition(Record):
    """A composition whose parts greater than 1 carry an up/down arrow.

    Parts are (size, direction) pairs; a part of size 1 has direction
    NONE and larger parts are UP or DOWN. Construction stores the parts
    as a tuple of pairs. Outside input is always checked;
    `encode_marked` skips the check, since `split_runs` gives a run
    direction NONE exactly when it has length 1.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[tuple[int, Direction]]) -> None:
        parts = tuple([(size, direction) for size, direction in parts])
        for size, direction in parts:
            if not isinstance(size, int) or isinstance(size, bool):
                raise ValueError(f"part size {size!r} is not an integer")
            if not isinstance(direction, Direction):
                raise ValueError(f"part direction {direction!r} is not a Direction")
            if size < 1:
                raise ValueError(f"composition part {size} must be >= 1")
            if (direction is Direction.NONE) != (size == 1):
                raise ValueError(
                    f"part of size {size} must carry an arrow iff size > 1"
                )
        object.__setattr__(self, "parts", parts)

    def compact(self) -> str:
        """Render as e.g. "1,2↑,1,1,3↓,1"."""
        return ",".join(f"{size}{ARROW[d]}" for size, d in self.parts)


class MarkedSepPermutation(Record):
    """A permutation with a chosen subset of its vertical-separator
    positions marked (rendered with hats in the worked examples).

    Construction stores the marked positions as a frozenset. Outside
    input is always checked. `comb_marked` skips the check: each marked
    bond of a half lands on a vertical separator, and `comb` checks the
    permutation itself. So does the `verify` walk, which marks subsets
    of the vertical separator positions it reads.
    """

    __slots__ = ("perm", "marked_sep_positions")

    def __init__(
        self, perm: Permutation, marked_sep_positions: Collection[int] = ()
    ) -> None:
        perm = perm if isinstance(perm, Permutation) else Permutation(perm)
        marked_sep_positions = frozenset(marked_sep_positions)
        legal = position_mask(perm.entries, separator_masks(perm.entries)[0])
        for i in marked_sep_positions:
            if not isinstance(i, int) or isinstance(i, bool):
                raise ValueError(f"marked separator position {i!r} is not an integer")
            if i < 0 or not legal >> i & 1:
                raise ValueError(
                    f"position {i} is not a vertical separator position"
                )
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "marked_sep_positions", marked_sep_positions)


# ---------------------------------------------------------------------------
# Encoding marked permutations as arrowed compositions


def encode_marked(mw: MarkedWord) -> tuple[ArrowedComposition, Permutation]:
    """Split a marked permutation into its maximal marked runs.

    Returns the arrowed composition of run lengths/directions together
    with the relative order of the runs (standardization of one
    representative per run; the first entry is used, and any choice
    gives the same answer because runs are value-contiguous).

    >>> comp, sigma = encode_marked(
    ...     MarkedWord((2, 4, 5, 6, 1, 9, 8, 7, 3), frozenset({2, 6, 7})))
    >>> comp.compact(), sigma
    ('1,2↑,1,1,3↓,1', Permutation([2, 4, 5, 1, 6, 3]))
    """
    e = Permutation(mw.values).entries  # must be a permutation of {1..n}
    runs = split_runs(e, mw.marked)
    # run[1:] is the (length, direction) pair as a plain tuple
    comp = ArrowedComposition._trusted(tuple([run[1:] for run in runs]))
    return comp, standardize([e[run[0] - 1] for run in runs])


def decode_marked(comp: ArrowedComposition, sigma: Permutation) -> MarkedWord:
    """Inverse of :func:`encode_marked`: inflate ``sigma`` by monotone
    runs described by ``comp`` and mark every intra-run adjacency.

    >>> d = Direction
    >>> comp = ArrowedComposition(
    ...     ((1, d.NONE), (3, d.DOWN), (1, d.NONE), (1, d.NONE), (2, d.UP)))
    >>> mw = decode_marked(comp, Permutation((3, 4, 2, 1, 5)))
    >>> mw.values, sorted(mw.marked)
    ((3, 6, 5, 4, 2, 1, 7, 8), [2, 3, 7])
    """
    if sigma.n != len(comp.parts):
        raise ValueError(
            f"permutation of {sigma.n} runs does not match "
            f"{len(comp.parts)} composition parts"
        )
    sizes = [size for size, _ in comp.parts]
    word: list[int] = []
    down = Direction.DOWN  # an Enum member lookup costs a call
    for base, (size, direction) in zip(_block_bases(sigma.entries, sizes), comp.parts):
        if direction is down:
            word += range(base + size, base, -1)
        else:
            word += range(base + 1, base + size + 1)
    # every adjacency is marked but the ends of the runs
    marked = frozenset(range(1, len(word))).difference(accumulate(sizes))
    return MarkedWord._trusted(tuple(word), marked)


def enumerate_markings(p: Permutation) -> list[MarkedWord]:
    """All 2^(number of bonds) markings of a permutation's bonds,
    in a deterministic order."""
    bond_mask = sum([1 << i for i in bonds(p)])
    return [MarkedWord._trusted(p.entries, s) for s in subsets(bond_mask)]


# ---------------------------------------------------------------------------
# Marked combs: bonds of the halves <-> vertical separators of the whole


def comb_marked(odd: MarkedWord, even: MarkedWord) -> MarkedSepPermutation:
    """Interleave marked halves; each marked bond of a half flags the
    entry of the other half sitting between its endpoints.

    >>> msp = comb_marked(MarkedWord((3, 6, 5, 4), frozenset({2, 3})),
    ...                   MarkedWord((2, 1, 7, 8), frozenset({3})))
    >>> msp.perm, sorted(msp.marked_sep_positions)
    (Permutation([3, 2, 6, 1, 5, 7, 4, 8]), [4, 6, 7])
    """
    p = comb(odd.values, even.values)
    marked = [2 * i for i in odd.marked] + [2 * i + 1 for i in even.marked]
    return MarkedSepPermutation._trusted(p, frozenset(marked))


def split_marked(msp: MarkedSepPermutation) -> tuple[MarkedWord, MarkedWord]:
    """Inverse of :func:`comb_marked`: split into halves and turn each
    marked separator back into the bond of the opposite-parity half.
    """
    odd_values, even_values = comb_split(msp.perm)
    marks = msp.marked_sep_positions
    return (
        MarkedWord._trusted(odd_values, frozenset([i // 2 for i in marks if i % 2 == 0])),
        MarkedWord._trusted(even_values, frozenset([i // 2 for i in marks if i % 2])),
    )
