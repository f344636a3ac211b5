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
    _DOWN,
    _block_bases,
    _bond_positions,
    _cut_runs,
    _ranks,
    bonds,
    comb,
    comb_split,
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


def separator_masks(
    word: Sequence[int],
    vmask: int = 0,
    hmask: int = 0,
    bonds: int = 0,
    a: int = -2,
    b: int = -2,
) -> tuple[int, int, int]:
    """(vertical, horizontal, bonds) of a word: bit v of the first two
    masks is set when digit v is a separator of that type, and bonds
    counts the adjacent pairs that differ by 1.

    All three are read off windows of at most three adjacent entries:
    the middle entry is vertical when the outer two differ by 1, value a
    is horizontal when some adjacent pair differs by 2 with midpoint a
    (that pair is {a-1, a+1}), and an adjacent pair differing by 1 is a
    bond. The scan goes left to right, carrying the three counts and
    the two entries ``a``, ``b`` before each entry; -2, never within 2
    of a value, stands for "no entry".

    The scan resumes where a prefix p left off: given p's masks and its
    last two entries (-2 for each that p lacks), it reads the rest t of
    the word p + t with the same steps as a scan from the start, so
    ``separator_masks(t, *separator_masks(p), a, b)`` is
    ``separator_masks(p + t)``.

    >>> vm, hm, b = separator_masks((3, 1, 5, 2, 4))
    >>> bin(vm), bin(hm), b
    ('0b100100', '0b1100', 0)
    >>> separator_masks((2, 4), *separator_masks((3, 1, 5)), 1, 5)
    (36, 12, 0)
    """
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

    Only the set bits of ``mask`` are visited, each value found with
    ``word.index``. Callers only pass masks read off that word, so a
    bit that is no value of the word raises ``ValueError``.

    >>> vm, hm, _ = separator_masks((3, 1, 5, 2, 4))
    >>> bin(vm), bin(position_mask((3, 1, 5, 2, 4), vm))
    ('0b100100', '0b11000')
    >>> position_mask((2, 1), 0b1000)
    Traceback (most recent call last):
    ValueError: tuple.index(x): x not in tuple
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= 2 << word.index(low.bit_length() - 1)
        mask ^= low
    return out


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


def has_knight_pair(word: Sequence[int], a: int = -2, b: int = -2) -> bool:
    """True iff two entries of a one-line word sit a knight's move
    apart.

    Rook attacks are impossible in a permutation matrix, so this is
    the whole empress-attack test: offsets (1, 2) and (2, 1) in
    (position, value) distance. A permutation has no separator of
    either type iff its matrix carries n non-attacking empresses (rook
    + knight), that is iff this is False; it is written independently
    of :func:`separator_masks` so that each checks the other.

    The scan goes left to right, carrying the two entries ``a``, ``b``
    before each entry c (-2 for "no entry"), and stops at the first c
    with |b - c| = 2 or |a - c| = 1. Given the last two entries of a
    prefix p, it reads the rest t of p + t with the same steps, so
    ``has_knight_pair(p + t)`` is ``has_knight_pair(p) or
    has_knight_pair(t, a, b)``.

    >>> has_knight_pair((3, 1, 4, 2)), has_knight_pair((1, 2, 3))
    (True, False)
    >>> has_knight_pair((4,), 1, 2), has_knight_pair((4,), 2, 1)
    (True, False)
    """
    for c in word:
        if abs(b - c) == 2 or abs(a - c) == 1:
            return True
        a, b = b, c
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
    halves of one, by construction. The `verify` walk builds none: it
    checks the word kernels behind them.
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
    `encode_marked` skips the check, since `perms._cut_runs` gives a
    run direction NONE exactly when it has length 1.
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
    permutation itself. The `verify` walk builds none: it checks the
    mark kernels `_split_marks` and `_comb_marks` on subsets of the
    vertical separator positions it reads.
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
    gives the same answer because runs are value-contiguous): the two
    words of `_encode_word`, once ``mw.values`` has passed the
    `Permutation` check, as records built unchecked.

    >>> comp, sigma = encode_marked(
    ...     MarkedWord((2, 4, 5, 6, 1, 9, 8, 7, 3), frozenset({2, 6, 7})))
    >>> comp.compact(), sigma
    ('1,2↑,1,1,3↓,1', Permutation([2, 4, 5, 1, 6, 3]))
    """
    parts, sigma = _encode_word(Permutation(mw.values).entries, mw.marked)
    return ArrowedComposition._trusted(parts), Permutation._trusted(sigma)


def _encode_word(
    word: tuple[int, ...], marks: Collection[int]
) -> tuple[tuple[tuple[int, Direction], ...], tuple[int, ...]]:
    """`encode_marked` on a permutation word and its marked bonds: the
    (size, direction) part of each run of `perms._cut_runs`, cut at
    every unmarked adjacency, and the ranks of the runs' first entries.

    >>> _encode_word((2, 3, 1), frozenset({1}))
    (((2, Direction.UP), (1, Direction.NONE)), (2, 1))
    """
    parts, starts = _cut_runs(word, marks)
    return tuple(parts), _ranks(list(map(word.__getitem__, starts)))


def decode_marked(comp: ArrowedComposition, sigma: Permutation) -> MarkedWord:
    """Inverse of :func:`encode_marked`: inflate ``sigma`` by monotone
    runs described by ``comp`` and mark every intra-run adjacency. Once
    the sizes match, this is `_decode_word`, as a record built
    unchecked.

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
    return MarkedWord._trusted(*_decode_word(comp.parts, sigma.entries))


def _decode_word(
    parts: Sequence[tuple[int, Direction]], sigma_word: tuple[int, ...]
) -> tuple[tuple[int, ...], frozenset[int]]:
    """`decode_marked` on words: the runs of ``parts`` placed by the
    block offsets of `perms._block_bases`, and the marks between the
    entries of each run.

    >>> _decode_word(((2, Direction.UP), (1, Direction.NONE)), (2, 1))
    ((2, 3, 1), frozenset({1}))
    """
    sizes = [size for size, _ in parts]
    word: list[int] = []
    for base, (size, direction) in zip(_block_bases(sigma_word, sizes), parts):
        if direction is _DOWN:
            word += range(base + size, base, -1)
        else:
            word += range(base + 1, base + size + 1)
    # every adjacency is marked but the ends of the runs
    return tuple(word), frozenset(range(1, len(word))).difference(accumulate(sizes))


def _bond_mask(word: Sequence[int]) -> int:
    """The bonds of a word as a mask: bit i is set when bond i is."""
    return sum([1 << i for i in _bond_positions(word)])


def enumerate_markings(p: Permutation) -> list[MarkedWord]:
    """All 2^(number of bonds) markings of a permutation's bonds,
    in a deterministic order."""
    return [MarkedWord._trusted(p.entries, s) for s in subsets(_bond_mask(p.entries))]


# ---------------------------------------------------------------------------
# Marked combs: bonds of the halves <-> vertical separators of the whole


def comb_marked(odd: MarkedWord, even: MarkedWord) -> MarkedSepPermutation:
    """Interleave marked halves; each marked bond of a half flags the
    entry of the other half sitting between its endpoints. The word is
    `comb`'s, checked, and the marks `_comb_marks`'s.

    >>> msp = comb_marked(MarkedWord((3, 6, 5, 4), frozenset({2, 3})),
    ...                   MarkedWord((2, 1, 7, 8), frozenset({3})))
    >>> msp.perm, sorted(msp.marked_sep_positions)
    (Permutation([3, 2, 6, 1, 5, 7, 4, 8]), [4, 6, 7])
    """
    p = comb(odd.values, even.values)
    return MarkedSepPermutation._trusted(p, _comb_marks(odd.marked, even.marked))


def _comb_marks(
    odd_marks: Collection[int], even_marks: Collection[int]
) -> frozenset[int]:
    """The marked separator positions of a comb: bond i of the odd half
    flags position 2i, and bond i of the even half position 2i + 1.

    >>> sorted(_comb_marks({2, 3}, {3}))
    [4, 6, 7]
    """
    return frozenset([2 * i for i in odd_marks] + [2 * i + 1 for i in even_marks])


def split_marked(msp: MarkedSepPermutation) -> tuple[MarkedWord, MarkedWord]:
    """Inverse of :func:`comb_marked`: split into halves and turn each
    marked separator back into the bond of the opposite-parity half.
    The halves are the slices of `comb_split` and the marks
    `_split_marks`'s, as records built unchecked.
    """
    odd_values, even_values = comb_split(msp.perm)
    odd_marks, even_marks = _split_marks(msp.marked_sep_positions)
    return (
        MarkedWord._trusted(odd_values, odd_marks),
        MarkedWord._trusted(even_values, even_marks),
    )


def _split_marks(marks: Collection[int]) -> tuple[frozenset[int], frozenset[int]]:
    """The inverse of `_comb_marks`: the marked bonds of the odd half
    and of the even half.

    >>> [sorted(half) for half in _split_marks({4, 6, 7})]
    [[2, 3], [3]]
    """
    return (
        frozenset([i // 2 for i in marks if i % 2 == 0]),
        frozenset([i // 2 for i in marks if i % 2]),
    )
