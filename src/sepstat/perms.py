"""Permutations in one-line notation over {1..n} and the structural
operations the separator statistic is built on: bonds, maximal runs,
deletion with standardization, one-level containment children,
inflation, and the odd/even comb interleaving.

Positions and values are both 1-indexed throughout, matching the usual
one-line conventions: position i holds ``entries[i - 1]``. The empty
permutation (n = 0) is a valid value and acts as the counting unit.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, total_ordering
from itertools import accumulate
from operator import attrgetter
from typing import Collection, Iterator, NamedTuple, Sequence


class Direction(Enum):
    """Orientation of a run, or of an arrowed-composition part."""

    UP = "up"
    DOWN = "down"
    NONE = "none"  # iff the run/part has length 1

    def __repr__(self) -> str:
        return f"Direction.{self.name}"


ARROW = {Direction.UP: "↑", Direction.DOWN: "↓", Direction.NONE: ""}
# for the run loop: an Enum member lookup costs a call
_UP, _DOWN, _NONE = Direction.UP, Direction.DOWN, Direction.NONE


class Run(NamedTuple):
    """A segment of adjacent entries stepping by +1 or -1 (see
    :func:`split_runs`).

    ``start`` is the 1-indexed position of the first entry. A run of
    length 1 has direction NONE; longer runs are UP or DOWN (mixed
    steps are impossible since values are distinct).
    """

    start: int
    length: int
    direction: Direction


_new_tuple = tuple.__new__


class Record:
    """An immutable record: its class names the fields once in ``__slots__``
    (one or two of them), and a checking ``__init__`` sets each once
    through ``object.__setattr__``.
    ``cls._trusted(*fields)`` builds the record unchecked, setting each
    field through its slot descriptor."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__slots__  # the field tuple, or a lone field read from its slot
        cls._key = property(attrgetter(*names)) if names[1:] else getattr(cls, names[0])
        new = object.__new__
        set_first, *set_rest = [getattr(cls, name).__set__ for name in names]
        if set_rest:
            (set_second,) = set_rest

            def trusted(first, second):
                record = new(cls)
                set_first(record, first)
                set_second(record, second)
                return record

        else:

            def trusted(first):
                record = new(cls)
                set_first(record, first)
                return record

        cls._trusted = staticmethod(trusted)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # so that pickle and copy rebuild through __init__
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


@total_ordering
class Permutation(Record):
    """A permutation of {1..n}, stored as its one-line word.

    Construction validates the bijection invariant and stores the
    entries as a tuple; use :func:`parse_permutation` to read one from
    text. Outside input is always checked. `inverse`, `reverse`,
    `children`, `delete_and_standardize`, `standardize` (which checks
    distinctness itself) and `inflate` skip the check: their results are
    permutations because their inputs already passed it. `comb` keeps
    it, since its halves need not be complementary.

    >>> Permutation((5, 3, 2, 4, 1)).n
    5
    >>> Permutation((5, 3, 2, 4, 1)).entries[0]
    5
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[int]) -> None:
        if entries.__class__ is not tuple:
            # so that Permutation([3, 1, 2]), the form the repr prints,
            # hashes and equals Permutation((3, 1, 2))
            entries = tuple(entries)
        n = len(entries)
        seen = [False] * (n + 1)
        for v in entries:
            # the class test passes exactly the plain ints, the common case
            if v.__class__ is not int and (
                not isinstance(v, int) or isinstance(v, bool)
            ):
                raise ValueError(f"permutation entries must be integers, got {v!r}")
            if not 1 <= v <= n:
                raise ValueError(f"value {v} outside 1..{n}")
            if seen[v]:
                raise ValueError(f"duplicate value {v}")
            seen[v] = True
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.entries < other.entries
        return NotImplemented

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return format_permutation(self)

    def __repr__(self) -> str:
        return f"Permutation({list(self.entries)})"


def format_permutation(p: Permutation) -> str:
    """One-line rendering: compact digits for n <= 9, spaced otherwise."""
    if p.n <= 9:
        return "[" + "".join(str(v) for v in p.entries) + "]"
    return "[" + " ".join(str(v) for v in p.entries) + "]"


def parse_permutation(text: str) -> Permutation:
    """Parse a one-line word.

    Accepts compact digit strings ("53241", n <= 9 only), delimited
    forms ("5 3 2 4 1", "5,3,2,4,1", "5, 3, 2, 4, 1"), and JSON-ish
    bracketed arrays. The presence of a delimiter selects the delimited
    reading. A comma makes commas the only delimiter and each field is
    stripped, so an empty field ("3,,1,2", "[1,2,]") or a space inside
    one ("1 2,3") is refused. Each entry is ASCII digits 0-9 alone: no
    sign, underscore or other digits.

    >>> parse_permutation("53241").entries
    (5, 3, 2, 4, 1)
    >>> parse_permutation("10,2,3,4,5,6,7,8,9,1").n
    10
    """
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1].strip()
    if not s:
        return Permutation(())
    if "," in s:
        pieces = [piece.strip() for piece in s.split(",")]
    elif any(c in s for c in " \t"):
        pieces = s.split()
    else:
        pieces = list(s)
    if not all(piece.isascii() and piece.isdigit() for piece in pieces):
        raise ValueError(f"cannot parse permutation from {text!r}")
    return Permutation(tuple(int(piece) for piece in pieces))


def standardize(values: Sequence[int]) -> Permutation:
    """Relabel distinct values order-isomorphically onto {1..k}.

    >>> standardize((2, 4, 6, 1, 7, 3))
    Permutation([2, 4, 5, 1, 6, 3])
    """
    distinct = set(values)
    if len(distinct) != len(values):
        raise ValueError("standardization requires distinct values")
    rank = dict(zip(sorted(distinct), range(1, len(values) + 1)))
    return Permutation._trusted(tuple(map(rank.__getitem__, values)))


# ---------------------------------------------------------------------------
# Bonds and runs


def bonds(word: Permutation | Sequence[int]) -> frozenset[int]:
    """Positions i with |w_i - w_{i+1}| = 1, for a permutation or any
    word of distinct integers (a comb half keeps its own values).

    >>> sorted(bonds(Permutation((4, 5, 1, 8, 7, 6, 2, 3))))
    [1, 4, 5, 7]
    >>> sorted(bonds((2, 1, 6, 5, 9)))
    [1, 3]
    """
    return frozenset(_bond_positions(
        word.entries if isinstance(word, Permutation) else word))


def _bond_positions(e: Sequence[int]) -> Iterator[int]:
    """The bonds of the word ``e``, left to right, one at a time."""
    for i in range(1, len(e)):
        if abs(e[i - 1] - e[i]) == 1:
            yield i


def split_runs(word: Sequence[int], joined: Collection[int]) -> list[Run]:
    """Cut a word at every adjacency i (between positions i and i + 1)
    outside ``joined``, a subset of its bonds, into runs left to right.

    Consecutive bonds cannot change direction (a value would have to
    repeat), so each run is monotone and its first step gives its
    direction.

    >>> [(r.start, r.length, r.direction.value)
    ...  for r in split_runs((2, 3, 4, 1), {1})]
    [(1, 2, 'up'), (3, 1, 'none'), (4, 1, 'none')]
    """
    runs: list[Run] = []
    start = 0  # 0-indexed first entry of the current run
    for i in range(1, len(word) + 1):  # i = len(word) closes the last run
        if i in joined:
            continue
        if i - start == 1:
            direction = _NONE
        elif word[start + 1] > word[start]:
            direction = _UP
        else:
            direction = _DOWN
        # tuple.__new__ is what Run(...) calls, without its Python frame
        runs.append(_new_tuple(Run, (start + 1, i - start, direction)))
        start = i
    return runs


def maximal_runs(p: Permutation) -> list[Run]:
    """Partition positions 1..n into maximal runs, left to right."""
    return split_runs(p.entries, bonds(p))


def is_king(word: Permutation | Sequence[int]) -> bool:
    """True iff the permutation, or any word of distinct integers (such
    as a child word of `_child_words`), has no bonds (non-attacking
    kings); it stops at the first bond.

    >>> is_king(Permutation((2, 4, 1, 3))), is_king((3, 1, 2))
    (True, False)
    """
    return next(_bond_positions(
        word.entries if isinstance(word, Permutation) else word), 0) == 0


# ---------------------------------------------------------------------------
# Symmetries


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation q, with q[p_i] = i.

    >>> inverse(Permutation((3, 1, 4, 2)))
    Permutation([2, 4, 1, 3])
    """
    out = [0] * p.n
    for i, v in enumerate(p.entries, start=1):
        out[v - 1] = i
    return Permutation._trusted(tuple(out))


def reverse(p: Permutation) -> Permutation:
    return Permutation._trusted(p.entries[::-1])


# ---------------------------------------------------------------------------
# Deletion and containment children


def delete_and_standardize(p: Permutation, pos: int) -> Permutation:
    """Remove the entry at ``pos`` and close the value gap.

    >>> delete_and_standardize(Permutation((5, 3, 2, 4, 1)), 1)
    Permutation([3, 2, 4, 1])
    """
    if p.n < 1:
        raise ValueError("cannot delete from the empty permutation")
    if not 1 <= pos <= p.n:
        raise IndexError(f"position {pos} outside 1..{p.n}")
    return Permutation._trusted(_delete(p.entries, pos))


def _delete(e: tuple[int, ...], pos: int) -> tuple[int, ...]:
    """The word ``e`` without its entry at 1-indexed ``pos``, standardized:
    the one deletion behind `delete_and_standardize` and, past 255
    entries, `_child_words`."""
    removed = e[pos - 1]
    return tuple([v - 1 if v > removed else v for v in e if v != removed])


@cache
def _drop_tables() -> tuple[bytes, ...]:
    """The `bytes.translate` tables of `_child_words`: table v keeps each
    byte up to v and lowers each byte above it by one. Built on the
    first call, not at import."""
    identity = bytes(range(256))
    return tuple([identity[: v + 1] + identity[v:255] for v in range(256)])


def _child_words(e: tuple[int, ...]) -> set[bytes] | set[tuple[int, ...]]:
    """The distinct words one level down from the word ``e``: all of its
    deletions, standardized, with each repeat made once.

    When every entry fits in a byte (n <= 255), the word is a ``bytes``,
    and one ``bytes.translate`` call drops entry v and lowers the
    entries above it, so the children are ``bytes``; longer words go
    through `_delete`, and their children are tuples. Either way a
    child reads as the sequence of its entries.

    >>> sorted(map(tuple, _child_words((2, 1, 3))))
    [(1, 2), (2, 1)]
    """
    if len(e) > 255:
        return {_delete(e, i) for i in range(1, len(e) + 1)}
    b, drop = bytes(e), _drop_tables()
    # b[i : i + 1] is the byte of entry v, which translate deletes
    return {b.translate(drop[v], b[i : i + 1]) for i, v in enumerate(b)}


def children(p: Permutation) -> frozenset[Permutation]:
    """The distinct permutations one level down in the containment
    order; there are exactly n - (number of bonds) of them, since
    deleting either end of a bond yields the same child.

    The deletions are made on the word by `_child_words`, and one
    `Permutation` is built for each distinct word among them.

    >>> sorted(str(c) for c in children(Permutation((5, 3, 2, 4, 1))))
    ['[3241]', '[4213]', '[4231]', '[4321]']
    """
    e = p.entries
    if not e:
        raise ValueError("the empty permutation has no children")
    # tuple() makes each bytes child a tuple and returns a tuple child itself
    return frozenset(map(Permutation._trusted, map(tuple, _child_words(e))))


# ---------------------------------------------------------------------------
# Inflation and the comb interleaving


def inflate(pattern: Permutation, blocks: Sequence[Permutation]) -> Permutation:
    """Replace the i-th entry of ``pattern`` by a contiguous block
    order-isomorphic to ``blocks[i-1]``; block value ranges stack in
    the order of the pattern's values.

    >>> inflate(Permutation((2, 4, 1, 3)),
    ...         [Permutation(t) for t in [(2, 1, 3), (2, 1), (1, 3, 2), (1,)]])
    Permutation([5, 4, 6, 9, 8, 1, 3, 2, 7])
    """
    k = pattern.n
    if k == 0 or len(blocks) == 0:
        raise ValueError("inflation requires a nonempty pattern and block list")
    if len(blocks) != k:
        raise ValueError(f"pattern has {k} entries but {len(blocks)} blocks given")
    words = [b.entries for b in blocks]
    if () in words:
        raise ValueError("inflation blocks must be nonempty")
    out: list[int] = []
    for base, w in zip(_block_bases(pattern.entries, list(map(len, words))), words):
        out += map(base.__add__, w)
    return Permutation._trusted(tuple(out))


def _block_bases(pattern: tuple[int, ...], sizes: Sequence[int]) -> list[int]:
    """The value offset of each block of an inflation of ``pattern``
    by blocks of these sizes: the block in slot i takes the
    pattern[i]-th lowest value interval, so its offset is the total
    size of the blocks of lower rank."""
    size_by_rank = [0] * len(sizes)
    for r, size in zip(pattern, sizes):
        size_by_rank[r - 1] = size
    base_by_rank = [0, *accumulate(size_by_rank)]  # index r - 1 for rank r
    return [base_by_rank[r - 1] for r in pattern]


def comb(odd: Sequence[int], even: Sequence[int]) -> Permutation:
    """Interleave two words into odd and even positions.

    The halves must satisfy |odd| = |even| or |odd| = |even| + 1 and
    jointly use each value of {1..n} exactly once.

    >>> comb((3, 6, 5, 4), (2, 1, 7, 8))
    Permutation([3, 2, 6, 1, 5, 7, 4, 8])
    """
    if len(odd) not in (len(even), len(even) + 1):
        raise ValueError(
            f"comb halves of sizes {len(odd)} and {len(even)} do not interleave"
        )
    out = [0] * (len(odd) + len(even))
    out[0::2] = odd
    out[1::2] = even
    return Permutation(tuple(out))


def comb_split(p: Permutation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The odd-position and even-position subwords.

    >>> comb_split(Permutation((2, 7, 1, 8, 6, 3, 5, 4, 9)))
    ((2, 1, 6, 5, 9), (7, 8, 3, 4))
    """
    return p.entries[0::2], p.entries[1::2]
