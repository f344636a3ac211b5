"""Exhaustive desk-scale oracles over S_n and the exact expectation
formulas.

The sweep is the brute-force side of a dual-route design: it
recounts, permutation by permutation, what the series module claims in
closed form. `sweep` tallies S_n in this process, as a reference for
the tests; :mod:`sepstat.verify` deals the same per-part tally over a
process pool and checks the expectation formulas against its literal
averages. This module imports neither of the other routes,
:mod:`sepstat.series` and the counting pass :mod:`sepstat.transfer`:
`expect`, `dist` and the count behind `maxsep --verify` read the
latter directly (``tests/test_route_graph.py`` pins every module's
imports). Counts are exact integers and expectations exact
rationals, so agreement is equality, never tolerance.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator

from . import config
from .perms import Permutation, inflate
from .separators import (
    EXPECTATION_KINDS,
    KINDS,
    VerificationError,
    has_knight_pair,
    separator_count,
    separator_masks,
)

_MAX_SEP_BLOCKS = (Permutation((3, 1, 4, 2)), Permutation((2, 4, 1, 3)))


# ---------------------------------------------------------------------------
# Enumeration and the sweep: S_n split into parts by its first two
# entries, one pass per permutation over raw words


def _part_words(n: int, part: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The words of S_n in part ``part`` of ``parts``, in lexicographic
    order.

    The prefixes of S_n, its first min(n, 2) entries, are taken in
    lexicographic order and dealt round-robin: the part holds the words
    whose prefix lies in ``prefixes[part::parts]``. S_7's 42 prefixes
    split 21 : 21 between two parts, where its 7 first entries would
    split 4 : 3. S_0's empty word and S_1's one word go to part 0.
    """
    values = range(1, n + 1)
    for prefix in list(itertools.permutations(values, min(n, 2)))[part::parts]:
        rest = [v for v in values if v not in prefix]
        yield from map(prefix.__add__, itertools.permutations(rest))


def _sweep_part(
    n: int, part: int, parts: int, masks: Iterable[tuple] | None = None
) -> dict[str, Counter]:
    """Tally all five statistics over part ``part`` of ``parts`` of S_n
    (see `_part_words`).

    Each word is put to ``separator_masks`` and to the knight-move test,
    the separately written oracle for having no separator, and the words
    are counted by the pair of answers: S_8's 40,320 words give 4,302
    distinct pairs. ``masks``, when given, holds the ``separator_masks``
    of the part's words in their order, read by a caller that scanned
    them already (the `verify` walk); the sweep then scans no word
    itself. A pair whose masks find no separator where the knight scan
    finds a knight's move, or the other way round, would mean a bug in
    one of the two definitions: the part is then scanned again for the
    first word giving such a pair, which raises ``VerificationError``.
    Otherwise the five statistics are read once per distinct masks
    triple.
    """
    words = _part_words(n, part, parts)
    if masks is None:
        words, again = itertools.tee(words)
        masks = map(separator_masks, again)
    pairs = Counter(zip(masks, map(has_knight_pair, words)))
    by_masks: Counter = Counter()
    for (key, knight), count in pairs.items():
        if (key[0] | key[1] == 0) == knight:
            _first_disagreement(n, part, parts)
        by_masks[key] += count
    tallies: dict[str, Counter] = {kind: Counter() for kind in KINDS}
    t_v, t_h, t_b, t_a, t_bonds = (
        tallies["vertical"],
        tallies["horizontal"],
        tallies["both"],
        tallies["any"],
        tallies["bonds"],
    )
    for (vm, hm, b), count in by_masks.items():
        t_bonds[b] += count
        t_v[vm.bit_count()] += count
        t_h[hm.bit_count()] += count
        t_b[(vm & hm).bit_count()] += count
        t_a[(vm | hm).bit_count()] += count
    return tallies


def _first_disagreement(n: int, part: int, parts: int) -> None:
    """Raise ``VerificationError`` on the first word of the part on which
    the separator-free oracles disagree (or, should a second scan find
    none, on the part)."""
    for word in _part_words(n, part, parts):
        vm, hm, _ = separator_masks(word)
        by_sets = vm | hm == 0
        if by_sets == has_knight_pair(word):
            raise VerificationError(
                f"separator-free oracles disagree on {Permutation(word)}: "
                f"sets say {by_sets}, knight scan says {not by_sets}",
                word,
            )
    raise VerificationError(
        f"separator-free oracles disagree on S_{n}, but not on a second scan"
    )


def sweep(n: int) -> dict[str, Counter]:
    """Exhaustive tallies of all five statistics over S_n, in this
    process: the per-part tally of `verify` over the whole of S_n."""
    config.check_n(n, config.MAX_SWEEP_N, "enumeration")
    return _sweep_part(n, 0, 1)


# ---------------------------------------------------------------------------
# Permutations in which every digit separates


def max_separator_perms(k: int) -> list[Permutation]:
    """All permutations of S_{4k} in which every digit is a separator:
    inflations of each pattern of S_k by length-4 blocks drawn from the
    two king patterns of S_4. The list has 2^k * k! entries.

    >>> [str(p) for p in max_separator_perms(1)]
    ['[3142]', '[2413]']
    """
    if isinstance(k, int) and not isinstance(k, bool) and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    config.check_n(k, name="k")  # a bool or any other non-int
    out: list[Permutation] = []
    for pattern_word in itertools.permutations(range(1, k + 1)):
        pattern = Permutation(pattern_word)
        for blocks in itertools.product(_MAX_SEP_BLOCKS, repeat=k):
            q = inflate(pattern, blocks)
            if separator_count(q) != q.n:  # structural guarantee; cheap to keep
                raise VerificationError(
                    f"constructed {q} has a non-separating digit"
                )
            out.append(q)
    return out


def is_all_separating_set(
    perms: list[Permutation], n: int, any_counts: dict[int, int]
) -> bool:
    """True iff ``perms`` are exactly the permutations of S_n in which
    every digit separates, given an exact ``any`` distribution of S_n
    (the flag pass of :mod:`sepstat.transfer` or a sweep): each one is
    such a permutation, and there are as many distinct ones as that
    distribution counts, so the subset is the whole set.
    """
    return all(separator_count(p) == n for p in perms) and (
        len({p.entries for p in perms}) == len(perms) == any_counts.get(n, 0)
    )


# ---------------------------------------------------------------------------
# Expectations


def expectation_formula(n: int, kind: str) -> Fraction:
    """Closed-form expectation of a separator statistic over S_n.

    vertical: 2(n-2)/n; both types at once: 4(n-3)^2/(n(n-1)(n-2));
    any type: 4(n^3-6n^2+14n-13)/(n(n-1)(n-2)). For n < 3 there are no
    separators at all and the value is 0 by convention; n < 0 is an
    error.
    """
    if kind not in EXPECTATION_KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {EXPECTATION_KINDS}")
    config.check_n(n)
    if n < 3:
        return Fraction(0)
    if kind == "vertical":
        return Fraction(2 * (n - 2), n)
    if kind == "both":
        return Fraction(4 * (n - 3) ** 2, n * (n - 1) * (n - 2))
    return Fraction(4 * (n**3 - 6 * n**2 + 14 * n - 13), n * (n - 1) * (n - 2))


def _mean(n: int, counts: dict[int, int]) -> Fraction:
    """The mean of a distribution over S_n, given as {value: count}."""
    return Fraction(sum(m * c for m, c in counts.items()), factorial(n))


def expectation_convergence_ok(n: int) -> bool:
    """Formula-level sanity for the limiting values 2 and 4: the
    vertical expectation misses 2 by exactly 4/n, and the total stays
    within 32/n of 4."""
    if n < 3:
        raise ValueError("convergence bounds apply for n >= 3")
    ev = expectation_formula(n, "vertical")
    ez = expectation_formula(n, "any")
    return abs(ev - 2) <= Fraction(4, n) and abs(ez - 4) < Fraction(32, n)
