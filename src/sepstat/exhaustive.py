"""Exhaustive desk-scale oracles over S_n and the exact expectation
formulas.

The sweep is the brute-force side of a dual-route design: it
recounts, permutation by permutation, what the series module claims in
closed form, and `verify` checks the expectation formulas against its
literal averages, dealing S_n over one process pool. The pool is
imported with the first pooled suite, so that the commands that never
deal S_n start without it. `sweep` is the same tally in this process,
as a reference for the tests. This module
imports nothing from the counting route, :mod:`sepstat.transfer`:
`expect`, `dist` and the count behind `maxsep --verify` read that
module directly (``tests/test_route_graph.py`` pins every module's
imports). Counts are exact integers and expectations exact
rationals, so agreement is equality, never tolerance.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator

from . import config
from .perms import (
    Permutation,
    children,
    inflate,
    inverse,
    is_king,
    reverse,
)
from .separators import (
    KINDS,
    MarkedSepPermutation,
    VerificationError,
    comb_marked,
    decode_marked,
    encode_marked,
    enumerate_markings,
    has_knight_pair,
    position_mask,
    separator_count,
    separator_masks,
    split_marked,
    subsets,
)
from .series import bond_gf, coeff, vertical_sep_gf

EXPECTATION_KINDS = ("vertical", "both", "any")

_MAX_SEP_BLOCKS = (Permutation((3, 1, 4, 2)), Permutation((2, 4, 1, 3)))

# concurrent.futures.ProcessPoolExecutor, bound by `_deal` on its first
# pool (a test may bind a subclass first)
ProcessPoolExecutor = None


def _check_cap(n: int) -> None:
    cap = config.enumeration_cap()
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the enumeration cap {cap} "
            f"(set {config.ENV_MAX_N} to raise it)"
        )


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
        for tail in itertools.permutations(rest):
            yield prefix + tail


def _sweep_part(n: int, part: int, parts: int) -> dict[str, Counter]:
    """Tally all five statistics over part ``part`` of ``parts`` of S_n
    (see `_part_words`).

    Each word is put to ``separator_masks`` and to the knight-move test,
    the separately written oracle for having no separator, and the words
    are counted by the pair of answers: S_8's 40,320 words give 4,302
    distinct pairs. A pair whose masks find no separator where the
    knight scan finds a knight's move, or the other way round, would
    mean a bug in one of the two definitions: the part is then scanned
    again for the first word giving such a pair, which raises
    ``VerificationError``. Otherwise the five statistics are read once
    per distinct masks triple.
    """
    words, again = itertools.tee(_part_words(n, part, parts))
    pairs = Counter(zip(map(separator_masks, words), map(has_knight_pair, again)))
    masks: Counter = Counter()
    for (key, knight), count in pairs.items():
        if (key[0] | key[1] == 0) == knight:
            _first_disagreement(n, part, parts)
        masks[key] += count
    tallies: dict[str, Counter] = {kind: Counter() for kind in KINDS}
    t_v, t_h, t_b, t_a, t_bonds = (
        tallies["vertical"],
        tallies["horizontal"],
        tallies["both"],
        tallies["any"],
        tallies["bonds"],
    )
    for (vm, hm, b), count in masks.items():
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
    _check_cap(n)
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
    if k < 1:
        raise ValueError("k must be >= 1")
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
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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


# ---------------------------------------------------------------------------
# The full check suite behind `sepstat verify`


def _first_mismatch(kind: str, series, tables: dict) -> tuple | None:
    """The first (kind, n, m, want, got), in the order of n and then m,
    where the tables count ``want`` permutations of S_n with statistic
    m and ``series`` has ``got`` at z^n t^m; None when they all agree."""
    for n, by_kind in tables.items():
        want, got = by_kind[kind], coeff(series, n).coeffs
        for m in range(max(len(got), max(want, default=0) + 1)):
            have = got[m] if m < len(got) else 0
            if want[m] != have:
                return kind, n, m, want[m], have
    return None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# The walk covers S_<=7, and its marked checks S_<=6, whatever n_max is.
_WALK_N = 7
_MARKED_N = 6
# The names of the walk's checks.
_DUAL = "inverse duality of separator sets"
_REVERSE = "reverse invariance of separator sets"
_CHILDREN = "children count is n - bonds"
_KING = "king children count is n - separators"
_ENCODE = "marked encode/decode round-trip"
_COMB = "marked comb/split round-trip"
_CONSERVED = "mark conservation across comb"


def _suite_chunk(n_max: int, part: int, parts: int) -> tuple:
    """One part of the suite's exhaustive work: the sweep of part
    ``part`` of every S_n, n <= n_max, then the per-permutation checks
    over its part of S_<=7 (the marked round-trips over S_<=6).

    Returns ``(tables, failure, broken)``. ``failure`` is None,
    or ``(n, word, message)`` for the first word of the part on which
    the separator-free oracles disagree; the part stops there and
    ``tables`` holds the n before it. ``broken`` is the set of the
    names of the walk checks that some permutation of the part fails.
    The number of permutations walked is fixed by ``n_max`` alone, so
    the caller counts it.
    """
    tables: dict[int, dict[str, Counter]] = {}
    broken: set[str] = set()
    for n in range(n_max + 1):
        try:
            tables[n] = _sweep_part(n, part, parts)
        except VerificationError as exc:
            return tables, (n, exc.word, str(exc)), broken

    for n in range(min(n_max, _WALK_N) + 1):
        for word in _part_words(n, part, parts):
            p = Permutation._trusted(word)  # a tuple of itertools.permutations
            vm, hm, n_bonds = separator_masks(word)
            vpos = position_mask(word, vm)
            # the values of the inverse are the positions of p
            qv, qh, _ = separator_masks(inverse(p).entries)
            if qh != vpos or qv != position_mask(word, hm):
                broken.add(_DUAL)
            rv, rh, _ = separator_masks(reverse(p).entries)
            if rv != vm or rh != hm:
                broken.add(_REVERSE)
            if n >= 1:
                kids = children(p)
                if len(kids) != n - n_bonds:
                    broken.add(_CHILDREN)
                if not n_bonds:
                    king_kids = sum(map(is_king, kids))
                    if king_kids != n - (vm | hm).bit_count():
                        broken.add(_KING)
            if n > _MARKED_N:
                continue
            for mw in enumerate_markings(p):
                comp, sigma = encode_marked(mw)
                if decode_marked(comp, sigma) != mw:
                    broken.add(_ENCODE)
            for subset in subsets(vpos):  # marks on vertical separators
                msp = MarkedSepPermutation._trusted(p, subset)
                odd, even = split_marked(msp)
                back = comb_marked(odd, even)
                if back != msp:
                    broken.add(_COMB)
                if len(msp.marked_sep_positions) != len(odd.marked) + len(
                    even.marked
                ):
                    broken.add(_CONSERVED)
    return tables, None, broken


def _deal(n: int, threads: int | None, fn, *args) -> list:
    """Run ``fn(*args, part, parts)`` for each part of the prefix split
    of S_n (see `_part_words`) and return the results in part order.

    There are min(threads, n) parts (``None`` means one per CPU), each
    run in its own worker process. Below 7!, or with one thread, there
    is one part, run in this process, because pool overhead beats tiny
    jobs. This is the only process pool, and the suite its only user:
    the first pool imports ``concurrent.futures``, which no other
    command loads.

    The workers ignore Ctrl-C, which a terminal sends to them too. This
    process takes the ``KeyboardInterrupt``, stops the workers and
    raises it again.
    """
    global ProcessPoolExecutor
    if threads is None:
        threads = os.cpu_count() or 1
    if threads <= 1 or factorial(n) < 5040:
        return [fn(*args, 0, 1)]
    import signal

    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    parts = min(threads, n)
    pool = ProcessPoolExecutor(
        max_workers=parts,
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        futures = [pool.submit(fn, *args, part, parts) for part in range(parts)]
        return [future.result() for future in futures]
    except KeyboardInterrupt:
        # ProcessPoolExecutor.terminate_workers() is new in Python 3.14
        for worker in list(pool._processes.values()):
            worker.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def run_check_suite(
    n_max: int, threads: int | None = 1
) -> tuple[list[CheckResult], dict[int, dict[str, Counter]]]:
    """Every structural invariant the library promises, at desk scale.

    Exhaustive-from-definition checks are capped at n = 7 (and the
    marked round-trips at n = 6) regardless of ``n_max``; the sweeps,
    one per n, and the series comparisons run all the way up to
    ``n_max``. The sweeps and the walk over S_<=7 are dealt together
    by their first two entries (see `_part_words`), as one job per part
    on one pool of at most ``n_max`` workers (none below 7!); the parts'
    tallies and broken walk checks merge into the same result for every
    worker count. The walk reads each permutation's separators once,
    with one ``separator_masks`` call each for it, its inverse and its
    reverse, and compares the masks.

    Returns the checks together with the sweep tables behind them,
    keyed by n. A sweep that finds the separator-free oracles
    disagreeing ends the suite: the only check returned is that failure,
    at the lowest n and the lexicographically first word there, with
    the tables swept before it.
    """
    _check_cap(n_max)
    results: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, passed, detail))

    parts = _deal(n_max, threads, _suite_chunk, n_max)
    # lowest n first, then the lexicographically first word at that n
    failure = min((part[1] for part in parts if part[1]), default=None)
    reach = failure[0] if failure else n_max + 1
    tables = {n: {kind: Counter() for kind in KINDS} for n in range(reach)}
    for part_tables, *_ in parts:
        for n in range(reach):
            for kind in KINDS:
                tables[n][kind].update(part_tables[n][kind])
    if failure:
        add("separator-free dual oracle", False, failure[2])
        return results, tables
    broken = set().union(*(part[2] for part in parts))

    def add_walk(name: str, detail: str) -> None:
        add(name, name not in broken, detail)

    # series rows against the exhaustive tables
    for kind, label, series in (
        ("vertical", "vertical separators", vertical_sep_gf(n_max)),
        ("bonds", "bonds", bond_gf(n_max)),
    ):
        bad = _first_mismatch(kind, series, tables)
        add(
            f"series-vs-enumeration ({label})",
            bad is None,
            f"n <= {n_max}" if bad is None else f"first mismatch {bad}",
        )

    sym_ok = all(
        tables[n]["vertical"] == tables[n]["horizontal"] for n in range(n_max + 1)
    )
    add("vertical/horizontal distributions identical", sym_ok, f"n <= {n_max}")

    small = min(n_max, _WALK_N)
    marked_n = min(n_max, _MARKED_N)
    checked = sum(factorial(n) for n in range(small + 1))  # the walk's S_<=7
    add_walk(_DUAL, f"{checked} permutations")
    add_walk(_REVERSE, f"{checked} permutations")
    add_walk(_CHILDREN, f"n <= {small}")
    add_walk(_KING, f"n <= {small}")

    # every sweep above checked each word against the knight-move test
    add("separator-free dual oracle", True, f"n <= {n_max}")

    exp_ok = True
    for n in range(3, n_max + 1):
        for kind in EXPECTATION_KINDS:
            if _mean(n, tables[n][kind]) != expectation_formula(n, kind):
                exp_ok = False
    add("expectation formulas match averages", exp_ok, f"3 <= n <= {n_max}")

    max_ok = True
    for n in range(1, n_max + 1):
        full = tables[n]["any"].get(n, 0)
        if n % 4 == 0:
            k = n // 4
            if full != (2**k) * factorial(k):
                max_ok = False
            built = max_separator_perms(k)
            if not is_all_separating_set(built, n, tables[n]["any"]):
                max_ok = False
        elif full != 0:
            max_ok = False
    add("all-digits-separate structure", max_ok, f"n <= {n_max}")

    ladder = [8, 10, 100, 10**3, 10**6]
    conv_ok = all(expectation_convergence_ok(n) for n in ladder)
    add("expectation convergence (formula level)", conv_ok, f"n in {ladder}")

    add_walk(_ENCODE, f"n <= {marked_n}")
    add_walk(_COMB, f"n <= {marked_n}")
    add_walk(_CONSERVED, f"n <= {marked_n}")

    return results, tables
