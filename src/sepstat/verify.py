"""The check suite behind `sepstat verify`: the tables of the exhaustive
sweep, dealt over one process pool, held against the series and the
expectation formulas, and a walk over S_<=7 that checks the structural
invariants of each permutation. The pool is imported with the first
pooled suite. After `cli` and `__init__`, this is the third module that
imports more than one route (``tests/test_route_graph.py`` pins them).
"""

from __future__ import annotations

import os
from collections import Counter
from math import factorial
from typing import NamedTuple

from . import config
from .exhaustive import (
    _mean,
    _part_words,
    _sweep_part,
    expectation_convergence_ok,
    expectation_formula,
    is_all_separating_set,
    max_separator_perms,
)
from .perms import Permutation, _child_words, inverse, is_king, reverse
from .separators import (
    EXPECTATION_KINDS,
    KINDS,
    MarkedSepPermutation,
    VerificationError,
    comb_marked,
    decode_marked,
    encode_marked,
    enumerate_markings,
    position_mask,
    separator_masks,
    split_marked,
    subsets,
)
from .series import bond_gf, coeff, vertical_sep_gf


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


class CheckResult(NamedTuple):
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
    over its part of S_<=7 (the marked round-trips over S_<=6). The
    children and king children of each word are counted on the words
    of `_child_words`, with no `Permutation` built for a child.

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
                kids = _child_words(word)
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
    jobs. This is the only process pool, and the suite its only user.
    Only this path imports ``concurrent.futures``. A dead worker's
    ``BrokenProcessPool``, from ``submit`` or ``result``, is raised as
    a ``ChildProcessError`` with the same message, chained to it.

    The workers ignore Ctrl-C, which a terminal sends to them too. This
    process takes the ``KeyboardInterrupt``, stops the workers and
    raises it again.
    """
    if threads is None:
        threads = os.cpu_count() or 1
    if threads <= 1 or factorial(n) < 5040:
        return [fn(*args, 0, 1)]
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    parts = min(threads, n)
    pool = ProcessPoolExecutor(
        max_workers=parts,
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        futures = [pool.submit(fn, *args, part, parts) for part in range(parts)]
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise ChildProcessError(str(exc)) from exc
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
    the tables swept before it. A pool worker that dies raises
    ``ChildProcessError``.
    """
    config.check_n(n_max, config.MAX_SWEEP_N, "enumeration")
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
