import itertools
import multiprocessing
import os
import signal
import time
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from sepstat import config, exhaustive, verify
from sepstat.exhaustive import (
    EXPECTATION_KINDS,
    KINDS,
    _mean,
    _part_heads,
    _part_pairs,
    _part_words,
    _sweep_part,
    expectation_convergence_ok,
    expectation_formula,
    is_all_separating_set,
    max_separator_perms,
    sweep,
)
from sepstat.perms import Direction, Permutation, bonds
from sepstat.separators import (
    ArrowedComposition,
    MarkedSepPermutation,
    MarkedWord,
    has_knight_pair,
    separator_count,
    separator_masks,
    separator_report,
)
from sepstat.series import BiSeries, MarkerPoly
from sepstat.transfer import distribution, event_row
from sepstat.verify import run_check_suite


def _words(n):
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# The sweep


def test_sweep_respects_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("sweep started")

    monkeypatch.setattr(exhaustive, "_part_heads", refuse)
    with pytest.raises(ValueError, match="cap 10"):
        sweep(11)
    with pytest.raises(ValueError, match="n must be >= 0"):
        sweep(-1)
    monkeypatch.setattr(config, "MAX_SWEEP_N", 5)
    with pytest.raises(ValueError, match="cap 5"):
        sweep(6)
    monkeypatch.setattr(config, "MAX_SWEEP_N", 11)
    with pytest.raises(AssertionError, match="sweep started"):
        sweep(11)  # raising the cap is allowed


# ---------------------------------------------------------------------------
# Distributions


def test_distribution_small_tables():
    assert distribution(3, "vertical") == {0: 2, 1: 4}
    assert distribution(3, "both") == {0: 6}
    assert distribution(0, "any") == {0: 1}
    assert distribution(3, "bonds") == {1: 4, 2: 2}


def test_distribution_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        distribution(3, "diagonal")


@pytest.mark.parametrize("n", range(8))
def test_distribution_totals(n):
    tables = sweep(n)
    for kind in KINDS:
        assert sum(tables[kind].values()) == factorial(n)


@pytest.mark.parametrize("n", range(8))
def test_vertical_equals_horizontal(n):
    tables = sweep(n)
    assert tables["vertical"] == tables["horizontal"]


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("n", range(6))
def test_parts_split_sn_in_lexicographic_order(n, parts):
    slices = [list(_part_words(n, part, parts)) for part in range(parts)]
    assert all(words == sorted(words) for words in slices)
    assert sorted(w for words in slices for w in words) == list(
        itertools.permutations(range(1, n + 1))
    )
    # the two-entry prefixes are dealt round-robin, each with its (n - 2)!
    # words; S_0 and S_1 have one word, in part 0
    prefixes = n * (n - 1) if n >= 2 else 1
    size = factorial(n - 2) if n >= 2 else 1
    assert [len(words) for words in slices] == [
        len(range(part, prefixes, parts)) * size for part in range(parts)
    ]


@pytest.mark.parametrize("n", range(8))
def test_sweep_masks_match_separator_sets(n):
    words = list(itertools.permutations(range(1, n + 1)))
    assert len(words) == factorial(n)
    full = []
    for word in words:
        p = Permutation(word)
        vm, hm, _ = separator_masks(word)
        rep = separator_report(p)
        assert vm == sum(1 << v for v in rep.vertical)
        assert hm == sum(1 << v for v in rep.horizontal)
        if separator_count(p) == n:
            full.append(p)
    assert is_all_separating_set(full, n, sweep(n)["any"])


def test_sweep_matches_per_permutation_reports():
    # the fast scan and the definitional sets must tally identically
    for n in range(6):
        expected = {kind: {} for kind in KINDS}
        for word in _words(n):
            p = Permutation(word)
            rep = separator_report(p)
            for kind, m in (
                ("vertical", len(rep.vertical)),
                ("horizontal", len(rep.horizontal)),
                ("both", len(rep.both)),
                ("any", rep.sep_count),
                ("bonds", len(bonds(p))),
            ):
                expected[kind][m] = expected[kind].get(m, 0) + 1
        tables = sweep(n)
        for kind, want in expected.items():
            assert dict(tables[kind]) == want


def test_sweep_parallel_merge_is_deterministic():
    # the per-part tallies that verify deals over its pool merge to the
    # whole sweep
    whole = sweep(7)
    for parts in (2, 3, 5):
        merged = {kind: Counter() for kind in KINDS}
        for part in range(parts):
            for kind, tally in _sweep_part(7, part, parts).items():
                merged[kind].update(tally)
        assert merged == whole, parts


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("n", range(9))
def test_resumed_sweep_is_the_per_word_tally(n, parts):
    # heads scanned once and both oracles resumed on their tails count
    # each word as both oracles put to the whole word do
    for part in range(parts):
        words = list(_part_words(n, part, parts))
        assert _part_pairs(n, part, parts) == Counter(
            zip(map(separator_masks, words), map(has_knight_pair, words))
        )


@pytest.mark.parametrize("n", range(1, 9))
def test_separators_over_kings_total_the_insertion_count(n):
    """Summed over the kings of S_n (no bond), `any` is
    n·K_n − (n − 2)²·K_{n−1}, K_m the kings of S_m (row 0 of the bonds
    closed form).

    Count the pairs (king p, position i) where deleting p_i leaves a
    king. A king's children that are kings number n − any(p) (the
    suite's king-children check), so there are Σ_p (n − any(p)) pairs.
    Count them again by inserting a value v into a gap of a king q of
    S_{n−1}, q's values ≥ v shifted up. Pairs of q that stay adjacent
    are still ≥ 2 apart after the shift, and the new entry forms a bond
    with a neighbour whose value in q is x exactly when v ∈ {x, x + 1}.
    q has no bond, so the four values barred at an inner gap are
    distinct: n − 4 values at each of the n − 2 inner gaps and n − 2 at
    each of the 2 end gaps, (n − 2)² insertions in all when n ≥ 2. For
    n = 1 the empty word takes its one value: 1 = (1 − 2)².
    """
    kings = total = 0
    for ((vm, hm, bond_count), _), words in _part_pairs(n, 0, 1).items():
        if not bond_count:
            kings += words
            total += (vm | hm).bit_count() * words
    k_prev, k_n = (event_row(m, "bonds").get(0, 0) for m in (n - 1, n))
    assert kings == k_n
    assert total == n * k_n - (n - 2) ** 2 * k_prev


@pytest.mark.parametrize("n", range(8))
def test_heads_and_their_tails_are_the_part_words(n):
    for tail, parts in itertools.product(range(n + 2), (1, 2, 3)):
        for part in range(parts):
            words = [
                head + rest
                for head, values in _part_heads(n, part, parts, tail)
                for rest in itertools.permutations(values)
            ]
            assert words == list(_part_words(n, part, parts))


@pytest.mark.parametrize("n, part, parts", [(0, 0, 1), (5, 0, 1), (7, 1, 2)])
def test_sweep_of_given_masks_is_the_sweep(n, part, parts):
    # the masks `verify` reads once for the walk give the sweep's own tally
    masks = list(map(separator_masks, _part_words(n, part, parts)))
    assert _sweep_part(n, part, parts, masks) == _sweep_part(n, part, parts)


def test_dist_table_helpers():
    # the mean that `expect --mode empirical` and the suite take of a table
    counts = distribution(3, "vertical")
    assert sum(counts.values()) == 6
    assert _mean(3, counts) == Fraction(2, 3)
    assert _mean(0, {0: 1}) == 0


# ---------------------------------------------------------------------------
# Separator-free counts (dual oracle)


def test_separator_free_small_values():
    assert sweep(1)["any"][0] == 1
    assert sweep(3)["any"][0] == 2


@pytest.mark.parametrize("n", range(8))
def test_separator_free_matches_sweep(n):
    # the knight-move scan counted on its own, against the sets' count
    knight_free = sum(1 for word in _words(n) if not has_knight_pair(word))
    assert sweep(n)["any"].get(0, 0) == knight_free


def test_separator_free_parallel():
    # verify's tables, dealt over a pool of two, against the sweep
    _, tables = run_check_suite(7, threads=2)
    assert tables[7]["any"][0] == sweep(7)["any"][0]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched oracle reaches pool workers only through fork",
)
def test_pooled_suite_reports_the_first_disagreement(monkeypatch):
    # at n = 4 the two words lie in different parts of a 2-worker split;
    # the lexicographically first is named
    real = exhaustive.has_knight_pair
    flipped = {(2, 4, 1, 3), (3, 1, 4, 2)}
    assert [flipped & set(_part_words(4, part, 2)) for part in range(2)] == [
        {(3, 1, 4, 2)},
        {(2, 4, 1, 3)},
    ]
    monkeypatch.setattr(
        exhaustive,
        "has_knight_pair",
        lambda word: real(word) != (tuple(word) in flipped),
    )
    pooled = run_check_suite(7, threads=2)
    assert pooled == run_check_suite(7, threads=1)
    assert run_check_suite(7, threads=3) == pooled
    [check], tables = pooled
    assert check.name == "separator-free dual oracle" and not check.passed
    assert check.detail.startswith("separator-free oracles disagree on [2413]")
    assert list(tables) == [0, 1, 2, 3]


def _interrupting_part(part, parts):
    """A pool job: in a worker that ignores Ctrl-C, part 0 sends it to
    the pool's owner, and both wait there until they are stopped."""
    if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
        return part
    if part == 0:
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(60)
    return part


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers' parent is this process only under fork",
)
def test_interrupted_pool_stops_its_workers_quietly(capfd):
    # Python installs no KeyboardInterrupt handler when it starts with
    # SIGINT ignored, as a background job of a shell script does
    old = signal.signal(signal.SIGINT, signal.default_int_handler)
    start = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            verify._deal(7, 2, _interrupting_part)
    finally:
        signal.signal(signal.SIGINT, old)
    assert time.monotonic() - start < 30  # the sleeping workers were stopped
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""  # and printed no traceback


def _knight_blind_to(monkeypatch, flipped):
    """Make the knight-move oracle of the sweep find no knight pair in
    the word ``flipped``, however the sweep reads it: whole (the part's
    rescan, and the sweeps of S_<=7 in `verify`), or as a head scanned
    from its start and then the rest of the word, resumed after the
    head's last two entries. For the resumed read to be asked at all,
    the oracle must miss the pairs of the head too, so it answers False
    for each prefix of ``flipped`` scanned from its start; the other
    tails of that head are scanned as before."""
    real = exhaustive.has_knight_pair

    def knight(word, a=-2, b=-2):
        word = tuple(word)
        cut = len(flipped) - len(word)
        if (a, b) == (-2, -2) and word == flipped[: len(word)]:
            return False
        if word == flipped[cut:] and (a, b) == (-2, -2, *flipped[:cut])[-2:]:
            return False
        return real(word, a, b)

    monkeypatch.setattr(exhaustive, "has_knight_pair", knight)


def test_separator_free_disagreement_stops_the_suite(monkeypatch):
    _knight_blind_to(monkeypatch, (2, 4, 1, 3))
    with pytest.raises(RuntimeError, match=r"disagree on \[2413\]"):
        sweep(4)
    checks, tables = run_check_suite(5)
    assert [(c.name, c.passed) for c in checks] == [
        ("separator-free dual oracle", False)
    ]
    assert sorted(tables) == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "threads",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the patched oracle reaches pool workers only through fork",
            ),
        ),
    ],
)
def test_disagreement_past_the_walk_stops_the_suite(monkeypatch, threads):
    # S_<=7 is swept and walked in one pass; the sweep of S_8 that follows
    # finds the flipped word (in part 1 of 2) and ends the suite with only
    # that failure, and the tables of n = 0..7. A walk check broken as
    # well is not reported.
    flipped = (2, 4, 6, 8, 1, 3, 5, 7)
    assert flipped in set(_part_words(8, 1, 2))
    _knight_blind_to(monkeypatch, flipped)
    real_kids = verify._child_words
    monkeypatch.setattr(
        verify, "_child_words", lambda e: set() if e == (1, 2, 3) else real_kids(e)
    )
    [check], tables = run_check_suite(8, threads=threads)
    assert check.name == "separator-free dual oracle" and not check.passed
    assert check.detail.startswith("separator-free oracles disagree on [24681357]")
    assert list(tables) == list(range(8))
    assert tables[7]["any"] == sweep(7)["any"]


_DUAL ="inverse duality of separator sets"
_REVERSE = "reverse invariance of separator sets"
_P = (1, 2, 4, 3)
# p = [1243], its inverse (itself) and its reverse [3421] all have
# vertical mask {4} and horizontal mask {3}. [1342] gets the vertical
# mask right and the horizontal one wrong ({2, 3}), [1423] the other way
# round ({2, 4}), so each fails exactly one comparison of either check.
_P_WRONG_HORIZONTAL = (1, 3, 4, 2)
_P_WRONG_VERTICAL = (1, 4, 2, 3)

# Each walk check, and one call of a name it reads from `sepstat.verify`
# given a wrong answer: (check name, patched name, arguments, wrong result).
_BROKEN_CALLS = [
    # the walk reads the inverse and the reverse of each word as words
    pytest.param(_DUAL, "_inverse_word", (_P,), _P_WRONG_HORIZONTAL, id="inverse-h"),
    pytest.param(_DUAL, "_inverse_word", (_P,), _P_WRONG_VERTICAL, id="inverse-v"),
    pytest.param(_REVERSE, "_reversed", (_P,), _P_WRONG_HORIZONTAL, id="reverse-h"),
    pytest.param(_REVERSE, "_reversed", (_P,), _P_WRONG_VERTICAL, id="reverse-v"),
    # the walk counts children on the words of `_child_words` ...
    pytest.param(
        "children count is n - bonds",
        "_child_words",
        ((1, 2, 3),),
        set(),
        id="children",
    ),
    # ... and asks `is_king` of each one: S_1's child is the empty word
    pytest.param(
        "king children count is n - separators",
        "is_king",
        (b"",),
        False,
        id="is_king",
    ),
    # the marked checks of S_<=6 run on the word kernels: [123] unmarked
    # encodes as three parts of size 1, and the one part (3 up) decodes
    # to [123] with both of its bonds marked
    pytest.param(
        "marked encode/decode round-trip",
        "_encode_word",
        ((1, 2, 3), frozenset()),
        (((3, Direction.UP),), (1,)),
        id="encode_marked",
    ),
    pytest.param(
        "marked encode/decode round-trip",
        "_decode_word",
        (((3, Direction.UP),), (1,)),
        ((1, 2, 3), frozenset()),
        id="decode_marked",
    ),
    # [132] with its vertical separator marked: bond 1 of the odd half
    # [12] flags position 2, and the halves [12] and [3] make [132]
    pytest.param(
        "marked comb/split round-trip",
        "_comb_marks",
        (frozenset({1}), frozenset()),
        frozenset(),
        id="comb_marked",
    ),
    pytest.param(
        "marked comb/split round-trip",
        "_interleave",
        ((1, 2), (3,)),
        (1, 2, 3),
        id="interleave",
    ),
]


@pytest.mark.parametrize(
    "n_max, threads",
    [
        (5, 1),
        (5, 2),
        pytest.param(
            7,
            2,
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the patched name reaches pool workers only through fork",
            ),
        ),
    ],
)
@pytest.mark.parametrize("check, name, args, wrong", _BROKEN_CALLS)
def test_each_walk_check_can_fail(monkeypatch, check, name, args, wrong, n_max, threads):
    real = getattr(verify, name)
    monkeypatch.setattr(
        verify, name, lambda *a: wrong if a == args else real(*a)
    )
    checks, _ = run_check_suite(n_max, threads=threads)
    assert [c.name for c in checks if not c.passed] == [check]
    assert len(checks) == len(run_check_suite(4)[0])


# A series builder the suite reads, the row of z^n it gives replaced,
# and the failure detail: S_3 has {0: 2, 1: 4} vertical separators and
# S_4 {0: 2, 1: 10, 2: 10, 3: 2} bonds.
_V, _B = "vertical separators", "bonds"


@pytest.mark.parametrize(
    "builder, label, n, row, detail",
    [
        ("vertical_sep_gf", _V, 3, (2, 5), "('vertical', 3, 1, 4, 5)"),
        ("vertical_sep_gf", _V, 3, (2, 4, 0, 7), "('vertical', 3, 3, 0, 7)"),
        ("bond_gf", _B, 4, (2, 10, 11, 2), "('bonds', 4, 2, 10, 11)"),
        ("bond_gf", _B, 4, (2, 10, 10, 2, 1), "('bonds', 4, 4, 0, 1)"),
    ],
)
def test_series_check_names_its_first_mismatch(
    monkeypatch, builder, label, n, row, detail
):
    real = getattr(verify, builder)

    def off(order):
        series = real(order)
        return BiSeries(series.order, {**series.coeffs, n: MarkerPoly(row)})

    monkeypatch.setattr(verify, builder, off)
    checks, _ = run_check_suite(5)
    [bad] = [c for c in checks if not c.passed]
    assert bad.name == f"series-vs-enumeration ({label})"
    assert bad.detail == f"first mismatch {detail}"


# The other checks of the suite, each broken alone by one patch of what
# it reads from `sepstat.verify`.


def _off_expectation(monkeypatch):
    real = verify.expectation_formula

    def off(n, kind):
        return real(n, kind) + 1 if (n, kind) == (4, "both") else real(n, kind)

    monkeypatch.setattr(verify, "expectation_formula", off)


def _one_max_separator_perm_short(monkeypatch):
    real = verify.max_separator_perms
    monkeypatch.setattr(verify, "max_separator_perms", lambda k: real(k)[1:])


def _no_convergence_at_100(monkeypatch):
    real = verify.expectation_convergence_ok
    monkeypatch.setattr(
        verify, "expectation_convergence_ok", lambda n: n != 100 and real(n)
    )


def _one_more_horizontal_count(monkeypatch):
    real = verify._sweep_part

    def off(n, part, parts, masks=None):
        tallies = real(n, part, parts, masks)
        if n == 4:
            tallies["horizontal"][1] += 1
        return tallies

    monkeypatch.setattr(verify, "_sweep_part", off)


def _mark_lost_in_the_split(monkeypatch):
    # The split of the marks {2} (the vertical separator of [132], and of
    # every word with one at position 2) drops the mark, and the comb
    # that follows gives the marks back, so the round trip holds and
    # only the count of marks is off.
    real_split, real_comb = verify._split_marks, verify._comb_marks
    marked = frozenset({2})
    last = []

    def split(marks):
        last[:] = [marks]
        return (frozenset(), frozenset()) if marks == marked else real_split(marks)

    def comb(odd_marks, even_marks):
        return marked if last[0] == marked else real_comb(odd_marks, even_marks)

    monkeypatch.setattr(verify, "_split_marks", split)
    monkeypatch.setattr(verify, "_comb_marks", comb)


@pytest.mark.parametrize(
    "check, patch",
    [
        ("expectation formulas match averages", _off_expectation),
        ("all-digits-separate structure", _one_max_separator_perm_short),
        ("expectation convergence (formula level)", _no_convergence_at_100),
        ("vertical/horizontal distributions identical", _one_more_horizontal_count),
        ("mark conservation across comb", _mark_lost_in_the_split),
    ],
)
def test_each_table_check_can_fail(monkeypatch, check, patch):
    count = len(run_check_suite(5)[0])
    patch(monkeypatch)
    checks, _ = run_check_suite(5)
    assert [c.name for c in checks if not c.passed] == [check]
    assert len(checks) == count


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched kernels reach pool workers only through fork",
)
def test_pooled_mark_conservation_check_can_fail(monkeypatch):
    # each part of the pool returns its own broken set, and the lost
    # mark is found in a worker's part as it is in one process
    _mark_lost_in_the_split(monkeypatch)
    checks, _ = run_check_suite(7, threads=2)
    assert [c.name for c in checks if not c.passed] == [
        "mark conservation across comb"
    ]
    assert len(checks) == len(run_check_suite(4)[0])


# ---------------------------------------------------------------------------
# All digits separate


def test_max_separator_k1():
    perms = max_separator_perms(1)
    assert {p.entries for p in perms} == {(3, 1, 4, 2), (2, 4, 1, 3)}


def test_max_separator_k2():
    perms = max_separator_perms(2)
    assert len(perms) == 8
    assert all(p.n == 8 and separator_count(p) == 8 for p in perms)


def test_max_separator_k3_count_and_property():
    perms = max_separator_perms(3)
    assert len(perms) == (2**3) * factorial(3)
    assert all(separator_count(p) == 12 for p in perms)


def test_max_separator_exhaustive_cross_check_n4():
    want = {p.entries for p in max_separator_perms(1)}
    got = {word for word in _words(4) if separator_count(Permutation(word)) == 4}
    assert want == got


def test_max_separator_rejects_k0():
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        max_separator_perms(0)


@pytest.mark.parametrize("k", [True, 2.0, "1", -1])
def test_max_separator_requires_an_int_k(k):
    with pytest.raises(ValueError, match=r"^k "):
        max_separator_perms(k)


@pytest.mark.parametrize("k", [-1, -4])
def test_max_separator_rejects_a_negative_k_by_its_rule(k):
    with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
        max_separator_perms(k)


_P3142, _P1234 = Permutation((3, 1, 4, 2)), Permutation((1, 2, 3, 4))


@pytest.mark.parametrize(
    "perms, any_counts, want",
    [
        (max_separator_perms(1), {4: 2}, True),
        ([_P3142, _P3142], {4: 2}, False),
        ([_P3142, _P1234], {4: 2}, False),
        ([_P3142], {4: 2}, False),
        (max_separator_perms(1), {4: 3}, False),
    ],
    ids=["whole-set", "duplicate", "non-separating", "subset", "wrong-count"],
)
def test_is_all_separating_set(perms, any_counts, want):
    assert is_all_separating_set(perms, 4, any_counts) is want


# ---------------------------------------------------------------------------
# Expectations


def test_expectation_formula_spot_values():
    assert expectation_formula(4, "vertical") == 1
    assert expectation_formula(4, "both") == Fraction(1, 6)
    assert expectation_formula(4, "any") == Fraction(11, 6)
    assert expectation_formula(3, "vertical") == Fraction(2, 3)
    assert expectation_formula(1000000, "vertical") == Fraction(499999, 250000)


def test_expectation_below_three_is_zero():
    for n in (0, 1, 2):
        for kind in EXPECTATION_KINDS:
            assert expectation_formula(n, kind) == 0
            assert _mean(n, distribution(n, kind)) == 0


def test_expectation_empirical_small():
    assert _mean(3, distribution(3, "vertical")) == Fraction(2, 3)
    assert _mean(3, distribution(3, "both")) == 0


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("kind", EXPECTATION_KINDS)
def test_formula_equals_empirical(n, kind):
    assert expectation_formula(n, kind) == _mean(n, distribution(n, kind))


@given(st.integers(min_value=3, max_value=10**12))
def test_total_equals_twice_vertical_minus_both(n):
    lhs = expectation_formula(n, "any")
    rhs = 2 * expectation_formula(n, "vertical") - expectation_formula(n, "both")
    assert lhs == rhs


def test_expectation_unknown_kind():
    with pytest.raises(ValueError):
        expectation_formula(4, "horizontal-only")


def test_expectation_negative_n():
    for kind in EXPECTATION_KINDS:
        with pytest.raises(ValueError, match="n must be >= 0"):
            expectation_formula(-1, kind)


def test_convergence_sanity():
    assert all(expectation_convergence_ok(n) for n in (8, 50, 10**3, 10**6))
    # the vertical gap is exactly 4/n, so the bound is tight
    assert abs(expectation_formula(100, "vertical") - 2) == Fraction(4, 100)


# ---------------------------------------------------------------------------
# Verification harness


def test_check_suite_tables():
    checks, tables = run_check_suite(4)
    assert all(c.passed for c in checks)
    assert sorted(tables) == [0, 1, 2, 3, 4]
    assert tables[3]["vertical"] == {0: 2, 1: 4}
    assert tables[3]["bonds"] == {1: 4, 2: 2}


def test_check_suite_trivial():
    checks, tables = run_check_suite(0)
    assert all(c.passed for c in checks)
    assert tables[0]["vertical"] == {0: 1}


def test_run_check_suite_small():
    checks, _ = run_check_suite(4)
    assert checks and all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert "series-vs-enumeration (vertical separators)" in names
    assert "king children count is n - separators" in names


def test_suite_checks_every_word_it_did_not_build(monkeypatch):
    # The walk hands no word to a checking constructor: its marked
    # checks of S_<=6 run on the word kernels behind encode_marked,
    # decode_marked, split_marked and comb_marked, and build no record.
    # The only checks left are max_separator_perms's 1 + 2 patterns
    # (README's figure).
    calls = Counter()
    for cls in (Permutation, MarkedWord, ArrowedComposition, MarkedSepPermutation):

        def init(self, *args, _real=cls.__init__, _name=cls.__name__):
            calls[_name] += 1
            _real(self, *args)

        monkeypatch.setattr(cls, "__init__", init)
    checks, _ = run_check_suite(8, threads=1)
    assert all(c.passed for c in checks)
    assert calls == {"Permutation": 3}
