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
from sepstat.transfer import distribution
from sepstat.verify import run_check_suite


def _words(n):
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# The sweep


def test_sweep_respects_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("sweep started")

    monkeypatch.setattr(exhaustive, "_part_words", refuse)
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
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify._deal(7, 2, _interrupting_part)
    assert time.monotonic() - start < 30  # the sleeping workers were stopped
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""  # and printed no traceback


def test_separator_free_disagreement_stops_the_suite(monkeypatch):
    from sepstat import exhaustive

    real = exhaustive.has_knight_pair
    monkeypatch.setattr(
        exhaustive,
        "has_knight_pair",
        lambda word: real(word) != (tuple(word) == (2, 4, 1, 3)),
    )
    with pytest.raises(RuntimeError, match=r"disagree on \[2413\]"):
        sweep(4)
    checks, tables = run_check_suite(5)
    assert [(c.name, c.passed) for c in checks] == [
        ("separator-free dual oracle", False)
    ]
    assert sorted(tables) == [0, 1, 2, 3]


_DUAL = "inverse duality of separator sets"
_REVERSE = "reverse invariance of separator sets"
_P = Permutation((1, 2, 4, 3))
# p = [1243], its inverse (itself) and its reverse [3421] all have
# vertical mask {4} and horizontal mask {3}. [1342] gets the vertical
# mask right and the horizontal one wrong ({2, 3}), [1423] the other way
# round ({2, 4}), so each fails exactly one comparison of either check.
_P_WRONG_HORIZONTAL = Permutation((1, 3, 4, 2))
_P_WRONG_VERTICAL = Permutation((1, 4, 2, 3))

# Each walk check, and one call of a name it reads from `sepstat.verify`
# given a wrong answer: (check name, patched name, arguments, wrong result).
_BROKEN_CALLS = [
    pytest.param(_DUAL, "inverse", (_P,), _P_WRONG_HORIZONTAL, id="inverse-h"),
    pytest.param(_DUAL, "inverse", (_P,), _P_WRONG_VERTICAL, id="inverse-v"),
    pytest.param(_REVERSE, "reverse", (_P,), _P_WRONG_HORIZONTAL, id="reverse-h"),
    pytest.param(_REVERSE, "reverse", (_P,), _P_WRONG_VERTICAL, id="reverse-v"),
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
    pytest.param(
        "marked encode/decode round-trip",
        "encode_marked",
        (MarkedWord((1, 2, 3)),),
        (ArrowedComposition(((3, Direction.UP),)), Permutation((1,))),
        id="encode_marked",
    ),
    pytest.param(
        "marked encode/decode round-trip",
        "decode_marked",
        (ArrowedComposition(((3, Direction.UP),)), Permutation((1,))),
        MarkedWord((1, 2, 3)),
        id="decode_marked",
    ),
    pytest.param(
        "marked comb/split round-trip",
        "comb_marked",
        (MarkedWord((1, 2), frozenset({1})), MarkedWord((3,))),
        MarkedSepPermutation(Permutation((1, 3, 2))),
        id="comb_marked",
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

    def off(n, part, parts):
        tallies = real(n, part, parts)
        if n == 4:
            tallies["horizontal"][1] += 1
        return tallies

    monkeypatch.setattr(verify, "_sweep_part", off)


def _mark_lost_in_the_split(monkeypatch):
    # The split of [132] with its vertical separator marked drops the
    # mark, and the comb that follows gives the marked permutation back,
    # so the round trip holds and only the count of marks is off.
    marked = verify.comb_marked(MarkedWord((1, 2), frozenset({1})), MarkedWord((3,)))
    real_split, real_comb = verify.split_marked, verify.comb_marked
    last = []

    def split(msp):
        last[:] = [msp]
        odd, even = real_split(msp)
        return (MarkedWord(odd.values), even) if msp == marked else (odd, even)

    def comb(odd, even):
        return marked if last[0] == marked else real_comb(odd, even)

    monkeypatch.setattr(verify, "split_marked", split)
    monkeypatch.setattr(verify, "comb_marked", comb)


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
    # The walk builds what it can vouch for unchecked. encode_marked and
    # comb still check each word they are handed: one per marking of the
    # bonds (3,496) and of the vertical separators (2,666) of S_<=6, and
    # max_separator_perms checks its 1 + 2 patterns (README's figure).
    calls = Counter()
    for cls in (Permutation, MarkedWord, ArrowedComposition, MarkedSepPermutation):

        def init(self, *args, _real=cls.__init__, _name=cls.__name__):
            calls[_name] += 1
            _real(self, *args)

        monkeypatch.setattr(cls, "__init__", init)
    checks, _ = run_check_suite(8, threads=1)
    assert all(c.passed for c in checks)
    assert calls == {"Permutation": 3496 + 2666 + 3}
