import itertools
import math
import re

import pytest

from sepstat import config, series, transfer
from sepstat.exhaustive import (
    EXPECTATION_KINDS,
    KINDS,
    _mean,
    expectation_formula,
    sweep,
)
from sepstat.separators import VerificationError, separator_masks
from sepstat.series import bond_gf, coeff, vertical_sep_gf
from sepstat.verify import run_check_suite


@pytest.mark.parametrize("n", range(10))
def test_transfer_equals_sweep(n):
    tables = sweep(n)
    for kind in KINDS:
        assert transfer.distribution(n, kind) == tables[kind], kind


def test_transfer_rows_equal_series_rows():
    order = config.MAX_TRANSFER_N
    h, b = vertical_sep_gf(order), bond_gf(order)
    for n in range(order + 1):
        v_row = {m: c for m, c in enumerate(coeff(h, n).coeffs) if c}
        b_row = {m: c for m, c in enumerate(coeff(b, n).coeffs) if c}
        assert transfer.distribution(n, "vertical") == v_row, n
        assert transfer.distribution(n, "horizontal") == v_row, n
        assert transfer.distribution(n, "bonds") == b_row, n


@pytest.mark.parametrize("n", [9, 10, 11])
@pytest.mark.parametrize("kind", EXPECTATION_KINDS)
def test_transfer_means_equal_formulas_past_the_sweep(n, kind):
    assert _mean(n, transfer.distribution(n, kind)) == expectation_formula(n, kind)


@pytest.mark.parametrize("kind", ["both", "any"])
def test_flag_pass_equals_the_keyed_pass(kind):
    for n in range(2, 12):
        width = math.factorial(n).bit_length() + 1
        expected = _keyed_flag_pass(n, width, kind, _masks_events(n))
        shifts = transfer._flag_shifts(width, kind)
        assert transfer._flag_pass(n, *shifts) == expected, n


def test_check_windows_returns_the_horizontal_mask_of_each_pair():
    # the flag pass reads only the horizontal masks of the pairs (b, c);
    # the vertical flag of b follows from |c - a| = 1 alone
    for n in range(13):
        table = transfer._check_windows(n)
        assert len(table) == n + 1 and all(len(row) == n + 1 for row in table)
        assert not any(table[0]) and not any(row[0] for row in table), n
        for b, c in itertools.permutations(range(1, n + 1), 2):
            assert table[b][c] == separator_masks((b, c))[1], (n, b, c)


@pytest.mark.parametrize("n", [4, 7, 10])
def test_both_peaks_on_one_complementary_pair_when_n_is_1_mod_3(n):
    # the top of `both` is 2(n - 1)/3, reached by 1 followed by the
    # blocks 3j, 3j - 1, 3j + 1 and by its reverse, which is also its
    # complement, and by no other permutation
    top = 2 * (n - 1) // 3
    word = (1,) + tuple(v for j in range(1, (n - 1) // 3 + 1)
                        for v in (3 * j, 3 * j - 1, 3 * j + 1))
    assert sorted(word) == list(range(1, n + 1))
    assert word[::-1] == tuple(n + 1 - x for x in word)
    row = transfer.distribution(n, "both")
    assert max(row) == top and row[top] == 2
    for w in (word, word[::-1]):
        vm, hm, _ = separator_masks(w)
        assert (vm & hm).bit_count() == top, w


@pytest.mark.parametrize("n", [5, 8, 11])
def test_both_peaks_at_two_thirds_of_n_minus_2_when_n_is_2_mod_3(n):
    top = 2 * (n - 2) // 3
    row = transfer.distribution(n, "both")
    assert max(row) == top and row[top] == 8 * (n - 2) // 3


@pytest.mark.parametrize(
    "n, count", [(3, 4), (5, 20), (6, 16), (7, 56), (9, 208), (10, 176), (11, 536)]
)
def test_any_peaks_at_n_minus_1_when_4_does_not_divide_n(n, count):
    row = transfer.distribution(n, "any")
    assert max(row) == n - 1 and row[n - 1] == count


@pytest.mark.parametrize("n, below", [(4, 8), (8, 96)])
def test_any_peaks_at_n_when_4_divides_n(n, below):
    # the top is the paper's 2^k k! permutations, k = n/4, in which every
    # digit separates
    k = n // 4
    row = transfer.distribution(n, "any")
    assert max(row) == n and row[n] == 2 ** k * math.factorial(k)
    assert row[n - 1] == below


@pytest.mark.parametrize("kind", ["both", "any"])
@pytest.mark.parametrize("n", [0, 1])
def test_flag_pass_counts_the_empty_and_the_one_entry_prefix(n, kind):
    # from the empty prefix, with no special case for small n: count 1
    # in slot 0
    width = math.factorial(n).bit_length() + 1
    shifts = transfer._flag_shifts(width, kind)
    assert transfer._flag_pass(n, *shifts) == 1


def _masks_events(n):
    """``events[a][b][c]`` for :func:`_keyed_flag_pass`, read off
    :func:`separator_masks` window by window rather than built from the
    value-distance rule: bit 0 flags b vertical in (a, b, c),
    the rest is the horizontal mask of (b, c); a = 0 is "no entry"."""
    size = n + 1
    events = [[[0] * size for _ in range(size)] for _ in range(size)]
    for b, c in itertools.permutations(range(1, size), 2):
        hm = separator_masks((b, c))[1]
        events[0][b][c] = hm
        for a in range(1, size):
            if a != b and a != c:
                events[a][b][c] = (separator_masks((a, b, c))[0] != 0) | hm
    return events


# Keys pack the used-value mask (bit v for value v) in the low n + 1
# bits, then the last entry b and the one before it, a, in 4 bits each,
# then the two waiting sets; the complement fold orients each whole key.
def _keyed_flag_pass(n, width, kind, events) -> int:
    """The flag pass with one flat table per layer: each key packs the
    used values, the last two entries and both waiting sets, each state
    is set up and expanded on its own, and every layer is built to the
    last. The reference for :func:`transfer._flag_pass`, which expands
    each group of positions that differ only in the entry before the
    last once and folds whole groups; it makes no window checks of its
    own."""
    size = n + 1
    full = (1 << size) - 2
    vals = range(1, size)
    # bit mask of the value neighbours v - 1 and v + 1 in 1..n of each v
    near = [0] + [(1 << v - 1 | 1 << v + 1) & full for v in vals]
    # the unused values of each used mask
    free = [[c for c in vals if not used >> c & 1] for used in range(1 << size)]
    # each value set reversed over 1..n, and the (b, a) byte complemented
    rev = [0] * (1 << size)
    for mask in range(2, 1 << size, 2):
        low = mask & -mask
        rev[mask] = rev[mask ^ low] | (1 << size) // low
    flip = [(size - b if b else 0) | (size - a if a else 0) << 4
            for a in range(16) for b in range(16)]
    first_flag, second_flag = (width, 0) if kind == "any" else (0, width)
    pv_at = size + 8  # values flagged vertical, waiting for horizontal
    ph_at = 2 * size + 8  # values flagged horizontal, waiting for vertical
    cur = {1 << f | f << size: 1 if 2 * f == size else 2
           for f in range(1, size // 2 + 1)}
    for step in range(2, n + 1):
        keymask = -1 if step < n else 0
        nxt: dict[int, int] = {}
        while cur:
            key, poly = cur.popitem()
            used = key & full
            b = key >> size & 15
            erow = events[key >> size + 4 & 15][b]
            pv = key >> pv_at & full
            ph = key >> ph_at
            # A flag waits only while the values it needs are unused now
            # (c, the new last entry, among them); `quiet` is the next key
            # without c's own fields when c flags nothing.
            avail = full ^ used
            pair = avail << 1 & avail >> 1
            quiet = used | (pv & pair) << pv_at | (ph & avail) << ph_at
            # b is kept as the entry before the last while a value
            # neighbour of it other than c is unused.
            waiting = near[b] & ~used
            keep = b << size + 4 if waiting else 0
            lone = waiting.bit_length() - 1 if waiting & waiting - 1 == 0 else 0
            for c in free[used]:
                e = erow[c]
                if e:
                    v2, h2, inc = pv, ph, 0
                    if e & 1:
                        if h2 >> b & 1:
                            h2 ^= 1 << b
                            inc = second_flag
                        else:
                            v2 |= 1 << b
                            inc = first_flag
                    hb = e & ~1
                    if hb:
                        if v2 & hb:
                            v2 ^= hb
                            inc += second_flag
                        else:
                            h2 |= hb
                            inc += first_flag
                    k2 = used | (v2 & pair) << pv_at | (h2 & avail) << ph_at
                    add = poly << inc
                else:
                    k2, add = quiet, poly
                k2 = (k2 | 1 << c | c << size | (0 if c == lone else keep)) & keymask
                nxt[k2] = nxt.get(k2, 0) + add
        if keymask:
            while nxt:
                key, poly = nxt.popitem()
                twin = (rev[key & full] | flip[key >> size & 255] << size
                        | rev[key >> pv_at & full] << pv_at
                        | rev[key >> ph_at] << ph_at)
                if twin < key:
                    key = twin
                cur[key] = cur.get(key, 0) + poly
        else:
            cur = nxt
    return cur.popitem()[1]


def test_transfer_cap_is_checked_before_any_work(monkeypatch):
    def no_work(n):
        raise AssertionError("the windows were checked")

    monkeypatch.setattr(transfer, "_check_windows", no_work)
    with pytest.raises(ValueError, match=f"cap {config.MAX_TRANSFER_N}"):
        transfer.distribution(config.MAX_TRANSFER_N + 1, "vertical")
    with pytest.raises(ValueError, match="n must be >= 0"):
        transfer.distribution(-1, "vertical")
    with pytest.raises(ValueError, match="unknown kind"):
        transfer.distribution(3, "diagonal")


@pytest.mark.parametrize(
    "n, kind, message",
    [
        (4, "any",
         "unknown kind 'any'; choose from ('vertical', 'horizontal', 'bonds')"),
        (4, "both", "unknown kind 'both'"),
        (-1, "bonds", "n must be >= 0, got -1"),
        (-1, "horizontal", "n must be >= 0, got -1"),
        (4.0, "bonds", "n 4.0 is not an integer"),
        (False, "vertical", "n False is not an integer"),
    ],
)
def test_event_row_checks_its_kind_and_n(n, kind, message):
    # unchecked, any kind but bonds would be read as horizontal
    with pytest.raises(ValueError, match=re.escape(message)):
        transfer.event_row(n, kind)


@pytest.mark.parametrize(
    "n, kind",
    [(True, "any"), (9.0, "any"), ("3", "bonds")],  # unchecked, True counts S_1
)
def test_distribution_requires_an_int_n(n, kind):
    with pytest.raises(ValueError, match=re.escape(f"n {n!r} is not an integer")):
        transfer.distribution(n, kind)


# Every entry point that takes a size, the n of S_n or a series order,
# and the name its message gives it. Unchecked, True swept S_1, ran the
# suite at n <= 1 or built a series of order 1, and a float or a string
# raised TypeError.
_SIZED = {
    "sweep": ("n", sweep),
    "run_check_suite": ("n", run_check_suite),
    "expectation_formula": ("n", lambda n: expectation_formula(n, "any")),
    "distribution": ("n", lambda n: transfer.distribution(n, "any")),
    "event_row": ("n", lambda n: transfer.event_row(n, "bonds")),
    "bond_marked_gf": ("order", series.bond_marked_gf),
    "bond_gf": ("order", series.bond_gf),
    "vertical_marked_gf": ("order", series.vertical_marked_gf),
    "vertical_sep_gf": ("order", series.vertical_sep_gf),
    "run_table": ("size", series.run_table),
    "BiSeries": ("order", series.BiSeries),
}


@pytest.mark.parametrize("n", [True, 3.0, "3", -1])
@pytest.mark.parametrize("entry", _SIZED)
def test_every_size_is_checked_alike(entry, n):
    name, build = _SIZED[entry]
    if n == -1:
        message = f"{name} must be >= 0, got -1"
    else:
        message = f"{name} {n!r} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        build(n)


def test_transfer_ignores_the_sweep_cap(monkeypatch):
    monkeypatch.setattr(config, "MAX_SWEEP_N", 3)
    assert sum(transfer.distribution(6, "any").values()) == 720


def test_transfer_checks_every_window_against_the_knight_oracle(monkeypatch):
    real = transfer.has_knight_pair
    monkeypatch.setattr(
        transfer,
        "has_knight_pair",
        lambda window: real(window) != (tuple(window) == (3, 1, 2)),
    )
    with pytest.raises(VerificationError, match=r"window \(3, 1, 2\)"):
        transfer.distribution(3, "bonds")
    assert transfer.distribution(2, "bonds") == {1: 2}  # no triple in S_2


@pytest.mark.parametrize(
    "field, window",
    [
        (2, (2, 3)),  # the bond (1, 2) is an event, (2, 3) is not
        (2, (1, 3)),  # an event past the clamp at distance 2
        (1, (2, 4)),
        (0, (2, 4, 3)),
    ],
)
@pytest.mark.parametrize("kind", KINDS)
def test_transfer_rejects_events_that_are_not_translation_invariant(
    monkeypatch, kind, field, window
):
    _flip_window(monkeypatch, field, window)
    with pytest.raises(VerificationError, match=rf"window {re.escape(str(window))}"):
        transfer.distribution(5, kind)


@pytest.mark.parametrize("kind", ["both", "any"])
@pytest.mark.parametrize(
    "field, window",
    [
        (0, (2, 4, 3)),  # 4 is vertical here but not in (4, 2, 3)
        (1, (2, 4)),  # 3 is horizontal here but not 3 by (4, 2)
    ],
)
def test_flag_pass_rejects_events_that_break_the_complement_symmetry(
    monkeypatch, kind, field, window
):
    # the fold of the flag pass would miscount these; the test above
    # puts the same faults to every kind
    _flip_window(monkeypatch, field, window)
    with pytest.raises(VerificationError, match=rf"window {re.escape(str(window))}"):
        transfer.distribution(5, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_transfer_rejects_a_wrong_midpoint_the_complement_keeps(monkeypatch, kind):
    # (2, 4) flags 2 and (4, 2) flags 4, not 3: the same windows flag
    # something and the fault is its own complement in S_5, so only the
    # midpoint's value is wrong
    real = transfer.separator_masks
    wrong = {(2, 4): 1 << 2, (4, 2): 1 << 4}

    def patched(word):
        vm, hm, bonds = real(word)
        return vm, wrong.get(tuple(word), hm), bonds

    monkeypatch.setattr(transfer, "separator_masks", patched)
    with pytest.raises(VerificationError, match=r"window \(2, 4\)"):
        transfer.distribution(5, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_transfer_names_a_two_entry_window_before_a_three_entry_one(monkeypatch, kind):
    # one loop checks every window, the pairs (a = 0, "no entry") before
    # the triples, though (1, 2, 3) sorts before (5, 4)
    real = transfer.separator_masks

    def patched(word):
        vm, hm, bonds = real(word)
        return vm, hm, bonds + (tuple(word) in ((1, 2, 3), (5, 4)))

    monkeypatch.setattr(transfer, "separator_masks", patched)
    with pytest.raises(VerificationError, match=r"window \(5, 4\)"):
        transfer.distribution(5, kind)


def test_a_window_that_breaks_the_rule_is_named_by_its_masks(monkeypatch):
    # the value-distance rule is checked first: a window that also fools
    # the knight oracle is named by the masks it breaks
    real_masks, real_knight = transfer.separator_masks, transfer.has_knight_pair

    def patched(word):
        vm, hm, bonds = real_masks(word)
        return vm, 1 << 2 if tuple(word) == (2, 4) else hm, bonds

    monkeypatch.setattr(transfer, "separator_masks", patched)
    monkeypatch.setattr(
        transfer,
        "has_knight_pair",
        lambda window: real_knight(window) != (tuple(window) == (2, 4)),
    )
    with pytest.raises(VerificationError) as info:
        transfer.distribution(4, "vertical")
    assert str(info.value) == (
        "separator_masks breaks the value-distance rule on window (2, 4): "
        "(0, 4, 0), not (0, 8, 0)"
    )


def _flip_window(monkeypatch, field, window):
    """Patch ``transfer.separator_masks`` so that one field (0 vertical,
    1 horizontal, 2 bonds) of one window is wrong: 0 where it is set,
    1 where it is 0."""
    real = transfer.separator_masks

    def flipped(word):
        masks = list(real(word))
        if tuple(word) == window:
            masks[field] = int(not masks[field])
        return tuple(masks)

    monkeypatch.setattr(transfer, "separator_masks", flipped)


def _complement_mask(mask: int, n: int) -> int:
    return sum(1 << (n + 1 - v) for v in range(1, n + 1) if mask >> v & 1)


@pytest.mark.parametrize("n", range(7))
def test_complement_symmetry_behind_the_halved_pass(n):
    # every step of the `both`/`any` pass folds each group of positions
    # into its complement group when both are in the layer, expanding
    # one for both; on whole words, the complement x -> n + 1 - x keeps
    # every statistic (the pass checks the window tables itself)
    for word in itertools.permutations(range(1, n + 1)):
        vm, hm, b = separator_masks(word)
        cvm, chm, cb = separator_masks(tuple(n + 1 - x for x in word))
        assert (_complement_mask(vm, n), _complement_mask(hm, n), b) == (cvm, chm, cb)
