import itertools
import re

import pytest

from sepstat import config, transfer
from sepstat.exhaustive import (
    EXPECTATION_KINDS,
    KINDS,
    _mean,
    expectation_formula,
    sweep,
)
from sepstat.separators import VerificationError, separator_masks
from sepstat.series import bond_gf, coeff, vertical_sep_gf


@pytest.mark.parametrize("n", range(9))
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


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("kind", EXPECTATION_KINDS)
def test_transfer_means_equal_formulas_past_the_sweep(n, kind):
    assert _mean(n, transfer.distribution(n, kind)) == expectation_formula(n, kind)


def test_transfer_cap_is_checked_before_any_work(monkeypatch):
    def no_work(n):
        raise AssertionError("the window tables were built")

    monkeypatch.setattr(transfer, "_window_events", no_work)
    with pytest.raises(ValueError, match=f"cap {config.MAX_TRANSFER_N}"):
        transfer.distribution(config.MAX_TRANSFER_N + 1, "vertical")
    with pytest.raises(ValueError, match="n must be >= 0"):
        transfer.distribution(-1, "vertical")
    with pytest.raises(ValueError, match="unknown kind"):
        transfer.distribution(3, "diagonal")


def test_transfer_ignores_the_sweep_cap(monkeypatch):
    monkeypatch.setenv(config.ENV_MAX_N, "3")
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
    "kind, table, window",
    [
        ("bonds", 2, (2, 3)),  # the bond (1, 2) is an event, (2, 3) is not
        ("bonds", 2, (1, 3)),  # an event past the clamp at distance 2
        ("horizontal", 1, (2, 4)),
        ("vertical", 0, (2, 4, 3)),
    ],
)
def test_transfer_rejects_events_that_are_not_translation_invariant(
    monkeypatch, kind, table, window
):
    _flip_window(monkeypatch, table, window)
    with pytest.raises(VerificationError, match=rf"window {re.escape(str(window))}"):
        transfer.distribution(5, kind)


@pytest.mark.parametrize("kind", ["both", "any"])
@pytest.mark.parametrize(
    "table, window",
    [
        (0, (2, 4, 3)),  # 4 is vertical here but not in (4, 2, 3)
        (1, (2, 4)),  # 3 is horizontal here but not 3 by (4, 2)
    ],
)
def test_flag_pass_rejects_events_that_break_the_complement_symmetry(
    monkeypatch, kind, table, window
):
    _flip_window(monkeypatch, table, window)
    with pytest.raises(VerificationError, match=rf"window {re.escape(str(window))}"):
        transfer.distribution(5, kind)


def _flip_window(monkeypatch, table, window):
    """Patch ``_window_events`` to flip the event of one window in the
    table at index ``table`` (0 vflag, 1 mid, 2 bond)."""
    real = transfer._window_events

    def flipped(n):
        tables = real(n)
        row = tables[table]
        for v in window[:-1]:
            row = row[v]
        row[window[-1]] = not row[window[-1]]
        return tables

    monkeypatch.setattr(transfer, "_window_events", flipped)


def _complement_mask(mask: int, n: int) -> int:
    return sum(1 << (n + 1 - v) for v in range(1, n + 1) if mask >> v & 1)


@pytest.mark.parametrize("n", range(7))
def test_complement_symmetry_behind_the_halved_pass(n):
    # the `both`/`any` pass starts from first entries up to (n + 1) / 2
    # and folds every layer onto the smaller of each state and its
    # complement; on whole words, the complement x -> n + 1 - x keeps
    # every statistic (the pass checks the window tables itself)
    for word in itertools.permutations(range(1, n + 1)):
        vm, hm, b = separator_masks(word)
        cvm, chm, cb = separator_masks(tuple(n + 1 - x for x in word))
        assert (_complement_mask(vm, n), _complement_mask(hm, n), b) == (cvm, chm, cb)
