"""Acceptance gate: every criterion at its stated bound, exact
integer/rational equality throughout (zero tolerance anywhere).

Run with `pytest -s tests/test_acceptance.py` to see one labeled
pass/fail line per criterion.
"""

import itertools
from fractions import Fraction
from math import factorial

from sepstat.exhaustive import (
    EXPECTATION_KINDS,
    _mean,
    expectation_formula,
    max_separator_perms,
    sweep,
)
from sepstat.perms import (
    Permutation,
    bonds,
    children,
    inverse,
    is_king,
    reverse,
)
from sepstat.separators import (
    MarkedSepPermutation,
    comb_marked,
    decode_marked,
    encode_marked,
    enumerate_markings,
    has_knight_pair,
    position_mask,
    separator_count,
    separator_masks,
    separator_report,
    split_marked,
)
from sepstat.series import MarkerPoly, bond_gf, coeff, vertical_sep_gf
from sepstat.transfer import distribution


def _criterion(label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _sn(n):
    """The n! permutations of {1..n}, in lexicographic order."""
    return (Permutation(w) for w in itertools.permutations(range(1, n + 1)))


def _series_row(series, n):
    return {m: c for m, c in enumerate(coeff(series, n).coeffs) if c}


def test_criterion_1_gf_oracle_equivalence():
    h = vertical_sep_gf(8)
    ok = all(
        _series_row(h, n) == dict(sweep(n)["vertical"]) for n in range(9)
    )
    _criterion("1 series/enumeration equivalence (vertical, n <= 8)", ok)


def test_criterion_2_bond_gf_equivalence():
    b = bond_gf(8)
    ok = all(_series_row(b, n) == dict(sweep(n)["bonds"]) for n in range(9))
    from sepstat.series import bond_marked_gf

    ok = ok and coeff(bond_marked_gf(3), 3) == MarkerPoly((6, 8, 2))
    _criterion("2 bond series equivalence (n <= 8) and marked z^3 row", ok)


def test_criterion_3_max_separator_theorem():
    ok = True
    for n in range(1, 9):
        full = {p.entries for p in _sn(n) if separator_count(p) == n}
        if n % 4:
            ok = ok and not full
        else:
            k = n // 4
            built = {p.entries for p in max_separator_perms(k)}
            ok = ok and len(full) == (2**k) * factorial(k) and full == built
            if n == 4:
                ok = ok and full == {(3, 1, 4, 2), (2, 4, 1, 3)}
            if n == 8:
                ok = ok and len(full) == 8
    _criterion("3 all-digits-separate count 2^(n/4)(n/4)! (n <= 8)", ok)


def test_criterion_4_expectation_theorems():
    ok = expectation_formula(4, "vertical") == 1
    ok = ok and expectation_formula(4, "both") == Fraction(1, 6)
    ok = ok and expectation_formula(4, "any") == Fraction(11, 6)
    for n in range(3, 9):
        for kind in EXPECTATION_KINDS:
            ok = ok and expectation_formula(n, kind) == _mean(n, distribution(n, kind))
    for n in itertools.chain(range(3, 500), (10**6, 10**9 + 7)):
        lhs = expectation_formula(n, "any")
        rhs = 2 * expectation_formula(n, "vertical") - expectation_formula(n, "both")
        ok = ok and lhs == rhs
    _criterion("4 expectation formulas, exact equality (3 <= n <= 8)", ok)


def test_criterion_5_duality_suite():
    ok = True
    for n in range(8):
        for p in _sn(n):
            vm, hm, _ = separator_masks(p.entries)
            rep = separator_report(p)
            # the values of the inverse are the positions of p
            dual = separator_report(inverse(p))
            vpos, hpos = position_mask(p.entries, vm), position_mask(p.entries, hm)
            ok = ok and sum(1 << a for a in dual.horizontal) == vpos
            ok = ok and sum(1 << a for a in dual.vertical) == hpos
            rev = separator_report(reverse(p))
            ok = ok and rep.vertical == rev.vertical
            ok = ok and rep.horizontal == rev.horizontal
    _criterion("5 inverse duality and reverse invariance (n <= 7)", ok)


def test_criterion_6_king_downset():
    ok = True
    for n in range(1, 8):
        for p in _sn(n):
            kids = children(p)
            ok = ok and len(kids) == n - len(bonds(p))
            if is_king(p):
                kings = sum(1 for c in kids if is_king(c))
                ok = ok and kings == n - separator_count(p)
    _criterion("6 children counts and king downsets (n <= 7)", ok)


def test_criterion_7_marked_round_trips():
    ok = True
    for n in range(7):
        for p in _sn(n):
            for mw in enumerate_markings(p):
                comp, sigma = encode_marked(mw)
                ok = ok and decode_marked(comp, sigma) == mw
            legal = position_mask(p.entries, separator_masks(p.entries)[0])
            positions = [i for i in range(1, n + 1) if legal >> i & 1]
            for mask in range(1 << len(positions)):
                chosen = frozenset(
                    pos for i, pos in enumerate(positions) if mask >> i & 1
                )
                msp = MarkedSepPermutation(p, chosen)
                odd, even = split_marked(msp)
                ok = ok and comb_marked(odd, even) == msp
                ok = ok and len(chosen) == len(odd.marked) + len(even.marked)
    _criterion("7 marked encode/decode and comb/split round-trips (n <= 6)", ok)


def test_criterion_8_dual_oracle_separator_free():
    counts = {n: sweep(n)["any"].get(0, 0) for n in range(9)}
    ok = counts[1] == 1 and counts[3] == 2
    for n in range(9):
        words = itertools.permutations(range(1, n + 1))
        ok = ok and counts[n] == sum(1 for w in words if not has_knight_pair(w))
    _criterion("8 separator-free dual-oracle agreement (n <= 8)", ok)


def test_note_convergence_at_formula_level():
    # the asymptotic limits 2 and 4 are unreachable by enumeration;
    # check the formula-level gap bounds instead
    ok = True
    for n in (8, 16, 10**2, 10**4, 10**6):
        gap_v = abs(expectation_formula(n, "vertical") - 2)
        gap_z = abs(expectation_formula(n, "any") - 4)
        ok = ok and gap_v <= Fraction(4, n) and gap_z < Fraction(32, n)
    _criterion("note: expectation convergence bounds (formula level)", ok)
