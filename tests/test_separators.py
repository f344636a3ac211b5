import copy
import itertools
import pickle
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from sepstat.perms import (
    Direction,
    Permutation,
    bonds,
    children,
    comb,
    delete_and_standardize,
    inflate,
    inverse,
    is_king,
    parse_permutation,
    reverse,
    standardize,
)
from sepstat.separators import (
    ArrowedComposition,
    MarkedSepPermutation,
    MarkedWord,
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
    subsets,
)
from sepstat.series import bond_marked_gf, coeff, vertical_marked_gf

UP, DOWN, NONE = Direction.UP, Direction.DOWN, Direction.NONE


def all_perms(n):
    return (Permutation(w) for w in itertools.permutations(range(1, n + 1)))


def bits(values):
    return sum(1 << v for v in values)


def reference_masks(word):
    """The two separator conditions read off the position array: b is
    vertical when its positional neighbours differ by 1, and a is
    horizontal when a-1 and a+1 sit in adjacent positions."""
    n = len(word)
    pos = [0] * (n + 1)
    for i, v in enumerate(word):
        pos[v] = i
    vmask = 0
    for i in range(1, n - 1):
        if abs(word[i - 1] - word[i + 1]) == 1:
            vmask |= 1 << word[i]
    hmask = 0
    for a in range(2, n):
        if abs(pos[a - 1] - pos[a + 1]) == 1:
            hmask |= 1 << a
    return vmask, hmask


@st.composite
def perms_up_to_30(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


# ---------------------------------------------------------------------------
# Separator sets


@given(perms_up_to_30())
def test_separator_masks_match_position_array_form(p):
    vm, hm, b = separator_masks(p.entries)
    assert (vm, hm) == reference_masks(p.entries)
    assert b == len(bonds(p.entries))


@given(perms_up_to_30())
def test_separator_positions_are_values_through_inverse(p):
    where = inverse(p).entries
    vm, hm, _ = separator_masks(p.entries)
    rep = separator_report(p)
    assert position_mask(p.entries, vm) == bits(where[a - 1] for a in rep.vertical)
    assert position_mask(p.entries, hm) == bits(where[a - 1] for a in rep.horizontal)
    assert position_mask(p.entries, vm) == bits(
        i for i in range(1, p.n + 1) if p.entries[i - 1] in rep.vertical
    )


def test_vertical_separators_worked_example():
    p = parse_permutation("132465879")
    assert separator_report(p).vertical == {3, 2, 6, 7}


def test_identity_has_no_separators():
    # plenty of 2-blocks, but deleting any digit only reproduces a
    # block that was already there
    rep = separator_report(Permutation(tuple(range(1, 6))))
    assert rep.vertical == frozenset()
    assert rep.horizontal == frozenset()


def test_vertical_separator_new_block_case():
    assert 4 in separator_report(parse_permutation("567139482")).vertical


def test_horizontal_separators_worked_example():
    p = parse_permutation("132465879")
    assert separator_report(p).horizontal == {3, 2, 5, 8}


def test_horizontal_separators_small():
    rep = separator_report(parse_permutation("31524"))
    assert 3 in rep.horizontal
    assert 2 in rep.horizontal and 2 in rep.vertical
    assert separator_report(parse_permutation("123")).horizontal == frozenset()


def test_separator_report_31524():
    rep = separator_report(parse_permutation("31524"))
    assert rep.vertical == {5, 2}
    assert rep.horizontal == {3, 2}
    assert rep.both == {2}
    # union of {5,2} and {3,2}
    assert rep.sep_count == 3


def test_separator_report_all_digits():
    assert separator_report(parse_permutation("2413")).sep_count == 4
    rep = separator_report(parse_permutation("321"))
    assert rep.vertical == rep.horizontal == frozenset()
    assert rep.sep_count == 0


@pytest.mark.parametrize("n", range(7))
def test_report_internal_consistency(n):
    for p in all_perms(n):
        rep = separator_report(p)
        assert rep.both == rep.vertical & rep.horizontal
        assert rep.sep_count == len(rep.vertical | rep.horizontal)


@pytest.mark.parametrize("n", range(7))
def test_boundary_rule(n):
    # 1 and n can only be vertical; the first and last digits can only
    # be horizontal
    for p in all_perms(n):
        rep = separator_report(p)
        h = rep.horizontal
        assert 1 not in h and (n not in h or n == 0)
        v = rep.vertical
        if n:
            assert p.entries[0] not in v and p.entries[-1] not in v


@pytest.mark.parametrize("n", range(7))
def test_inverse_duality(n):
    for p in all_perms(n):
        vm, hm, _ = separator_masks(p.entries)
        dual = separator_report(inverse(p))
        assert bits(dual.horizontal) == position_mask(p.entries, vm)
        assert bits(dual.vertical) == position_mask(p.entries, hm)
        assert len(separator_report(p).vertical) == len(dual.horizontal)


@pytest.mark.parametrize("n", range(7))
def test_reverse_invariance(n):
    for p in all_perms(n):
        rep, rev = separator_report(p), separator_report(reverse(p))
        assert rep.vertical == rev.vertical
        assert rep.horizontal == rev.horizontal


# ---------------------------------------------------------------------------
# Separator-free permutations vs the knight oracle


def test_is_separator_free_examples():
    assert separator_count(parse_permutation("123")) == 0
    assert separator_count(parse_permutation("132")) != 0
    assert not has_knight_pair((1, 2, 3))


def test_knight_counts_match_in_s4():
    by_sets = sum(separator_count(p) == 0 for p in all_perms(4))
    by_knight = sum(not has_knight_pair(p.entries) for p in all_perms(4))
    assert by_sets == by_knight


@pytest.mark.parametrize("n", range(8))
def test_knight_equivalence(n):
    for p in all_perms(n):
        assert (separator_count(p) == 0) == (not has_knight_pair(p.entries))


@pytest.mark.parametrize("n", range(1, 8))
def test_king_downset(n):
    for p in all_perms(n):
        if is_king(p):
            kings = sum(1 for c in children(p) if is_king(c))
            assert kings == n - separator_count(p)


@pytest.mark.parametrize("n", range(1, 8))
def test_separator_deletion_creates_fresh_block(n):
    # deleting any separator produces a bond between entries whose
    # preimages were not already an adjacent bonded pair
    for p in all_perms(n):
        rep = separator_report(p)
        for value in rep.vertical | rep.horizontal:
            pos = p.entries.index(value) + 1
            child = tuple(
                v - 1 if v > value else v
                for v in p.entries[: pos - 1] + p.entries[pos:]
            )
            fresh = False
            for j in range(len(child) - 1):
                if abs(child[j] - child[j + 1]) != 1:
                    continue
                a = j if j < pos - 1 else j + 1  # preimage positions, 0-based
                b = j + 1 if j + 1 < pos - 1 else j + 2
                was_bond = b == a + 1 and abs(p.entries[a] - p.entries[b]) == 1
                if not was_bond:
                    fresh = True
            assert fresh, (p, value)


def test_literal_deletion_definition_on_every_digit_of_s_le_7():
    # The definition read literally: x separates when the child left by
    # deleting it has more bonds than survive from p. Bonds not touching
    # x survive, and so does a join through a run interior (both of x's
    # adjacencies bonds, as 2 in 123): it continues the run, no new block.
    digits = 0
    for n in range(1, 8):
        for p in all_perms(n):
            joints = bonds(p)
            rep = separator_report(p)
            separators = rep.vertical | rep.horizontal
            for pos, x in enumerate(p.entries, 1):
                touching = len({pos - 1, pos} & joints)
                surviving = len(joints) - touching + (touching == 2)
                child = delete_and_standardize(p, pos)
                assert (len(bonds(child)) > surviving) == (x in separators), (p, x)
                digits += 1
    assert digits == 40319


# ---------------------------------------------------------------------------
# Marked words and arrowed compositions


def test_marked_word_rejects_non_bond():
    with pytest.raises(ValueError, match="not a bond"):
        MarkedWord((1, 3, 2), frozenset({1}))
    MarkedWord((1, 3, 2), frozenset({2}))  # 3,2 is a bond


def test_word_bonds_uses_word_values():
    # halves of a permutation keep their original values
    assert bonds((2, 1, 6, 5, 9)) == {1, 3}


def test_arrowed_composition_validation():
    with pytest.raises(ValueError):
        ArrowedComposition(((2, Direction.NONE),))
    with pytest.raises(ValueError):
        ArrowedComposition(((1, Direction.UP),))
    comp = ArrowedComposition(((1, NONE), (3, DOWN)))
    assert sum(size for size, _ in comp.parts) == 4 and len(comp.parts) == 2


def test_arrowed_compact_roundtrip():
    comp = ArrowedComposition(
        ((1, NONE), (2, UP), (1, NONE), (1, NONE), (3, DOWN), (1, NONE))
    )
    assert comp.compact() == "1,2↑,1,1,3↓,1"


def test_encode_marked_worked_example():
    mw = MarkedWord((2, 4, 5, 6, 1, 9, 8, 7, 3), frozenset({2, 6, 7}))
    comp, sigma = encode_marked(mw)
    assert comp == ArrowedComposition(
        ((1, NONE), (2, UP), (1, NONE), (1, NONE), (3, DOWN), (1, NONE))
    )
    assert sigma == parse_permutation("245163")


def test_encode_unmarked_is_trivial():
    p = parse_permutation("2413")
    comp, sigma = encode_marked(MarkedWord(p.entries))
    assert comp == ArrowedComposition(((1, NONE),) * 4)
    assert sigma == p


def test_decode_marked_worked_example():
    comp = ArrowedComposition(
        ((1, NONE), (3, DOWN), (1, NONE), (1, NONE), (2, UP))
    )
    mw = decode_marked(comp, parse_permutation("34215"))
    assert mw.values == (3, 6, 5, 4, 2, 1, 7, 8)
    assert mw.marked == {2, 3, 7}


def test_decode_fully_marked_identity():
    mw = decode_marked(ArrowedComposition(((5, UP),)), parse_permutation("1"))
    assert mw.values == (1, 2, 3, 4, 5)
    assert mw.marked == {1, 2, 3, 4}
    single = decode_marked(ArrowedComposition(((1, NONE),)), parse_permutation("1"))
    assert single.values == (1,) and not single.marked


def test_decode_part_count_mismatch():
    with pytest.raises(ValueError):
        decode_marked(ArrowedComposition(((1, NONE),) * 2), parse_permutation("1"))


@pytest.mark.parametrize("n", range(7))
def test_encode_decode_roundtrip(n):
    for p in all_perms(n):
        for mw in enumerate_markings(p):
            comp, sigma = encode_marked(mw)
            assert sum(size for size, _ in comp.parts) == n
            assert decode_marked(comp, sigma) == mw


# ---------------------------------------------------------------------------
# Marked combs


def test_comb_marked_worked_example():
    msp = comb_marked(
        MarkedWord((3, 6, 5, 4), frozenset({2, 3})),
        MarkedWord((2, 1, 7, 8), frozenset({3})),
    )
    assert msp.perm == Permutation((3, 2, 6, 1, 5, 7, 4, 8))
    assert msp.marked_sep_positions == {4, 6, 7}


def test_comb_marked_second_example():
    msp = comb_marked(
        MarkedWord((2, 3, 1, 6), frozenset({1})),
        MarkedWord((5, 4, 7), frozenset({1})),
    )
    assert msp.perm == Permutation((2, 5, 3, 4, 1, 7, 6))
    assert msp.marked_sep_positions == {2, 3}


def test_comb_marked_unmarked_halves():
    msp = comb_marked(MarkedWord((2, 1, 6, 5, 9)), MarkedWord((7, 8, 3, 4)))
    assert msp.marked_sep_positions == frozenset()


def test_split_marked_worked_example():
    msp = MarkedSepPermutation(
        Permutation((2, 7, 1, 8, 6, 3, 5, 4, 9)), frozenset({3, 6})
    )
    odd, even = split_marked(msp)
    assert odd == MarkedWord((2, 1, 6, 5, 9), frozenset({3}))
    assert even == MarkedWord((7, 8, 3, 4), frozenset({1}))


def test_marked_sep_permutation_rejects_bad_position():
    with pytest.raises(ValueError, match="not a vertical separator"):
        MarkedSepPermutation(parse_permutation("12345"), frozenset({3}))


# [132465879] has vertical separators at positions 2, 3, 5 and 8
@pytest.mark.parametrize("i", [0, -1, 10, 4])
def test_marked_sep_permutation_rejects_each_non_separator_position(i):
    p = parse_permutation("132465879")
    MarkedSepPermutation(p, frozenset({2, 3, 5, 8}))
    message = f"^position {i} is not a vertical separator position$"
    with pytest.raises(ValueError, match=message):
        MarkedSepPermutation(p, frozenset({2, i}))


@pytest.mark.parametrize("n", range(7))
def test_comb_split_marked_roundtrip_and_conservation(n):
    for p in all_perms(n):
        legal = position_mask(p.entries, separator_masks(p.entries)[0])
        positions = [i for i in range(1, p.n + 1) if legal >> i & 1]
        for mask in range(1 << len(positions)):
            chosen = frozenset(
                pos for i, pos in enumerate(positions) if mask >> i & 1
            )
            msp = MarkedSepPermutation(p, chosen)
            odd, even = split_marked(msp)
            assert len(chosen) == len(odd.marked) + len(even.marked)
            assert comb_marked(odd, even) == msp


# ---------------------------------------------------------------------------
# Producers that build their results unchecked, and outside input


_BLOCKS = (Permutation((1,)), Permutation((2, 1)), Permutation((1, 3, 2)))


def unchecked_results(p):
    """Every permutation that a producer builds from p without the
    constructor's check."""
    out = [inverse(p), reverse(p), standardize(p.entries)]
    if p.n:
        out += children(p)
        out += [delete_and_standardize(p, i) for i in range(1, p.n + 1)]
        out.append(inflate(p, [_BLOCKS[i % 3] for i in range(p.n)]))
        out.append(inflate(Permutation((2, 1)), [p, p]))
    for mw in enumerate_markings(p):
        comp, sigma = encode_marked(mw)
        back = decode_marked(comp, sigma)
        assert type(back.values) is tuple
        out += [sigma, Permutation(back.values)]  # decode's word, from inflate
    return out


def assert_as_if_checked(q):
    checked = Permutation(list(q.entries))
    assert type(q) is Permutation and type(q.entries) is tuple
    assert checked == q and hash(checked) == hash(q)
    assert eval(repr(q), {"Permutation": Permutation}) == q


@pytest.mark.parametrize("n", range(7))
def test_unchecked_results_cannot_be_told_apart_exhaustive(n):
    for p in all_perms(n):
        for q in unchecked_results(p):
            assert_as_if_checked(q)


@given(st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))))
def test_unchecked_results_cannot_be_told_apart_random(word):
    for q in unchecked_results(Permutation(word)):
        assert_as_if_checked(q)


def marked_results(p):
    """Every marked object that a producer builds from p, or from the
    markings of p and of its vertical separators, without the
    constructor's check."""
    out = []
    for mw in enumerate_markings(p):
        comp, sigma = encode_marked(mw)
        out += [mw, comp, decode_marked(comp, sigma)]
    vpos = position_mask(p.entries, separator_masks(p.entries)[0])
    for subset in subsets(vpos):
        odd, even = split_marked(MarkedSepPermutation(p, subset))
        out += [odd, even, comb_marked(odd, even)]
    return out


def assert_marked_as_if_checked(obj):
    if type(obj) is MarkedWord:
        assert type(obj.values) is tuple and type(obj.marked) is frozenset
        checked = MarkedWord(obj.values, obj.marked)
    elif type(obj) is ArrowedComposition:
        assert type(obj.parts) is tuple
        assert all(type(part) is tuple for part in obj.parts)
        checked = ArrowedComposition(obj.parts)
    else:
        assert type(obj) is MarkedSepPermutation
        assert type(obj.marked_sep_positions) is frozenset
        assert_as_if_checked(obj.perm)
        checked = MarkedSepPermutation(obj.perm, obj.marked_sep_positions)
    assert checked == obj and hash(checked) == hash(obj)
    assert repr(checked) == repr(obj)


@pytest.mark.parametrize("n", range(7))
def test_unchecked_marked_results_cannot_be_told_apart(n):
    for p in all_perms(n):
        for obj in marked_results(p):
            assert_marked_as_if_checked(obj)


@pytest.mark.parametrize(
    "record, names",
    [
        (Permutation((3, 1, 2)), ["entries"]),
        (MarkedWord((2, 1, 3), frozenset({1})), ["values", "marked"]),
        (ArrowedComposition(((1, NONE), (2, UP))), ["parts"]),
        (
            MarkedSepPermutation(Permutation((1, 3, 2, 4)), frozenset({2})),
            ["perm", "marked_sep_positions"],
        ),
    ],
    ids=["Permutation", "MarkedWord", "ArrowedComposition", "MarkedSepPermutation"],
)
def test_record_contract(record, names):
    fields = tuple(getattr(record, name) for name in names)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert record != fields and fields != record
    twin = type(record)(*fields)
    assert twin == record and hash(twin) == hash(record)
    # the unchecked constructor sets the same fields through the slots
    trusted = type(record)._trusted(*fields)
    assert type(trusted) is type(record) and trusted == twin and twin == trusted
    assert hash(trusted) == hash(twin) and repr(trusted) == repr(twin)
    with pytest.raises(AttributeError):
        setattr(trusted, names[0], fields[0])
    for back in pickle.loads(pickle.dumps(record)), copy.copy(record):
        assert back == record and repr(back) == repr(record)
    if type(record) is not Permutation:
        with pytest.raises(TypeError):
            record < twin
        return
    p, q = record, Permutation((3, 2, 1))
    assert p < q and p <= q and q > p and q >= p
    assert p <= p and p >= p and not p < p and not p > p
    perms = [q, Permutation((2, 1)), p, Permutation(()), Permutation((1, 2, 3))]
    assert sorted(perms) == sorted(perms, key=lambda perm: perm.entries)
    with pytest.raises(TypeError):
        p < p.entries


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: encode_marked(MarkedWord((1, 5))), "value 5 outside 1..2"),
        (lambda: comb((1, 4), (2,)), "value 4 outside 1..3"),
        (
            lambda: comb_marked(MarkedWord((1, 4)), MarkedWord((2,))),
            "value 4 outside 1..3",
        ),
        (lambda: MarkedWord((2, 1, 2)), "marked word values must be distinct"),
        (lambda: MarkedWord((0, 1)), "marked word values must be positive"),
        (
            lambda: MarkedWord((1, 3, 2), frozenset({1})),
            "marked index 1 is not a bond of the word",
        ),
        (
            lambda: ArrowedComposition(((2, NONE),)),
            "part of size 2 must carry an arrow iff size > 1",
        ),
        (lambda: ArrowedComposition(((0, NONE),)), "composition part 0 must be >= 1"),
        (
            lambda: ArrowedComposition(((2, "down"),)),
            "part direction 'down' is not a Direction",
        ),
        (
            lambda: ArrowedComposition(((True, NONE),)),
            "part size True is not an integer",
        ),
        (
            lambda: MarkedWord((1.0, 2.0), {1}),
            "marked word values must be integers, got 1.0",
        ),
        (lambda: MarkedWord((True, 2)), "marked word values must be integers, got True"),
        (
            lambda: MarkedSepPermutation((2, 1.0, 3), {2}),
            "permutation entries must be integers, got 1.0",
        ),
        (
            lambda: MarkedSepPermutation(Permutation((1, 3, 2)), frozenset({1})),
            "position 1 is not a vertical separator position",
        ),
        (
            lambda: MarkedWord((1, 2), {1.0}),
            "marked index 1.0 is not an integer",
        ),
        (lambda: MarkedWord((1, 2), {True}), "marked index True is not an integer"),
        (
            lambda: MarkedSepPermutation(Permutation((1, 3, 2, 4)), {2.0}),
            "marked separator position 2.0 is not an integer",
        ),
        (
            lambda: decode_marked(
                ArrowedComposition(((1, NONE),) * 2), Permutation((1,))
            ),
            "permutation of 1 runs does not match 2 composition parts",
        ),
    ],
    ids=[
        "encode_marked",
        "comb",
        "comb_marked",
        "MarkedWord-duplicate",
        "MarkedWord-nonpositive",
        "MarkedWord-non-bond",
        "ArrowedComposition-arrow",
        "ArrowedComposition-size",
        "ArrowedComposition-direction-type",
        "ArrowedComposition-size-type",
        "MarkedWord-float",
        "MarkedWord-bool",
        "MarkedSepPermutation-perm",
        "MarkedSepPermutation",
        "MarkedWord-float-mark",
        "MarkedWord-bool-mark",
        "MarkedSepPermutation-float-mark",
        "decode_marked-size",
    ],
)
def test_outside_input_is_still_checked(call, message):
    # words that are only distinct and positive are no permutation
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def round_trip(obj):
    """``obj`` through the paper's bijection that starts from its class
    and back."""
    if isinstance(obj, MarkedWord):
        return decode_marked(*encode_marked(obj))
    if isinstance(obj, ArrowedComposition):
        sigma = Permutation(range(1, len(obj.parts) + 1))
        return encode_marked(decode_marked(obj, sigma))[0]
    return comb_marked(*split_marked(obj))


@pytest.mark.parametrize(
    "make, twin",
    [
        (lambda: MarkedWord([2, 1]), MarkedWord((2, 1))),
        (lambda: MarkedWord([2, 1, 3], {1}), MarkedWord((2, 1, 3), frozenset({1}))),
        (lambda: MarkedWord((1, 2), {1}), MarkedWord((1, 2), frozenset({1}))),
        (lambda: ArrowedComposition([(1, NONE)]), ArrowedComposition(((1, NONE),))),
        (
            lambda: ArrowedComposition([[2, UP], [1, NONE]]),
            ArrowedComposition(((2, UP), (1, NONE))),
        ),
        (
            lambda: MarkedSepPermutation(Permutation((1, 3, 2, 4)), {2}),
            MarkedSepPermutation(Permutation((1, 3, 2, 4)), frozenset({2})),
        ),
        (
            lambda: MarkedSepPermutation((2, 1, 3), {2}),
            MarkedSepPermutation(Permutation((2, 1, 3)), frozenset({2})),
        ),
    ],
    ids=[
        "MarkedWord-list",
        "MarkedWord-list-set",
        "MarkedWord-set",
        "ArrowedComposition-list",
        "ArrowedComposition-list-of-lists",
        "MarkedSepPermutation-set",
        "MarkedSepPermutation-tuple",
    ],
)
def test_outside_input_is_stored_as_tuples_and_frozensets(make, twin):
    # as Permutation([3, 1, 2]) is Permutation((3, 1, 2)): a marked object
    # built from lists and sets equals its tuple/frozenset twin, hashes as
    # it does and comes back from the paper's round-trip
    obj = make()
    assert obj == twin and hash(obj) == hash(twin)
    assert round_trip(obj) == obj
    assert repr(obj) == repr(twin)


# ---------------------------------------------------------------------------
# The two bijections are onto: every pair on the counted side arises


def arrowed_compositions(n):
    """Every arrowed composition of n, as its tuple of parts."""
    if n == 0:
        yield ()
    for size in range(1, n + 1):
        for direction in (NONE,) if size == 1 else (UP, DOWN):
            for rest in arrowed_compositions(n - size):
                yield ((size, direction),) + rest


def markings(values):
    """Every marking of a word's bonds, built through the checked
    constructor."""
    return [MarkedWord(values, s) for s in subsets(bits(bonds(values)))]


@pytest.mark.parametrize("n", range(7))
def test_decode_is_onto_the_arrowed_compositions(n):
    # every (composition, sigma) pair is the encoding of a marked
    # permutation, so the pairs count the marked permutations by marks
    by_marks = Counter()
    for parts in arrowed_compositions(n):
        comp = ArrowedComposition(parts)
        for sigma in all_perms(len(parts)):
            mw = decode_marked(comp, sigma)
            assert encode_marked(mw) == (comp, sigma)
            by_marks[len(mw.marked)] += 1
    want = coeff(bond_marked_gf(6), n).coeffs
    assert by_marks == Counter(dict(enumerate(want)))


@pytest.mark.parametrize("n", range(7))
def test_comb_is_onto_the_pairs_of_marked_halves(n):
    # every pair of marked halves, the odd one the longer, is the split
    # of a permutation with marked vertical separators
    by_marks = Counter()
    for odd_set in itertools.combinations(range(1, n + 1), (n + 1) // 2):
        even_set = sorted(set(range(1, n + 1)) - set(odd_set))
        for odd_values in itertools.permutations(odd_set):
            for even_values in itertools.permutations(even_set):
                for odd in markings(odd_values):
                    for even in markings(even_values):
                        q = comb_marked(odd, even)
                        # the checked constructor: each marked half-bond
                        # lands on a vertical separator
                        assert MarkedSepPermutation(
                            q.perm, q.marked_sep_positions
                        ) == q
                        assert split_marked(q) == (odd, even)
                        by_marks[len(q.marked_sep_positions)] += 1
    want = coeff(vertical_marked_gf(6), n).coeffs
    assert by_marks == Counter(dict(enumerate(want)))
