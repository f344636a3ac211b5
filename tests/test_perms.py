import itertools
import random
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from sepstat.perms import (
    Direction,
    Permutation,
    Run,
    _child_words,
    bonds,
    children,
    comb,
    comb_split,
    delete_and_standardize,
    format_permutation,
    inflate,
    inverse,
    is_king,
    maximal_runs,
    parse_permutation,
    reverse,
    standardize,
)


def all_perms(n):
    return (Permutation(w) for w in itertools.permutations(range(1, n + 1)))


# ---------------------------------------------------------------------------
# Construction and parsing


def test_permutation_accepts_valid_word():
    p = Permutation((5, 3, 2, 4, 1))
    assert p.entries == (5, 3, 2, 4, 1)
    assert p.n == 5


@pytest.mark.parametrize("entries", [(True, 2), (1.0,), ("1",)])
def test_permutation_rejects_non_integer_entries(entries):
    with pytest.raises(ValueError, match="permutation entries must be integers"):
        Permutation(entries)


def test_permutation_accepts_int_subclass_entries():
    class Rank(IntEnum):
        ONE = 1
        TWO = 2

    assert Permutation((Rank.TWO, Rank.ONE)).entries == (2, 1)


def test_permutation_from_a_list_is_its_tuple_twin():
    # the repr shows a list, and reading it back gives an equal, hashable value
    p = Permutation([3, 1, 2])
    q = Permutation((3, 1, 2))
    assert p.entries == (3, 1, 2)
    assert p == q and hash(p) == hash(q)
    assert {p, q} == {q}
    assert repr(p) == "Permutation([3, 1, 2])" and eval(repr(p)) == p


def test_permutation_empty():
    assert Permutation(()).n == 0


def test_permutation_rejects_duplicate_naming_value():
    with pytest.raises(ValueError, match="duplicate value 1"):
        Permutation((1, 1, 2))


def test_permutation_rejects_out_of_range_naming_value():
    with pytest.raises(ValueError, match="value 4 outside 1..3"):
        Permutation((1, 2, 4))
    with pytest.raises(ValueError, match="value 0"):
        Permutation((0, 1))


def test_indexing_is_one_based():
    # position i holds entries[i - 1]; the position arguments are 1..n
    p = Permutation((5, 3, 2, 4, 1))
    assert p.entries[0] == 5 and p.entries[4] == 1
    assert delete_and_standardize(p, 1) == Permutation((3, 2, 4, 1))
    assert delete_and_standardize(p, 5) == Permutation((4, 2, 1, 3))
    with pytest.raises(IndexError):
        delete_and_standardize(p, 0)
    with pytest.raises(IndexError):
        delete_and_standardize(p, 6)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("53241", (5, 3, 2, 4, 1)),
        ("5 3 2 4 1", (5, 3, 2, 4, 1)),
        ("5,3,2,4,1", (5, 3, 2, 4, 1)),
        ("[5,3,2,4,1]", (5, 3, 2, 4, 1)),
        ("10 2 3 4 5 6 7 8 9 1", (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)),
        ("", ()),
        ("[]", ()),
        ("5, 3, 2, 4, 1", (5, 3, 2, 4, 1)),
    ],
)
def test_parse_permutation(text, expected):
    assert parse_permutation(text).entries == expected


def test_parse_rejects_garbage():
    # int() reads all but the first, but an entry is ASCII digits alone
    for text in (
        "5x3",
        "1_0,2,3,4,5,6,7,8,9,1",
        "\uff13\uff11\uff12",  # fullwidth 312
        "3 \u0661 2",  # an Arabic-Indic 1
        "+2,1",
        "-1,2",
        # an empty field or a space inside one is a typo, not a delimiter
        "3,,1,2",
        "1,,2",
        ",1,2",
        "[1,2,]",
        ",",
        "1 2,3",
    ):
        with pytest.raises(ValueError, match="cannot parse permutation from"):
            parse_permutation(text)


def test_format_roundtrip():
    for text in ("53241", "[]", "1"):
        p = parse_permutation(text)
        assert parse_permutation(format_permutation(p)) == p
    assert str(Permutation(())) == "[]"


# ---------------------------------------------------------------------------
# Bonds and runs


def test_bonds_positions():
    # maximal runs 45, 1, 876, 23 -> bond start positions 1, 4, 5, 7
    p = parse_permutation("45187623")
    assert bonds(p) == frozenset({1, 4, 5, 7})
    assert len(bonds(p)) == 4


def test_bonds_examples():
    assert bonds(parse_permutation("1")) == frozenset()
    assert bonds(parse_permutation("53241")) == frozenset({2})


def test_maximal_runs_example():
    p = parse_permutation("45187623")
    assert maximal_runs(p) == [
        Run(1, 2, Direction.UP),
        Run(3, 1, Direction.NONE),
        Run(4, 3, Direction.DOWN),
        Run(7, 2, Direction.UP),
    ]


def test_maximal_runs_identity():
    p = Permutation(tuple(range(1, 7)))
    assert maximal_runs(p) == [Run(1, 6, Direction.UP)]


def test_maximal_runs_mixed_word():
    p = Permutation((2, 4, 5, 6, 1, 9, 8, 7, 3))
    assert [(r.start, r.length, r.direction) for r in maximal_runs(p)] == [
        (1, 1, Direction.NONE),
        (2, 3, Direction.UP),
        (5, 1, Direction.NONE),
        (6, 3, Direction.DOWN),
        (9, 1, Direction.NONE),
    ]


@pytest.mark.parametrize("n", range(7))
def test_runs_partition_and_count_bonds(n):
    for p in all_perms(n):
        runs = maximal_runs(p)
        assert sum(r.length for r in runs) == n
        assert sum(r.length - 1 for r in runs) == len(bonds(p))
        assert all((r.direction is Direction.NONE) == (r.length == 1) for r in runs)


# ---------------------------------------------------------------------------
# Inverse / reverse


def test_inverse_examples():
    # [53241] happens to be an involution
    p = parse_permutation("53241")
    assert inverse(p) == p
    assert inverse(parse_permutation("3142")) == parse_permutation("2413")
    identity = Permutation(tuple(range(1, 5)))
    assert inverse(identity) == identity


def test_reverse_examples():
    assert reverse(parse_permutation("53241")) == parse_permutation("14235")
    assert reverse(parse_permutation("1")) == parse_permutation("1")


@pytest.mark.parametrize("n", range(7))
def test_bijection_laws(n):
    for p in all_perms(n):
        q = inverse(p)
        assert inverse(q) == p
        assert reverse(reverse(p)) == p
        # q is really the inverse: q o p = identity
        assert all(q.entries[v - 1] == i for i, v in enumerate(p.entries, 1))


# ---------------------------------------------------------------------------
# Deletion, children


def test_delete_and_standardize_examples():
    p = parse_permutation("53241")
    assert delete_and_standardize(p, 1) == parse_permutation("3241")
    assert delete_and_standardize(p, 2) == parse_permutation("4231")
    assert delete_and_standardize(p, 3) == parse_permutation("4231")
    assert delete_and_standardize(p, 4) == parse_permutation("4321")
    assert delete_and_standardize(p, 5) == parse_permutation("4213")
    assert delete_and_standardize(parse_permutation("1"), 1).n == 0


def test_delete_position_out_of_range():
    with pytest.raises(IndexError):
        delete_and_standardize(parse_permutation("123"), 4)
    with pytest.raises(ValueError):
        delete_and_standardize(Permutation(()), 1)


def test_children_examples():
    assert children(parse_permutation("53241")) == {
        parse_permutation(t) for t in ("3241", "4231", "4321", "4213")
    }
    assert children(parse_permutation("12")) == {parse_permutation("1")}
    assert len(children(parse_permutation("2413"))) == 4


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))))
def test_children_are_the_distinct_deletions(word):
    p = Permutation(tuple(word))
    assert children(p) == frozenset(
        delete_and_standardize(p, i) for i in range(1, p.n + 1)
    )


# Up to 255 entries each word is a bytes and its deletions are made by
# bytes.translate; past that, entry by entry. On both sides of the line:
# a bond-free word (the evens, then the odds), the rising runs of seven
# values taken from the top block down, and a shuffled word.
def _long_words(n):
    blocks = [range(v, min(v + 7, n + 1)) for v in range(1, n + 1, 7)]
    shuffled = list(range(1, n + 1))
    random.Random(n).shuffle(shuffled)
    return [
        [*range(2, n + 1, 2), *range(1, n + 1, 2)],
        [v for block in reversed(blocks) for v in block],
        shuffled,
    ]


@pytest.mark.parametrize("n", [254, 255, 256, 300])
def test_children_of_long_words(n):
    for word in _long_words(n):
        p = Permutation(tuple(word))
        kids = children(p)
        assert kids == {delete_and_standardize(p, i) for i in range(1, n + 1)}
        assert len(kids) == n - len(bonds(p))


def test_children_of_empty_rejected():
    with pytest.raises(ValueError):
        children(Permutation(()))


@pytest.mark.parametrize("n", range(1, 8))
def test_children_count_is_n_minus_bonds(n):
    for p in all_perms(n):
        assert len(children(p)) == n - len(bonds(p))


# One deletion, two readers: `children` builds a Permutation from each
# word of `_child_words`, and the verify walk reads the words as they are.
@pytest.mark.parametrize("n", range(1, 7))
def test_children_are_the_permutations_of_the_child_words(n):
    for p in all_perms(n):
        words = _child_words(p.entries)
        kids = {Permutation(word) for word in words}  # checked: each a permutation
        assert children(p) == kids
        assert len(kids) == len(words)
        for word in words:
            assert is_king(word) == is_king(Permutation(word)), (p, word)


# ---------------------------------------------------------------------------
# Kings


def test_is_king():
    assert is_king(parse_permutation("2413"))
    assert not is_king(parse_permutation("123"))
    assert sum(is_king(p) for p in all_perms(4)) == 2


def test_is_king_means_no_bonds():
    for n in range(8):
        for p in all_perms(n):
            assert is_king(p) == (not bonds(p)), p


# ---------------------------------------------------------------------------
# Inflation


def test_inflate_example():
    pattern = parse_permutation("2413")
    blocks = [parse_permutation(t) for t in ("213", "21", "132", "1")]
    assert inflate(pattern, blocks) == Permutation((5, 4, 6, 9, 8, 1, 3, 2, 7))


def test_inflate_by_singletons_is_identity():
    for p in all_perms(5):
        assert inflate(p, [parse_permutation("1")] * 5) == p


def test_inflate_trivial_pattern():
    alpha = parse_permutation("3142")
    assert inflate(parse_permutation("1"), [alpha]) == alpha


def test_inflate_size_law():
    pattern = parse_permutation("132")
    blocks = [parse_permutation(t) for t in ("12", "1", "321")]
    assert inflate(pattern, blocks).n == 6


def test_inflate_rejects_bad_blocks():
    with pytest.raises(ValueError):
        inflate(parse_permutation("12"), [])
    with pytest.raises(ValueError):
        inflate(parse_permutation("12"), [parse_permutation("1"), Permutation(())])
    with pytest.raises(ValueError):
        inflate(Permutation(()), [])


# ---------------------------------------------------------------------------
# Comb


def test_comb_example():
    assert comb((3, 6, 5, 4), (2, 1, 7, 8)) == Permutation((3, 2, 6, 1, 5, 7, 4, 8))
    assert comb((1,), ()) == parse_permutation("1")
    assert comb((), ()).n == 0


def test_comb_split_example():
    odd, even = comb_split(Permutation((2, 7, 1, 8, 6, 3, 5, 4, 9)))
    assert odd == (2, 1, 6, 5, 9)
    assert even == (7, 8, 3, 4)


def test_comb_rejects_bad_shapes():
    with pytest.raises(ValueError):
        comb((1,), (2, 3))
    with pytest.raises(ValueError):
        comb((1, 2, 3), ())
    with pytest.raises(ValueError):  # union is not {1..4}
        comb((1, 2), (3, 5))


@pytest.mark.parametrize("n", range(8))
def test_comb_split_roundtrip_exhaustive(n):
    for p in all_perms(n):
        assert comb(*comb_split(p)) == p


@given(st.permutations(list(range(1, 31))))
def test_comb_split_roundtrip_random(word):
    p = Permutation(tuple(word))
    odd, even = comb_split(p)
    assert comb(odd, even) == p


def test_standardize():
    assert standardize((2, 4, 6, 1, 7, 3)) == Permutation((2, 4, 5, 1, 6, 3))
    assert standardize(()) == Permutation(())
    with pytest.raises(ValueError):
        standardize((1, 1))
