import itertools

import pytest

from qschub.weyl import ReducedWord, root_datum
from qschub.subwords import (
    successor_table, kappa_orbit, is_left_positive, is_right_positive,
    enumerate_lp, lp_index_set, combinatorial_poset,
    BruhatPreconditionError,
)


def brute_left_positive_sets(word):
    # oracle: test every subset directly from the definition
    datum, l = word.datum, len(word)
    out = {}
    for mask in range(1 << l):
        D = frozenset(j + 1 for j in range(l) if mask >> j & 1)
        ok = True
        for j in range(1, l):
            u = datum.identity
            for k in range(l, j, -1):
                if k in D:
                    u = datum.simple(word.letters[k - 1]) * u
            s = datum.simple(word.letters[j - 1])
            if (s * u).length <= u.length:
                ok = False
                break
        if ok:
            y = datum.identity
            for k in range(1, l + 1):
                if k in D:
                    y = y * datum.simple(word.letters[k - 1])
            out.setdefault(y, []).append(D)
    return out


def test_successor_table_examples():
    datum = root_datum("A2")
    word = ReducedWord(datum, (1, 2, 1))
    kappa, orbit = successor_table(word)
    assert kappa == (3, None, None)
    assert orbit == (1, 0, 0)
    word2 = ReducedWord(root_datum("A3"), (1, 2, 3))
    assert successor_table(word2) == ((None, None, None), (0, 0, 0))
    b2 = ReducedWord(root_datum("B2"), (1, 2, 1, 2))
    kappa, orbit = successor_table(b2)
    assert kappa == (3, 4, None, None)
    assert orbit == (1, 1, 0, 0)
    assert kappa_orbit(b2, 1) == [1, 3]


def test_left_positive_examples_a2():
    datum = root_datum("A2")
    word = ReducedWord(datum, (1, 2, 1))
    assert is_left_positive(word, set())
    assert not is_left_positive(word, {3})
    assert is_left_positive(word, {1})


def test_lp_index_set_examples_a2():
    datum = root_datum("A2")
    word = ReducedWord(datum, (1, 2, 1))
    s1 = datum.simple(1)
    assert lp_index_set(word, s1) == {1}
    assert lp_index_set(word, datum.identity) == frozenset()
    assert lp_index_set(word, word.element) == {1, 2, 3}
    assert len(enumerate_lp(word)) == 6


def test_lp_requires_bruhat_leq():
    datum = root_datum("A2")
    word = ReducedWord(datum, (1,))
    with pytest.raises(BruhatPreconditionError):
        lp_index_set(word, datum.simple(2))


def test_length_one_word():
    datum = root_datum("A2")
    word = ReducedWord(datum, (2,))
    table = enumerate_lp(word)
    assert table == {datum.identity: frozenset(), datum.simple(2): frozenset({1})}


def test_enumeration_matches_brute_force():
    cases = [("A2", (1, 2, 1)), ("A2", (2, 1, 2)), ("B2", (1, 2, 1, 2)),
             ("B2", (2, 1, 2, 1)), ("A3", (1, 2, 1, 3, 2, 1)), ("G2", (1, 2, 1, 2))]
    for label, letters in cases:
        datum = root_datum(label)
        word = ReducedWord(datum, letters)
        brute = brute_left_positive_sets(word)
        # uniqueness and completeness against the interval
        interval = datum.lower_interval(word.element)
        assert set(brute) == set(interval)
        assert all(len(v) == 1 for v in brute.values())
        table = enumerate_lp(word)
        assert {y: D for y, D in table.items()} == {y: v[0] for y, v in brute.items()}
        assert len(table) == len(interval)


def test_extremes_for_every_word():
    for label, letters in [("A2", (1, 2, 1)), ("B2", (2, 1, 2, 1)), ("A3", (3, 2, 1))]:
        datum = root_datum(label)
        word = ReducedWord(datum, letters)
        table = enumerate_lp(word)
        assert table[datum.identity] == frozenset()
        assert table[word.element] == frozenset(range(1, len(word) + 1))


def test_reversal_duality():
    # D left positive for i  iff  its reversal is right positive for reversed i
    for label, letters in [("A2", (1, 2, 1)), ("B2", (1, 2, 1, 2)), ("A3", (1, 2, 3, 1))]:
        datum = root_datum(label)
        word = ReducedWord(datum, letters)
        rev = ReducedWord(datum, tuple(reversed(letters)))
        l = len(letters)
        for mask in range(1 << l):
            D = frozenset(j + 1 for j in range(l) if mask >> j & 1)
            Drev = frozenset(l + 1 - j for j in D)
            assert is_left_positive(word, D) == is_right_positive(rev, Drev)


def test_poset_export():
    datum = root_datum("A2")
    word = ReducedWord(datum, (1, 2, 1))
    poset = combinatorial_poset(word)
    assert len(poset["nodes"]) == 6
    # hexagon: e < s1,s2 < s1.s2, s2.s1 < w0
    assert len(poset["edges"]) == 8
    chain = combinatorial_poset(ReducedWord(datum, (1,)))
    assert chain["edges"] == [["e", "s1"]]
    assert [n["y"] for n in chain["nodes"]] == ["e", "s1"]
