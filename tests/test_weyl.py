import itertools
from fractions import Fraction

import pytest

from qschub.weyl import ReducedWord, root_datum


# -- independent oracles ------------------------------------------------------

def brute_bruhat_leq(datum, y, w):
    # y <= w iff some subword of a reduced word of w multiplies to y
    word = w.reduced_word()
    for mask in range(1 << len(word)):
        u = datum.identity
        for pos, i in enumerate(word):
            if mask >> pos & 1:
                u = u * datum.simple(i)
        if u == y:
            return True
    return False


def brute_interval(datum, w):
    word = w.reduced_word()
    out = set()
    for mask in range(1 << len(word)):
        u = datum.identity
        for pos, i in enumerate(word):
            if mask >> pos & 1:
                u = u * datum.simple(i)
        out.add(u)
    return out


# -- construction invariants --------------------------------------------------

@pytest.mark.parametrize("label,order,npos", [
    ("A1", 2, 1), ("A2", 6, 3), ("A3", 24, 6),
    ("B2", 8, 4), ("C3", 48, 9), ("G2", 12, 6), ("D4", 192, 12),
])
def test_group_order_and_positive_roots(label, order, npos):
    datum = root_datum(label)
    w0 = datum.longest_element()
    assert len(datum.positive_roots) == npos
    assert w0.length == npos
    assert len(datum.lower_interval(w0)) == order


def test_form_is_weyl_invariant_and_normalised():
    for label in ("A2", "B2", "G2", "C3"):
        datum = root_datum(label)
        assert min(datum.pairing(a, a) for a in datum.positive_roots) == 2
        for s in datum.simple_reflections:
            for a in datum.positive_roots:
                for b in datum.positive_roots:
                    assert datum.pairing(s.act_root(a), s.act_root(b)) == datum.pairing(a, b)


def test_cartan_from_form():
    for label in ("A3", "B2", "G2"):
        datum = root_datum(label)
        n = datum.rank
        for i in range(n):
            alpha = tuple(int(k == i) for k in range(n))
            for j in range(n):
                mu = tuple(int(k == j) for k in range(n))
                assert datum.pair_coroot(mu, i + 1) == Fraction(2 * datum.pairing(mu, alpha), datum.pairing(alpha, alpha))


def test_fundamental_weights():
    for label in ("A2", "B2", "G2"):
        datum = root_datum(label)
        for a in range(1, datum.rank + 1):
            fw = datum.fundamental_weights[a - 1]
            for i in range(1, datum.rank + 1):
                assert datum.pair_coroot(fw, i) == (1 if i == a else 0)


# -- Bruhat order -------------------------------------------------------------

def test_bruhat_examples_a2():
    datum = root_datum("A2")
    e = datum.identity
    s1, s2 = datum.simple(1), datum.simple(2)
    w0 = datum.longest_element()
    assert datum.bruhat_leq(e, w0)
    assert datum.bruhat_leq(s1, s1 * s2 * s1)
    assert not datum.bruhat_leq(s1 * s2, s2 * s1)
    assert datum.bruhat_leq(w0, w0)


def test_bruhat_matches_brute_force_and_word_choice():
    for label in ("A2", "B2", "A3", "G2"):
        datum = root_datum(label)
        elements = sorted(datum.lower_interval(datum.longest_element()),
                          key=lambda w: (w.length, w.render()))
        elements = [w for w in elements if w.length <= 4][:14]
        for y in elements:
            for w in elements:
                assert datum.bruhat_leq(y, w) == brute_bruhat_leq(datum, y, w)
        # independence of the reduced word used for the interval
        w0 = datum.longest_element()
        words = datum.all_reduced_words(w0)
        ref = datum.lower_interval(w0)
        for word in words[:4]:
            current = {datum.identity}
            for i in word:
                s = datum.simple(i)
                current |= {x * s for x in current if (x * s).length > x.length}
            assert current == set(ref)


def test_interval_independent_of_word_exhaustive():
    # every reduced word of every element gives the same subword closure
    for label in ("A1", "A2", "A3", "B2", "G2"):
        datum = root_datum(label)
        for w in datum.lower_interval(datum.longest_element()):
            ref = None
            for word in datum.all_reduced_words(w):
                current = {datum.identity}
                for i in word:
                    s = datum.simple(i)
                    current |= {x * s for x in current if (x * s).length > x.length}
                if ref is None:
                    ref = current
                else:
                    assert current == ref, (label, w.render(), word)
            assert ref == set(datum.lower_interval(w))


def test_lower_interval_examples():
    datum = root_datum("A2")
    s1, s2 = datum.simple(1), datum.simple(2)
    assert datum.lower_interval(datum.identity) == {datum.identity}
    assert datum.lower_interval(s1 * s2) == {datum.identity, s1, s2, s1 * s2}
    assert len(datum.lower_interval(datum.longest_element())) == 6
    assert datum.lower_interval(s1 * s2) == brute_interval(datum, s1 * s2)


# -- reduced words ------------------------------------------------------------

def test_reduced_word_validation():
    datum = root_datum("A2")
    ReducedWord(datum, (1, 2, 1))
    with pytest.raises(ValueError):
        ReducedWord(datum, (1, 1))
    with pytest.raises(ValueError):
        ReducedWord(datum, (3,))


def test_all_reduced_words_w0_a2():
    datum = root_datum("A2")
    words = set(datum.all_reduced_words(datum.longest_element()))
    assert words == {(1, 2, 1), (2, 1, 2)}
    assert datum.all_reduced_words(datum.identity) == ((),)


def test_word_action_and_length():
    datum = root_datum("A2")
    s1 = datum.simple(1)
    assert s1.act_root((1, 0)) == (-1, 0)
    assert datum.longest_element().length == 3


def test_beta_sequence_a2():
    datum = root_datum("A2")
    word = ReducedWord(datum, (1, 2, 1))
    betas = word.beta_sequence()
    assert betas == ((1, 0), (1, 1), (0, 1))
    assert datum.pairing(betas[0], betas[2]) == -1
    assert ReducedWord(datum, (1,)).beta_sequence() == ((1, 0),)


def test_beta_sequence_is_inversion_set():
    for label, wlist in [("B2", [(1, 2, 1, 2), (2, 1, 2)]), ("A3", [(1, 2, 3, 1, 2, 1)]),
                         ("G2", [(1, 2, 1, 2, 1, 2)])]:
        datum = root_datum(label)
        for letters in wlist:
            word = ReducedWord(datum, letters)
            betas = word.beta_sequence()
            assert len(set(betas)) == len(betas)
            winv = word.element.inverse()
            inversions = {g for g in datum.positive_roots
                          if sum(winv.act_root(g)) < 0}
            assert set(betas) == inversions


def test_beta_span_equals_support_sublattice():
    # Z-span of {beta_j} equals the root sublattice spanned by the support
    for label, letters in [("A3", (1, 3)), ("A3", (2, 1, 3, 2)), ("B2", (1, 2)),
                           ("A2", (1, 2, 1)), ("G2", (1, 2, 1))]:
        datum = root_datum(label)
        word = ReducedWord(datum, letters)
        betas = word.beta_sequence()
        support = word.element.support()
        # each beta uses only support letters and each alpha_i (i in support)
        # is an integer combination of the betas (checked by integer echelon)
        for b in betas:
            assert all(b[i] == 0 for i in range(datum.rank) if i + 1 not in support)
        span = _integer_span(betas)
        for i in sorted(support):
            alpha = tuple(int(k == i - 1) for k in range(datum.rank))
            assert _in_integer_span(span, alpha)


def _integer_span(vectors):
    rows = [list(v) for v in vectors]
    # integer row echelon (Hermite-lite, enough for membership of lattice vectors)
    rows = [r for r in rows if any(r)]
    basis = []
    for r in rows:
        r = list(r)
        for b in basis:
            j = next(i for i, x in enumerate(b) if x)
            while r[j] % b[j] == 0 and r[j] != 0:
                f = r[j] // b[j]
                r = [x - f * y for x, y in zip(r, b)]
            # general reduction via gcd steps
            while r[j]:
                f = r[j] // b[j] if abs(r[j]) >= abs(b[j]) else 0
                if f == 0:
                    r, b[:] = b[:], r
                else:
                    r = [x - f * y for x, y in zip(r, b)]
        if any(r):
            basis.append(r)
            basis.sort(key=lambda v: next(i for i, x in enumerate(v) if x))
    return basis


def _in_integer_span(basis, v):
    v = list(v)
    for b in basis:
        j = next(i for i, x in enumerate(b) if x)
        if v[j] % b[j] == 0:
            f = v[j] // b[j]
            v = [x - f * y for x, y in zip(v, b)]
    return not any(v)


def test_support_examples():
    datum = root_datum("A2")
    e = datum.identity
    s1, s2 = datum.simple(1), datum.simple(2)
    assert e.support() == frozenset()
    assert s1.support() == {1}
    assert (s1 * s2).support() == {1, 2}


def test_support_complement_fixes_fundamental_weights():
    for label in ("A3", "B2", "G2"):
        datum = root_datum(label)
        for w in datum.lower_interval(datum.longest_element()):
            supp = w.support()
            for a in range(1, datum.rank + 1):
                fw = datum.fundamental_weights[a - 1]
                fixed = w.act_weight(fw) == fw
                assert fixed == (a not in supp)


def test_inverse_and_render():
    datum = root_datum("B2")
    w = datum.from_word((1, 2, 1))
    assert w * w.inverse() == datum.identity
    assert w.inverse().reduced_word() == (1, 2, 1)
    assert datum.identity.render() == "e"
    assert datum.simple(2).render() == "s2"


def test_inverse_of_non_involution():
    # regression: the inverse of s1 s2 is s2 s1, not s1 s2
    for label in ("A2", "B2", "A3", "G2"):
        datum = root_datum(label)
        u = datum.from_word((1, 2))
        assert u.inverse() == datum.from_word((2, 1))
        assert u * u.inverse() == datum.identity
        assert u.inverse() * u == datum.identity
        if label in ("A3",):
            v = datum.from_word((1, 2, 3))
            assert v.inverse().reduced_word() == (3, 2, 1)


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_memoised_reduced_word_matches_a_fresh_descent_loop(label):
    datum = root_datum(label)
    for w in datum.lower_interval(datum.longest_element()):
        word, u = [], w
        while u.length:
            i = min(j for j in range(1, datum.rank + 1) if u.sends_negative(j))
            word.append(i)
            u = u * datum.simple(i)
        assert w.reduced_word() == tuple(reversed(word))
        assert w.reduced_word() is w.reduced_word()
        assert datum.from_word(w.reduced_word()) is w
