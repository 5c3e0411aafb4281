"""Property tests for the Q(q) kernel over random Laurent-polynomial fractions.

Hypothesis drives the field axioms, the canonical form, the text round trip,
specialisation and the coefficient invariant, and checks the sparse accumulate
helper against a dense sum; sympy's cancel is an independent oracle for
products and quotients.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from qschub.linalg import accumulate  # noqa: E402
from qschub.qscalar import (  # noqa: E402
    ZERO, ONE, Scalar, parse_scalar, q_bracket, qpow, render_scalar,
)

# integral Fractions are drawn too, so construction must normalise them
coeffs = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=3))
polys = st.dictionaries(st.integers(-2, 2), coeffs, max_size=3)
nonzero_polys = polys.filter(lambda d: any(d.values()))


@st.composite
def scalars(draw, nonzero=False):
    return Scalar(draw(nonzero_polys if nonzero else polys), draw(nonzero_polys))


def _eval(poly, q0):
    return sum((Fraction(c) * q0 ** e for e, c in poly.items()), Fraction(0))


def _coefficients(s):
    return [c for _, c in s.num] + [c for _, c in s.den]


CASES = settings(max_examples=60, deadline=None)


@CASES
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO and a * ZERO == ZERO
    if b:
        assert b * b.inverse() == ONE
        assert (a / b) * b == a
        assert b.inverse().inverse() == b


@CASES
@given(scalars(), scalars(), nonzero_polys, st.integers(-4, 4), st.integers(1, 3))
def test_equality_is_structure_and_hash(a, b, k, n, d):
    assert (a == b) == ((a.num, a.den) == (b.num, b.den))
    # q_bracket builds its canonical form directly
    bracket = q_bracket(n, d)
    built = Scalar({d * e: (1 if n > 0 else -1) for e in range(1 - abs(n), abs(n), 2)})
    assert (bracket.num, bracket.den) == (built.num, built.den)
    assert bracket == built and hash(bracket) == hash(built)
    assert (bracket == a) == ((bracket.num, bracket.den) == (a.num, a.den))
    # the same value built from num*k / den*k has the same form and hash
    num, den = dict(a.num), dict(a.den)
    kk = Scalar(k)
    same = Scalar(num) * kk / (Scalar(den) * kk)
    assert same == a
    assert (same.num, same.den) == (a.num, a.den)
    assert hash(same) == hash(a)


@CASES
@given(scalars())
def test_render_parse_round_trip(a):
    text = render_scalar(a)
    back = parse_scalar(text)
    assert back == a
    assert render_scalar(back) == text


@CASES
@given(polys, nonzero_polys, scalars(), st.fractions(min_value=-3, max_value=3,
                                                     max_denominator=4))
def test_specialize_agrees_with_arithmetic(num, den, b, q0):
    assume(q0 != 0 and _eval(den, q0) != 0)
    a = Scalar(num, den)
    assert a.specialize(q0) == _eval(num, q0) / _eval(den, q0)
    assume(_eval(dict(b.den), q0) != 0)
    assert (a + b).specialize(q0) == a.specialize(q0) + b.specialize(q0)
    assert (a * b).specialize(q0) == a.specialize(q0) * b.specialize(q0)


@CASES
@given(scalars(), scalars(nonzero=True), st.integers(-3, 3))
def test_coefficients_are_ints_or_proper_fractions(a, b, n):
    for s in (a, b, a + b, a - b, a * b, a / b, b.inverse(), b ** n, -a):
        for c in _coefficients(s):
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (s, c)


vectors = st.dictionaries(st.integers(0, 4), scalars(nonzero=True), max_size=4)


@CASES
@example({0: ONE, 1: qpow(1)}, {0: -ONE, 2: ONE}, None, set())
@example({0: ONE, 1: qpow(1)}, {1: ONE}, qpow(2), {1})
@given(vectors, vectors, st.one_of(st.none(), scalars()), st.sets(st.integers(0, 4)))
def test_accumulate_matches_dense_reference(u, v, c, cancel):
    # make v cancel u exactly on the keys in `cancel`
    if c is None or c:
        for key in cancel & set(u):
            v[key] = -u[key] if c is None else -(u[key] / c)
    v_before = dict(v)
    factor = ONE if c is None else c
    dense = {key: u.get(key, ZERO) + factor * v.get(key, ZERO) for key in set(u) | set(v)}
    want = {key: x for key, x in dense.items() if x}
    out = dict(u)
    assert accumulate(out, v, c) is out
    assert out == want
    assert all(x for x in out.values())
    assert v == v_before


def _sympy_of(s, q):
    import sympy
    num = sum(sympy.Rational(c.numerator, c.denominator) * q ** e for e, c in s.num)
    den = sum(sympy.Rational(c.numerator, c.denominator) * q ** e for e, c in s.den)
    return num, den


@settings(max_examples=30, deadline=None)
@given(scalars(), scalars(nonzero=True))
def test_products_and_quotients_match_sympy_cancel(a, b):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    (an, ad), (bn, bd) = _sympy_of(a, q), _sympy_of(b, q)
    for ours, theirs in ((a * b, (an * bn) / (ad * bd)), (a / b, (an * bd) / (ad * bn))):
        num, den = _sympy_of(ours, q)
        assert sympy.cancel(num / den - theirs) == 0
        # canonical: den is a monic polynomial with nonzero constant term,
        # coprime to the numerator
        if ours:
            assert ours.den[0][0] == 0 and ours.den[-1][1] == 1
            shifted = sympy.expand(num * q ** -ours.num[0][0])
            assert sympy.degree(sympy.gcd(shifted, den), q) == 0
