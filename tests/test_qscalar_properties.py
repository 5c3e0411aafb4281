"""Property tests for the Q(q) kernel over random Laurent-polynomial fractions.

Hypothesis drives the field axioms, the canonical form, the text round trip,
specialisation, the coefficient invariant and the memo tables, and checks the
sparse accumulate helper against a dense sum; sympy's cancel is an independent
oracle for products and quotients, and sympy's gcd for the Z[q] gcd.
"""

import copy
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import (  # noqa: E402
    HealthCheck, assume, example, given, settings, strategies as st,
)

from qschub.linalg import accumulate  # noqa: E402
from qschub import qscalar  # noqa: E402
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
def test_coefficients_are_ints(a, b, n):
    for s in (a, b, a + b, a - b, a * b, a / b, b.inverse(), b ** n, -a):
        for c in _coefficients(s):
            assert type(c) is int, (s, c)


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


# every module table that qscalar._remember writes
_TABLES = ("_SHARED", "_MUL", "_ADD", "_INV")


def _cold(op, *args):
    # op computed with every table empty and cleared at each insertion
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qscalar, "MEMO_CAP", 1)
        for name in _TABLES:
            mp.setattr(qscalar, name, {})
        out = op(*args)
        assert all(len(getattr(qscalar, name)) <= 1 for name in _TABLES)
    return out


_PAIRS = ((0, 1), (0, 2), (1, 2), (2, 0), (1, 1))
_OPS = (lambda u, v: u * v, lambda u, v: u + v, lambda u, v: (u - v) * (u + v),
        lambda u, v: -u, lambda u, v: u.inverse() if u else u,
        lambda u, v: u / v if v else u)


@CASES
@given(scalars(), scalars(), scalars())
def test_memo_tables_are_pure_caches(a, b, c):
    # every product and sum is looked up in warm tables (each pair after the
    # others, twice over) and must equal, and hash like, the same operation
    # with the tables empty and MEMO_CAP at 1
    xs = (a, b, c)
    for _ in range(2):
        warm = [op(xs[i], xs[j]) for i, j in _PAIRS for op in _OPS]
    cold = [_cold(op, xs[i], xs[j]) for i, j in _PAIRS for op in _OPS]
    assert [(x.num, x.den, hash(x)) for x in warm] == [(x.num, x.den, hash(x)) for x in cold]
    assert all(len(getattr(qscalar, name)) <= qscalar.MEMO_CAP for name in _TABLES)


def test_every_remembered_table_is_in_the_purity_lists(scalar_memo_tables):
    # a new memo table must be emptied and capped by the purity tests too
    assert scalar_memo_tables == set(_TABLES)
    assert all(isinstance(getattr(qscalar, name), dict) for name in _TABLES)


@CASES
@given(scalars(), scalars())
def test_an_unshared_scalar_is_interchangeable_with_the_shared_one(a, b):
    shared = a * ONE
    for x in (Scalar(dict(a.num), dict(a.den)), copy.deepcopy(shared)):
        assert x is not shared
        assert x == shared and hash(x) == hash(shared)
        assert {shared: "v"}[x] == "v" and {x: "v"}[shared] == "v"
        assert x * b == shared * b and b + x == b + shared


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
        # canonical: den is a polynomial with nonzero constant term and
        # positive leading coefficient, coprime over Z (contents included) to
        # the numerator shifted to lowest exponent 0
        if ours:
            assert ours.den[0][0] == 0 and ours.den[-1][1] > 0
            shifted = sympy.expand(num * q ** -ours.num[0][0])
            assert sympy.gcd(sympy.Poly(shifted, q, domain="ZZ"),
                             sympy.Poly(den, q, domain="ZZ")).as_expr() == 1


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# dense integer polynomials, constant first, with a nonzero leading coefficient
int_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(lambda v: v[-1])


@CASES
@example([1, 0, -1], [1, 1], [2, 2])
@example([3], [5, 0, 7], [4, 0, 0, 6])
@given(int_polys, int_polys, int_polys)
def test_zgcd_is_the_gcd_over_the_integers(a, b, c):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    ac, bc = _dense_mul(a, c), _dense_mul(b, c)
    g = qscalar._zgcd(ac, bc)
    assert all(type(x) is int for x in g) and g[-1] > 0

    def poly(v):
        return sympy.Poly(list(reversed(v)), q, domain="ZZ")

    _, prim_c = poly(c).primitive()
    assert poly(g).rem(prim_c).is_zero
    want = sympy.gcd(poly(ac), poly(bc))
    assert poly(g) in (want, -want)


int_dicts = st.dictionaries(st.integers(0, 3), st.integers(-4, 4), max_size=4).filter(
    lambda d: any(d.values()))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example({0: 2, 1: 3}, {0: 3}, {0: 1})
@example({0: 1}, {0: 1, 1: 2}, {0: 2, 2: -4})
@given(int_dicts, int_dicts, int_dicts)
def test_an_integral_canonical_form_makes_no_fraction(fraction_origins, num, den, common):
    # any integer numerator over any integer denominator has an integral
    # canonical form, and the gcd over Z[q] reaches it without a Fraction
    num = qscalar._pmul(num, common)
    den = qscalar._pmul(den, common)
    made = []
    origins = fraction_origins(lambda: made.append(Scalar(num, den)))
    assert all(type(c) is int for c in _coefficients(made[0]))
    assert origins == set(), origins


def test_a_gcd_that_does_not_divide_fails_the_certificate(monkeypatch):
    # the gcd is certified by exact trial division: a wrong one must raise
    # EngineError, never yield a wrong canonical form
    from qschub.qscalar import EngineError
    monkeypatch.setattr(qscalar, "_zgcd", lambda a, b: [1, 1])
    with pytest.raises(EngineError, match="gcd certificate"):
        Scalar({1: 1}, {0: 1, 2: 1})
    with pytest.raises(EngineError, match="gcd certificate"):
        Scalar({0: 1, 2: 3}, {0: 2, 1: 1, 2: 1})
