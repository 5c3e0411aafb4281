import random
from fractions import Fraction

from qschub.qscalar import (
    ZERO, ONE, Scalar, qpow, from_fraction,
    q_factorial, q_bracket,
    cauchon_integer, cauchon_factorial,
    render_scalar, parse_scalar,
)


def S(text):
    return parse_scalar(text)


def test_q_integer_small_values():
    assert q_bracket(0, 1) == ZERO
    assert q_bracket(1, 1) == ONE
    assert q_bracket(2, 1) == qpow(1) + qpow(-1)
    assert q_bracket(3, 1) == qpow(2) + ONE + qpow(-2)
    # at q^d the same shape with stretched exponents
    assert q_bracket(2, 3) == qpow(3) + qpow(-3)


def test_q_bracket_is_odd():
    for n in range(1, 6):
        assert q_bracket(-n) == -q_bracket(n)


def test_cauchon_factorial():
    q = qpow(1)
    assert cauchon_factorial(0, q) == ONE
    assert cauchon_factorial(0, qpow(5)) == ONE
    assert cauchon_factorial(2, q) == ONE + q
    # (3)! = (1+q)(1+q+q^2), expanded
    assert cauchon_factorial(3, q) == S("1 + 2*q + 2*q^[2] + q^[3]")
    # telescoping product specialises to m! at qhat = 1
    assert cauchon_factorial(4, ONE) == from_fraction(24)


def test_field_axioms_on_examples():
    t = qpow(1) - qpow(-1)
    assert t * t.inverse() == ONE
    u = qpow(1) + qpow(-1)
    assert u - u == ZERO
    # (1 - q^-2)^-1 canonicalises to q^2/(q^2 - 1)
    v = (ONE - qpow(-2)).inverse()
    assert v == qpow(2) / (qpow(2) - ONE)
    assert render_scalar(v) == "(q^[2])/(q^[2] - 1)"


def test_bracket_times_qdiff_identity():
    d = qpow(1) - qpow(-1)
    for n in range(1, 9):
        assert q_bracket(n) * d == qpow(n) - qpow(-n)


def test_cauchon_factorial_product_identity():
    q = qpow(1)
    for m in range(1, 7):
        lhs = cauchon_factorial(m, q) * (ONE - q) ** m
        rhs = ONE
        for k in range(1, m + 1):
            rhs = rhs * (ONE - qpow(k))
        assert lhs == rhs


def test_canonical_form_idempotent_and_unique():
    a = Scalar({3: Fraction(2), -1: Fraction(1)}, {2: Fraction(4), 0: Fraction(-4)})
    b = Scalar(dict(a.num), dict(a.den))
    assert a == b
    assert hash(a) == hash(b)
    # zero is unique however it is produced
    z = a - a
    assert z == ZERO and z.num == ()
    # a monomial's coefficient cancels against the content of a denominator
    assert from_fraction(2) * S("1/(2*q + 2)") == S("1/(q + 1)")
    assert S("1/(2*q + 2)") * from_fraction(-4) == S("-2/(q + 1)")


def test_pow_and_inverse():
    x = (qpow(1) + ONE) / (qpow(2) - qpow(-1))
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()


def test_specialization_commutes_with_arithmetic():
    rng = random.Random(20240811)
    pool = [
        q_bracket(3), cauchon_factorial(2, qpow(-2)),
        (qpow(1) - qpow(-1)) ** 2, ONE / (ONE - qpow(2)),
        from_fraction(Fraction(-7, 3)), qpow(-4) + ONE,
    ]
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        q0 = Fraction(rng.randint(2, 40), rng.randint(41, 97))
        assert (a + b).specialize(q0) == a.specialize(q0) + b.specialize(q0)
        assert (a * b).specialize(q0) == a.specialize(q0) * b.specialize(q0)
        if b.specialize(q0) != 0 and not b.is_zero():
            assert (a / b).specialize(q0) == a.specialize(q0) / b.specialize(q0)


def test_render_parse_round_trip():
    rng = random.Random(7)
    pool = [
        ZERO, ONE, qpow(-2) + ONE, q_factorial(3),
        (qpow(1) - qpow(-1)) / (ONE - qpow(3)),
        from_fraction(Fraction(3, 2)) * qpow(5) - ONE,
    ]
    for s in pool:
        assert parse_scalar(render_scalar(s)) == s
    for _ in range(50):
        a, b = rng.choice(pool), rng.choice(pool)
        s = a * b + a if not (a * b + a).is_zero() else ONE
        assert parse_scalar(render_scalar(s)) == s


def test_text_shows_the_monic_denominator():
    # a scalar is stored over Z, but its text divides by the leading
    # coefficient of the denominator; these strings are report bytes
    cases = {
        "3/2": "3/2",
        "1/(2*q + 1)": "(1/2)/(q + 1/2)",
        "-1/(2*q + 1)": "(-1/2)/(q + 1/2)",
        "(q + 1)/(2 - 4*q^[2])": "(-1/4*q - 1/4)/(q^[2] - 1/2)",
        "(q^[2] - 1)/(6*q)": "1/6*q - 1/6*q^[-1]",
    }
    for text, want in cases.items():
        s = S(text)
        assert render_scalar(s) == want
        assert all(type(c) is int for _, c in s.num + s.den)
        assert S(want) == s


def test_as_q_power():
    assert qpow(-3).as_q_power() == -3
    assert ONE.as_q_power() == 0
    assert (qpow(1) + ONE).as_q_power() is None
