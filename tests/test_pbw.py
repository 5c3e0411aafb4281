import random

import pytest

from qschub.qscalar import ZERO, ONE, qpow, from_fraction, parse_scalar
from qschub.pbw import Presentation, EngineError


def quantum_plane():
    # x2 x1 = q^{-1} x1 x2, no tail
    return Presentation(
        2, {(2, 1): qpow(-1)}, {}, qself=[None, qpow(-2), qpow(-2)],
        degs=[(-1, 0), (0, -1)])


def a2_chain(c=ONE):
    # the U^-[w0] shape for the word (1,2,1): one straightening tail
    lam = {(2, 1): qpow(-1), (3, 2): qpow(-1), (3, 1): qpow(1)}
    tails = {(3, 1): {(0, 1, 0): c}}
    degs = [(-1, 0), (-1, -1), (0, -1)]
    return Presentation(3, lam, tails, qself=[None] + [qpow(-2)] * 3, degs=degs)


def rand_element(pres, rng, nterms=3, maxexp=2):
    out = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, maxexp) for _ in range(pres.l))
        coeff = qpow(rng.randint(-2, 2)) + from_fraction(rng.randint(0, 1))
        out = pres.add(out, {mono: coeff})
    return out


def test_quantum_plane_swap():
    qp = quantum_plane()
    # x2 x1 is the normal monomial; x1 x2 straightens with the inverse scalar
    assert qp.normal_form_word((2, 1)) == {(1, 1): ONE}
    assert qp.normal_form_word((1, 2)) == {(1, 1): qpow(1)}
    # three ascending adjacent pairs in (1,2,1,2) means three swaps
    e = qp.normal_form_word((1, 2, 1, 2))
    assert e == {(2, 2): qpow(3)}


def test_normal_monomial_is_fixed():
    pres = a2_chain()
    for mono in [(2, 0, 1), (0, 3, 0), (1, 1, 1)]:
        word = []
        for i in (3, 2, 1):
            word += [i] * mono[i - 1]
        assert pres.normal_form_word(word) == {mono: ONE}


def test_a2_chain_straightening():
    pres = a2_chain()
    # x3 x1 = q x1 x3 + x2 holds after both sides are normalised
    lhs = pres.normal_form_word((3, 1))
    rhs = pres.add(pres.scale(pres.normal_form_word((1, 3)), qpow(1)),
                   pres.gen(2))
    assert lhs == rhs
    # equivalently x1 x3 = q^{-1}(x3 x1 - x2)
    assert pres.normal_form_word((1, 3)) == {(1, 0, 1): qpow(-1), (0, 1, 0): -qpow(-1)}


def test_delta_and_sigma():
    pres = a2_chain()
    assert pres.apply_delta(3, pres.one()) == {}
    assert pres.delta_mono(3, (1, 0, 0)) == {(0, 1, 0): ONE}
    assert pres.delta_nilpotency(3, pres.gen(1)) == 2
    # sigma_j delta_j = q_j delta_j sigma_j with q_j = q^{-2}
    rng = random.Random(11)
    for _ in range(40):
        e = rand_element(pres, rng)
        e = {m: c for m, c in e.items() if m[2] == 0}  # delta_3 domain
        lhs = pres.apply_sigma(3, pres.apply_delta(3, e))
        rhs = pres.scale(pres.apply_delta(3, pres.apply_sigma(3, e)), qpow(-2))
        assert lhs == rhs


def test_skew_leibniz():
    # delta(ab) = sigma(a) delta(b) + delta(a) b, left convention
    pres = a2_chain()
    rng = random.Random(5)
    for _ in range(40):
        a = {m: c for m, c in rand_element(pres, rng).items() if m[2] == 0}
        b = {m: c for m, c in rand_element(pres, rng).items() if m[2] == 0}
        lhs = pres.apply_delta(3, pres.mul(a, b))
        rhs = pres.add(pres.mul(pres.apply_sigma(3, a), pres.apply_delta(3, b)),
                       pres.mul(pres.apply_delta(3, a), b))
        assert lhs == rhs


def test_grading():
    pres = a2_chain()
    rng = random.Random(3)
    for _ in range(30):
        m1 = tuple(rng.randint(0, 2) for _ in range(3))
        m2 = tuple(rng.randint(0, 2) for _ in range(3))
        prod = pres.mul({m1: ONE}, {m2: ONE})
        want = tuple(a + b for a, b in zip(pres.degree_of_mono(m1), pres.degree_of_mono(m2)))
        assert pres.degree(prod) == want


def test_associativity_randomised():
    pres = a2_chain()
    rng = random.Random(17)
    for _ in range(150):
        a, b, c = (rand_element(pres, rng, nterms=2) for _ in range(3))
        assert pres.mul(a, pres.mul(b, c)) == pres.mul(pres.mul(a, b), c)


def test_pivot_localisation():
    pres = a2_chain().with_pivot(3)
    xinv = pres.gen(3, -1)
    # x1 x3^{-1} = q x3^{-1} x1 + q^{-1} x3^{-2} x2 (one delta step, then zero)
    prod = pres.mul(pres.gen(1), xinv)
    assert prod == {(1, 0, -1): qpow(1), (0, 1, -2): qpow(-1)}
    # pure q-commutation for the variable with no tail
    assert pres.mul(pres.gen(2), xinv) == {(0, 1, -1): qpow(-1)}
    # localisation round trips
    assert pres.mul(prod, pres.gen(3)) == pres.gen(1)
    assert pres.mul(pres.mul(pres.gen(1), xinv), pres.gen(3)) == pres.gen(1)
    # idempotence: the Laurent form is already canonical
    again = pres.mul(prod, pres.one())
    assert again == prod


def test_negative_power_of_nonpivot_rejected():
    pres = a2_chain().with_pivot(3)
    with pytest.raises(EngineError):
        pres.mul(pres.gen(1), pres.gen(2, -1))


def test_theta_map():
    pres = a2_chain()
    assert pres.theta(pres.one()) == pres.one()
    assert pres.theta(pres.gen(2)) == pres.gen(2)
    th1 = pres.theta(pres.gen(1))
    q3 = qpow(-2)
    coeff = (ONE - q3).inverse() * qpow(-2)
    assert th1 == {(1, 0, 0): ONE, (0, 1, -1): coeff}
    # theta is multiplicative where defined
    loc = pres.with_pivot(3)
    for a, b in [(pres.gen(1), pres.gen(2)), (pres.gen(2), pres.gen(1)),
                 (pres.gen(1), pres.gen(1))]:
        assert pres.theta(pres.mul(a, b)) == loc.mul(pres.theta(a), pres.theta(b))


def test_table_and_json_round_trip():
    pres = a2_chain()
    text = pres.table_text()
    back = Presentation.from_table_text(text, qself=pres.qself, degs=pres.degs)
    assert back.lam == pres.lam
    assert back.tails == pres.tails
    e = pres.normal_form_word((1, 3, 2))
    data = Presentation.element_to_json(e)
    assert pres.element_from_json(data) == e


def test_normal_form_of_raw_expression():
    pres = a2_chain()
    # q * x3 x1 - x2  ==  q * (q x1 x3 + x2) - x2
    expr = [(qpow(1), (3, 1)), (-ONE, (2,))]
    got = pres.normal_form(expr)
    want = pres.add(pres.scale(pres.normal_form_word((1, 3)), qpow(2)),
                    pres.gen(2, coeff=qpow(1) - ONE))
    assert got == want


def test_tail_shape_validation():
    lam = {(2, 1): qpow(-1), (3, 2): qpow(-1), (3, 1): qpow(1)}
    with pytest.raises(EngineError):
        Presentation(3, lam, {(3, 1): {(1, 0, 0): ONE}})  # support not strictly inside
    with pytest.raises(EngineError):
        Presentation(3, lam, {(2, 1): {(0, 0, 1): ONE}})
