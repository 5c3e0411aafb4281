import random

import pytest

from qschub.qscalar import ZERO, ONE, qpow, from_fraction, parse_scalar
from qschub.linalg import accumulate
from qschub import pbw
from qschub.pbw import Presentation, EngineError
from qschub.schubert import schubert_cell
from qschub.cauchon import DeletingDerivations


def normal_form_word(pres, letters, coeff=ONE):
    """Normal form of coeff * x_{letters[0]} ... x_{letters[-1]}."""
    e = {tuple(0 for _ in range(pres.l)): coeff}
    for i in letters:
        e = pres.mul(e, pres.gen(i))
    return e


def normal_form(pres, expression):
    """expression: iterable of (Scalar, letter list) pairs, summed."""
    out = {}
    for coeff, letters in expression:
        accumulate(out, normal_form_word(pres, letters, coeff))
    return out


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
    assert normal_form_word(qp, (2, 1)) == {(1, 1): ONE}
    assert normal_form_word(qp, (1, 2)) == {(1, 1): qpow(1)}
    # three ascending adjacent pairs in (1,2,1,2) means three swaps
    e = normal_form_word(qp, (1, 2, 1, 2))
    assert e == {(2, 2): qpow(3)}


def test_normal_monomial_is_fixed():
    pres = a2_chain()
    for mono in [(2, 0, 1), (0, 3, 0), (1, 1, 1)]:
        word = []
        for i in (3, 2, 1):
            word += [i] * mono[i - 1]
        assert normal_form_word(pres, word) == {mono: ONE}


def test_a2_chain_straightening():
    pres = a2_chain()
    # x3 x1 = q x1 x3 + x2 holds after both sides are normalised
    lhs = normal_form_word(pres, (3, 1))
    rhs = pres.add(pres.scale(normal_form_word(pres, (1, 3)), qpow(1)),
                   pres.gen(2))
    assert lhs == rhs
    # equivalently x1 x3 = q^{-1}(x3 x1 - x2)
    assert normal_form_word(pres, (1, 3)) == {(1, 0, 1): qpow(-1), (0, 1, 0): -qpow(-1)}


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
    e = normal_form_word(pres, (1, 3, 2))
    data = Presentation.element_to_json(e)
    assert {tuple(m): parse_scalar(s) for m, s in data} == e


def test_normal_form_of_raw_expression():
    pres = a2_chain()
    # q * x3 x1 - x2  ==  q * (q x1 x3 + x2) - x2
    expr = [(qpow(1), (3, 1)), (-ONE, (2,))]
    got = normal_form(pres, expr)
    want = pres.add(pres.scale(normal_form_word(pres, (1, 3)), qpow(2)),
                    pres.gen(2, coeff=qpow(1) - ONE))
    assert got == want


def test_tail_shape_validation():
    lam = {(2, 1): qpow(-1), (3, 2): qpow(-1), (3, 1): qpow(1)}
    with pytest.raises(EngineError):
        Presentation(3, lam, {(3, 1): {(1, 0, 0): ONE}})  # support not strictly inside
    with pytest.raises(EngineError):
        Presentation(3, lam, {(2, 1): {(0, 0, 1): ONE}})


def _top(mono):
    return max((i + 1 for i, n in enumerate(mono) if n), default=0)


def _bottom(mono):
    return min((i + 1 for i, n in enumerate(mono) if n), default=0)


def _plus(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


class LoopPresentation(Presentation):
    """Reference normal ordering: every monomial is rebuilt slot by slot,
    every sigma eigenvalue, delta image and monomial product is computed
    afresh, and every term goes through accumulate; no table, no memo."""

    def unit_mono(self, j, power=1):
        return tuple(power if i == j - 1 else 0 for i in range(self.l))

    def sigma_scalar(self, k, mono, power=1):
        out = ONE
        for i, n in enumerate(mono):
            if n:
                if i + 1 >= k:
                    raise EngineError(f"sigma_{k} applied to monomial with x_{i+1}")
                out = out * self.lam[(k, i + 1)] ** (n * power)
        return out

    def delta_is_trivial(self, k):
        return not any((k, i) in self.tails for i in range(1, k))

    def delta_mono(self, k, mono):
        if self.delta_is_trivial(k) or _top(mono) == 0:
            return {}
        i = _top(mono)
        if i >= k:
            raise EngineError(f"delta_{k} applied to monomial with x_{i}")
        if mono[i - 1] < 0:
            raise EngineError(f"delta_{k} applied to a Laurent monomial")
        rest = tuple(n - 1 if t == i - 1 else n for t, n in enumerate(mono))
        out = {}
        inner = self.delta_mono(k, rest)
        if inner:
            out = self.scale(self.mul(self.gen(i), inner), self.lam[(k, i)])
        tail = self.tails.get((k, i))
        if tail:
            accumulate(out, {_plus(tm, rest): tc for tm, tc in tail.items()})
        return out

    def _mul_mono(self, m1, m2):
        top2 = _top(m2)
        if top2 == 0:
            return {m1: ONE}
        if _top(m1) == 0:
            return {m2: ONE}
        if _bottom(m1) >= top2:
            return {_plus(m1, m2): ONE}
        rest = tuple(0 if i == top2 - 1 else n for i, n in enumerate(m2))
        pushed = self._push_power({m1: ONE}, top2, m2[top2 - 1])
        return pushed if _top(rest) == 0 else self.mul(pushed, {rest: ONE})

    def _push_gen(self, e, k):
        out = {}
        ek = self.unit_mono(k)
        for m, c in e.items():
            lo = tuple(n if i < k - 1 else 0 for i, n in enumerate(m))
            if _top(lo) == 0:
                accumulate(out, {_plus(m, ek): ONE}, c)
                continue
            hi = tuple(n if i >= k - 1 else 0 for i, n in enumerate(m))
            s = self.sigma_scalar(k, lo, -1)
            accumulate(out, {_plus(_plus(hi, ek), lo): s}, c)
            dlo = self.delta_mono(k, lo)
            if dlo:
                accumulate(out, {_plus(hi, dm): dc for dm, dc in dlo.items()}, -(c * s))
        return out

    def _push_geninv(self, e, p):
        out = {}
        for m, c in e.items():
            lo = tuple(n if i < p - 1 else 0 for i, n in enumerate(m))
            hi = tuple(n if i >= p - 1 else 0 for i, n in enumerate(m))
            cur = {lo: ONE}
            t = 0
            while cur:
                shift = tuple(-(t + 1) if i == p - 1 else 0 for i in range(self.l))
                base = _plus(hi, shift)
                accumulate(out, {_plus(base, dm): dc
                                 for dm, dc in self.apply_sigma(p, cur).items()}, c)
                cur = self.apply_delta(p, cur)
                t += 1
        return out


def _outcome(f, *args):
    try:
        return f(*args)
    except EngineError as exc:
        return type(exc), str(exc)


def _laurent_element(pres, rng):
    """Two or three terms with exponents up to 1; the pivot slot, or a slot
    above it, may carry x_j^-m for m = 1, 2, as gen(j, -m) would."""
    out = {}
    for _ in range(rng.randint(1, 3)):
        mono = [rng.randint(0, 1) for _ in range(pres.l)]
        if pres.pivot is not None and rng.random() < 0.5:
            mono[rng.randint(pres.pivot, pres.l) - 1] = -rng.randint(1, 2)
        accumulate(out, {tuple(mono): qpow(rng.randint(-2, 2)) + from_fraction(rng.randint(0, 1))})
    return out


_CELLS = [("A2", (1, 2, 1)), ("B2", (1, 2, 1, 2)), ("G2", (1, 2, 1, 2, 1, 2)),
          ("A3", (1, 2, 1, 3, 2, 1))]


@pytest.mark.parametrize("label, word", _CELLS, ids=[c[0] for c in _CELLS])
def test_kernel_matches_the_loop_reference(label, word):
    # the tables and slices of the normal-ordering kernel change no product,
    # delta image or sigma image, and no error, against the loop reference,
    # on the cell presentation and every pivot presentation of its chain
    cell = schubert_cell(label, word).presentation()
    dd = DeletingDerivations(cell)
    rng = random.Random(f"{label}:loop")
    for real in [cell] + [dd.pivot_presentation(j) for j in range(1, cell.l + 1)]:
        ref = LoopPresentation(real.l, real.lam, real.tails, real.qself, real.degs,
                               pivot=real.pivot, validate=False)
        for _ in range(12):
            a, b = _laurent_element(real, rng), _laurent_element(real, rng)
            assert _outcome(real.mul, a, b) == _outcome(ref.mul, a, b)
            for k in range(1, real.l + 1):
                # a itself, which mostly raises, and its part below x_k
                for e in (a, {m: c for m, c in a.items() if _top(m) < k}):
                    for power in (1, -1, 2):
                        assert (_outcome(real.apply_sigma, k, e, power)
                                == _outcome(ref.apply_sigma, k, e, power))
                    assert _outcome(real.apply_delta, k, e) == _outcome(ref.apply_delta, k, e)


_LAM3 = {(2, 1): qpow(-1), (3, 2): qpow(-1), (3, 1): qpow(1)}
_PATHS = [
    # (id, NILPOTENCY_CAP or None, call that must raise, message)
    ("missing-scalar", None, lambda: Presentation(2, {}, {}),
     r"missing or zero q-commutation scalar for \(2,1\)"),
    ("zero-tail-coefficient", None,
     lambda: Presentation(3, _LAM3, {(3, 1): {(0, 1, 0): ZERO}}),
     r"zero tail coefficient stored at \(3,1\)"),
    ("constant-tail", None, lambda: Presentation(3, _LAM3, {(3, 1): {(0, 0, 0): ONE}}),
     r"constant term in tail of \(3,1\)"),
    ("inhomogeneous-tail", None,
     lambda: Presentation(3, _LAM3, {(3, 1): {(0, 1, 0): ONE}},
                          degs=[(-1, 0), (0, -1), (0, -1)]),
     r"tail of \(3,1\) not degree-homogeneous"),
    ("no-grading", None, lambda: Presentation(2, {(2, 1): qpow(-1)}, {}).degree_of_mono((1, 0)),
     "presentation carries no grading"),
    ("laurent-delta", None, lambda: a2_chain().with_pivot(2).delta_mono(3, (0, -1, 0)),
     "delta_3 applied to a Laurent monomial"),
    ("element-nilpotency-cap", 1, lambda: a2_chain().delta_nilpotency(3, a2_chain().gen(1)),
     "delta_3 not nilpotent within cap on element"),
    ("localisation-cap", 0,
     lambda: a2_chain().with_pivot(3).mul(a2_chain().gen(1), a2_chain().gen(3, -1)),
     r"delta_3 not nilpotent within cap \(localisation\)"),
    ("theta-top-variable", None, lambda: a2_chain().theta(a2_chain().gen(3)),
     "theta needs an element free of the top variable"),
    ("theta-no-eigenvalue", None,
     lambda: Presentation(2, {(2, 1): qpow(-1)}, {}).theta({(1, 0): ONE}),
     "no torus eigenvalue for the top variable"),
    ("theta-series-cap", 0, lambda: a2_chain().theta(a2_chain().gen(1)),
     "theta series did not terminate within cap"),
    ("table-without-gens", None, lambda: Presentation.from_table_text("rel 2 1 : q\n"),
     "table text lacks a `gens` line"),
]


@pytest.mark.parametrize("cap, call, match", [p[1:] for p in _PATHS],
                         ids=[p[0] for p in _PATHS])
def test_engine_error_paths(cap, call, match, monkeypatch):
    # the raises of pbw.py that no other test reaches; the two nilpotency
    # caps are lowered, as every delta of a CGL presentation is nilpotent
    if cap is not None:
        monkeypatch.setattr(pbw, "NILPOTENCY_CAP", cap)
    with pytest.raises(EngineError, match=match):
        call()
