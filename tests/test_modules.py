import itertools
from fractions import Fraction

import pytest

from qschub.qscalar import ZERO, ONE, qpow, from_fraction, q_bracket, q_factorial
from qschub.linalg import mat_vec, mat_mul
from qschub.weyl import root_datum
from qschub.modules import (
    build_module, weight_multiplicities, root_coords,
    extremal_dual, demazure_echelon,
)


def vec_eq(u, v):
    return {k: c for k, c in u.items() if not c.is_zero()} == \
           {k: c for k, c in v.items() if not c.is_zero()}


def pair(xi, v):
    """The row functional xi applied to the vector v."""
    return sum((c * v[i] for i, c in xi.items() if i in v), ZERO)


def k_exponent(m, i, idx, weight_of):
    """K_i acts on basis vector idx of m by q^e with e = <wt, alpha_i>."""
    alpha_i = tuple(Fraction(int(t == i - 1)) for t in range(m.datum.rank))
    wt = weight_of(m, m.wt_of[idx])
    e = m.datum.pairing(wt, alpha_i)
    assert e.denominator == 1, (i, wt, e)
    return int(e)


# -- Freudenthal oracle on classical dimensions --------------------------------

@pytest.mark.parametrize("label,lam,dim", [
    ("A1", (1,), 2), ("A1", (3,), 4),
    ("A2", (1, 0), 3), ("A2", (0, 1), 3), ("A2", (1, 1), 8), ("A2", (2, 0), 6),
    ("A3", (1, 0, 0), 4), ("A3", (0, 1, 0), 6), ("A3", (0, 0, 1), 4),
    ("B2", (1, 0), 5), ("B2", (0, 1), 4), ("B2", (1, 1), 16),
    ("G2", (1, 0), 7), ("G2", (0, 1), 14),
])
def test_freudenthal_dimensions(label, lam, dim):
    datum = root_datum(label)
    mult = weight_multiplicities(datum, lam)
    assert sum(mult.values()) == dim


def test_freudenthal_weyl_symmetry():
    datum = root_datum("A2")
    mult = weight_multiplicities(datum, (1, 1))
    w0 = datum.longest_element()
    for nu, m in mult.items():
        assert mult[w0.act(nu)] == m
    # adjoint representation: zero weight has multiplicity 2
    assert mult[(Fraction(0), Fraction(0))] == 2


# -- module construction --------------------------------------------------------

def test_a1_vector_module(weight_of):
    datum = root_datum("A1")
    m = build_module(datum, (1,))
    assert m.dim == 2
    weights = {weight_of(m, k) for k in m.weights}
    fw = root_coords(datum, (1,))
    assert weights == {fw, tuple(-x for x in fw)}


def test_a2_fundamental_module(weight_of):
    datum = root_datum("A2")
    m = build_module(datum, (1, 0))
    fw = root_coords(datum, (1, 0))
    a1 = (Fraction(1), Fraction(0))
    a2 = (Fraction(0), Fraction(1))
    w1 = tuple(f - a for f, a in zip(fw, a1))
    w2 = tuple(f - a - b for f, a, b in zip(fw, a1, a2))
    assert m.dim == 3
    assert {weight_of(m, k) for k in m.weights} == {fw, w1, w2}


@pytest.mark.parametrize("label,lam", [
    ("A1", (2,)), ("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1)),
    ("A3", (0, 1, 0)), ("G2", (1, 0)),
])
def test_dimensions_match_freudenthal(label, lam, weight_of):
    datum = root_datum(label)
    m = build_module(datum, lam)
    mult = weight_multiplicities(datum, lam)
    assert {weight_of(m, k): len(idx) for k, idx in m.weights.items()} == mult


@pytest.mark.parametrize("label,lam", [
    ("A2", (1, 0)), ("A2", (1, 1)), ("B2", (0, 1)), ("A1", (3,)),
])
def test_defining_relations(label, lam, weight_of):
    datum = root_datum(label)
    m = build_module(datum, lam)
    r = datum.rank
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            for col in range(m.dim):
                v = {col: ONE}
                lhs = mat_vec(m.E[i], mat_vec(m.F[j], v))
                rhs = mat_vec(m.F[j], mat_vec(m.E[i], v))
                if i == j:
                    e = k_exponent(m, i, col, weight_of)
                    d = datum.d[i - 1]
                    assert e % d == 0
                    scal = q_bracket(e // d, d)
                    rhs = {k: c for k, c in rhs.items()}
                    cur = rhs.get(col, ZERO) + scal
                    if cur.is_zero():
                        rhs.pop(col, None)
                    else:
                        rhs[col] = cur
                assert vec_eq(lhs, rhs), (i, j, col)
    # K E K^{-1} = q^{<a_i, a_j>} E
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            for col, vec in m.E[j].items():
                e0 = k_exponent(m, i, col, weight_of)
                for row in vec:
                    e1 = k_exponent(m, i, row, weight_of)
                    alpha_i = tuple(Fraction(int(t == i - 1)) for t in range(r))
                    alpha_j = tuple(Fraction(int(t == j - 1)) for t in range(r))
                    assert e1 - e0 == datum.pairing(alpha_i, alpha_j)


def q_binomial(n, k, d=1):
    """Balanced q-binomial [n choose k] at q^d, for 0 <= k <= n."""
    return q_factorial(n, d) / (q_factorial(k, d) * q_factorial(n - k, d))


@pytest.mark.parametrize("label,lam", [("A2", (1, 1)), ("B2", (0, 1)), ("G2", (1, 0))])
def test_serre_relations(label, lam):
    datum = root_datum(label)
    m = build_module(datum, lam)
    r = datum.rank
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i == j:
                continue
            n = 1 - datum.cartan[i - 1][j - 1]
            d = datum.d[i - 1]
            for col in range(m.dim):
                acc = {}
                for s in range(n + 1):
                    coeff = (from_fraction(-1) ** s) * q_binomial(n, s, d)
                    v = {col: ONE}
                    for _ in range(n - s):
                        v = mat_vec(m.F[i], v)
                    v = mat_vec(m.F[j], v)
                    for _ in range(s):
                        v = mat_vec(m.F[i], v)
                    for k, c in v.items():
                        cur = acc.get(k, ZERO) + coeff * c
                        if cur.is_zero():
                            acc.pop(k, None)
                        else:
                            acc[k] = cur
                assert not acc


def test_sl2_ef_string():
    # E^m F^m v = [m]! [N]! / [N-m]! v on a highest weight vector
    datum = root_datum("A1")
    for N in (1, 2, 3):
        m = build_module(datum, (N,))
        v = m.highest_vector()
        for k in range(N + 1):
            w = dict(v)
            for _ in range(k):
                w = mat_vec(m.F[1], w)
            for _ in range(k):
                w = mat_vec(m.E[1], w)
            coeff = q_factorial(k) * q_factorial(N) / q_factorial(N - k)
            assert vec_eq(w, {0: coeff})


def test_gram_radical_is_zero():
    # irreducibility certificate: every weight-space Gram matrix is invertible
    from qschub.linalg import invert_matrix
    datum = root_datum("B2")
    m = build_module(datum, (1, 0))
    for nu, idxs in m.weights.items():
        invert_matrix(m.gram[nu], len(idxs))  # raises if singular


# -- braid operators -------------------------------------------------------------

def test_braid_on_sl2_highest_vectors():
    datum = root_datum("A1")
    for N in (1, 2, 3):
        m = build_module(datum, (N,))
        t = m.braid_matrix(1)
        v = mat_vec(t, m.highest_vector())
        fN = m.highest_vector()
        for _ in range(N):
            fN = mat_vec(m.F[1], fN)
        coeff = (-qpow(1)) ** N / q_factorial(N)
        assert vec_eq(v, {k: coeff * c for k, c in fN.items()})
        tinv = m.braid_matrix(1, invert=True)
        vinv = mat_vec(tinv, m.highest_vector())
        assert vec_eq(vinv, {k: c / q_factorial(N) for k, c in fN.items()})


def test_braid_inverse_and_weight_permutation(weight_of):
    datum = root_datum("A2")
    m = build_module(datum, (1, 1))
    one = {t: {t: ONE} for t in range(m.dim)}
    for i in (1, 2):
        t = m.braid_matrix(i)
        tinv = m.braid_matrix(i, invert=True)
        # mat_mul drops zeros, so an identity check must see every diagonal entry
        assert mat_mul(t, tinv) == one and mat_mul(tinv, t) == one
        # T(V_mu) = V_{s_i mu}
        s = datum.simple(i)
        for col, vec in t.items():
            for row in vec:
                assert weight_of(m, m.wt_of[row]) == s.act(weight_of(m, m.wt_of[col]))


def test_braid_word_independence_a2(braid_word_matrix):
    datum = root_datum("A2")
    for lam in [(1, 0), (1, 1)]:
        m = build_module(datum, lam)
        t121 = braid_word_matrix(m, (1, 2, 1))
        t212 = braid_word_matrix(m, (2, 1, 2))
        assert t121 == t212
        i121 = braid_word_matrix(m, (1, 2, 1), invert=True)
        assert mat_mul(t121, i121) == {t: {t: ONE} for t in range(m.dim)}


def test_braid_word_independence_b2(braid_word_matrix):
    datum = root_datum("B2")
    m = build_module(datum, (1, 0))
    assert braid_word_matrix(m, (1, 2, 1, 2)) == braid_word_matrix(m, (2, 1, 2, 1))


def test_extremal_vector_and_dual(weight_of):
    datum = root_datum("A2")
    m = build_module(datum, (1, 0))
    lam = root_coords(datum, (1, 0))
    w0 = datum.longest_element()
    for word in [(1,), (1, 2), (1, 2, 1), ()]:
        w = datum.from_word(word)
        v = m.tminus_winv_vector(word)
        assert len(v) == 1
        (idx, _), = v.items()
        assert weight_of(m, m.wt_of[idx]) == w.act(lam)
        xi = extremal_dual(m, word)
        assert pair(xi, v) == ONE
    # identity gives the dual of the highest weight vector
    assert extremal_dual(m, ()) == {0: ONE}


def test_extremal_dual_sl2():
    datum = root_datum("A1")
    m = build_module(datum, (1,))
    xi = extremal_dual(m, (1,))
    fv = mat_vec(m.F[1], m.highest_vector())
    assert pair(xi, fv) == ONE


def test_demazure_modules_a2():
    datum = root_datum("A2")
    m = build_module(datum, (1, 0))
    # extremal weights of V(fw_1): highest, middle (s1 fw_1), lowest (s2 s1 fw_1)
    assert len(demazure_echelon(m, ())) == 3      # U^- v_lambda is everything
    assert len(demazure_echelon(m, (1,))) == 2
    assert len(demazure_echelon(m, (1, 2))) == 2  # s1 s2 fw_1 = s1 fw_1
    assert len(demazure_echelon(m, (2, 1))) == 1  # lowest weight line
    assert len(demazure_echelon(m, (1, 2, 1))) == 1


def test_demazure_reverses_bruhat_order():
    datum = root_datum("A2")
    adj = build_module(datum, (1, 1))
    words = {(): None, (1,): None, (2,): None, (1, 2): None, (2, 1): None,
             (1, 2, 1): None}
    ech = {w: demazure_echelon(adj, w) for w in words}
    assert len(ech[()]) == 8
    assert len(ech[(1, 2, 1)]) == 1
    for wa in words:
        for wb in words:
            ya, yb = datum.from_word(wa), datum.from_word(wb)
            if datum.bruhat_leq(ya, yb):
                # bigger y gives smaller Demazure module
                for row in ech[wb].rows:
                    assert ech[wa].contains(row)


@pytest.mark.parametrize("label, lams", [
    ("A2", [(1, 0), (0, 1), (1, 1)]), ("B2", [(1, 0), (0, 1), (1, 1)]),
    ("G2", [(1, 0), (0, 1)]), ("A3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])])
def test_demazure_echelon_rows_are_weight_homogeneous(label, lams):
    # reduction and back-substitution combine only rows sharing a key, so
    # each row stays in the weight space of the F-image it started as; the
    # ideal sweep splits the rows by weight and reads them whole
    datum = root_datum(label)
    for lam in lams:
        module = build_module(datum, lam)
        for y in datum.ordered_interval(datum.longest_element()):
            for row in demazure_echelon(module, y.reduced_word()).rows:
                assert len({module.wt_of[i] for i in row}) == 1, (lam, y.render())


@pytest.mark.parametrize("label,lam", [("B2", (1, 1)), ("G2", (1, 0)), ("A3", (0, 1, 0))])
def test_weight_arithmetic_makes_no_fraction(label, lam, fraction_origins):
    # a module's construction and braid operators do integer weight
    # arithmetic, and a Q(q) coefficient is an int: no Fraction at all
    from qschub.modules import WeightModule
    datum = root_datum(label)

    def build():
        m = WeightModule(datum, lam)
        for i in range(1, datum.rank + 1):
            m.braid_matrix(i, invert=True)

    origins = fraction_origins(build)
    assert origins == set(), origins


def test_unsolvable_gram_row_names_its_weight_space(monkeypatch):
    # a solve that finds no unique coordinates is a typed error naming the
    # weight space and the module
    from qschub import modules
    from qschub.pbw import EngineError
    monkeypatch.setattr(modules, "solve_columns", lambda cols, target: (None, False))
    with pytest.raises(EngineError, match=r"Gram row \d+ of the weight space "
                                          r"\(-?\d+, -?\d+\) of V\(1, 1\) has no unique"):
        modules.WeightModule(root_datum("A2"), (1, 1))
