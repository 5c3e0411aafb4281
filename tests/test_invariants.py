"""Cross-cutting structural invariants tying the subsystems together."""

import pytest

from qschub.qscalar import ONE, qpow, q_factorial
from qschub.linalg import mat_vec
from qschub.weyl import root_datum
from qschub.modules import build_module, extremal_vector
from qschub.schubert import schubert_cell
from qschub.cauchon import DeletingDerivations
from qschub.ideals import IdealLab


def test_sl2_string_through_extremal_vectors():
    # E^m F^m u = [m]! [N]! / [N-m]! u with N = <wt(u), alpha^vee> on any
    # extremal weight vector u with N >= 0
    datum = root_datum("A2")
    for lam in [(1, 0), (1, 1)]:
        module = build_module(datum, lam)
        for word in [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]:
            u = extremal_vector(module, word)
            (idx, _), = u.items()
            for i in (1, 2):
                n = datum.pair_coroot(module.wt_of[idx], i)
                if n < 0:
                    continue
                n = int(n)
                d = datum.d[i - 1]
                for m in range(n + 2):
                    v = dict(u)
                    for _ in range(m):
                        v = mat_vec(module.F[i], v)
                    for _ in range(m):
                        v = mat_vec(module.E[i], v)
                    if m > n:
                        assert not v
                    else:
                        coeff = q_factorial(m, d) * q_factorial(n, d) / q_factorial(n - m, d)
                        want = {k: coeff * c for k, c in u.items()}
                        assert v == want


def test_tau_e_nilpotency_on_extremal_vector():
    # (tauE_{beta_l})^m T^{-1}_{w^{-1}} v vanishes beyond <lambda, alpha_l^vee>
    for label, letters, lam in [("A2", (1, 2, 1), (1, 0)), ("A2", (1, 2, 1), (1, 1)),
                                ("B2", (1, 2, 1, 2), (0, 1))]:
        cell = schubert_cell(label, letters)
        pack = cell.ops(lam)
        datum = cell.datum
        lam_rc = pack["module"].lam
        n = int(datum.pair_coroot(lam_rc, letters[-1]))
        v = dict(pack["u_w"])
        for m in range(1, n + 2):
            v = mat_vec(pack["tauE"][cell.l - 1], v)
        assert not v


def test_tau_e_recovers_highest_vector_a1():
    cell = schubert_cell("A1", (1,))
    pack = cell.ops((1,))
    v = mat_vec(pack["tauE"][0], pack["u_w"])
    assert v == pack["module"].highest_vector()


def test_phi_l_localised_ideal_identity():
    # for x_l outside the ideal: theta of every leading-part element, pushed
    # back to a polynomial by a power of x_l, lands in the ideal slices
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 6)
    pres = lab.pres.with_pivot(3)
    for y_letters in [(1,), (2,), (1, 2)]:
        sl = lab.slices(y_letters)
        lt = lab._leading_part({h: e.copy() for h, e in sl.slices.items()}, 3)
        checked = 0
        for h, ech in lt.items():
            for row in ech.rows:
                th = pres.theta(row)
                if not th:
                    continue
                kmin = min(m[2] for m in th)
                shift = max(0, -kmin)
                for extra in range(shift, shift + 2):
                    poly = pres.mul(th, pres.gen(3, extra)) if extra else th
                    hh = tuple(-x for x in pres.degree(poly))
                    if sum(hh) <= lab.bound:
                        assert lab.membership(poly, sl)
                        checked += 1
        assert checked, y_letters


def test_extremal_membership_matches_lp():
    # T_{w s_{a_l}} v lies in the Demazure module of y exactly when the top
    # index is outside LP(y); the excluded direction is the harder one
    from qschub.subwords import lp_index_set
    from qschub.modules import demazure_echelon
    cell = schubert_cell("A2", (1, 2, 1))
    datum = cell.datum
    lam = cell.fundamental_fw(3)
    module = build_module(datum, lam)
    ws_word = cell.letters[:-1]
    v = extremal_vector(module, ws_word)
    for y in sorted(datum.lower_interval(cell.word.element),
                    key=lambda u: (u.length, u.render())):
        lp = lp_index_set(cell.word, y)
        dem = demazure_echelon(module, y.reduced_word())
        assert dem.contains(v) == (3 not in lp), y.render()


def test_complete_primeness_sampler():
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 5)
    for y in [(1,), (1, 2), (1, 2, 1)]:
        rep = lab.sample_complete_primeness(y, per_degree=40, seed=7)
        assert rep["ok"], rep
        assert rep["sampled"] > 0 or y == (1, 2, 1)


def test_phi_leading_term_across_one_step():
    # phi_w(c_xi e_w^{-lam}) equals the scalar (q_a^{-1}-q_a)^N q_a^{-N(N-1)/2}
    # times F_{beta_l}^N phi_{ws}(c_xi e_{ws}^{-lam}) up to terms of lower
    # F_{beta_l}-degree, with N = <lam, alpha_l^vee>
    from qschub.qscalar import qpow
    from qschub.modules import extremal_dual, build_module, root_coords
    for label, letters, lam in [("A2", (1, 2, 1), (1, 0)), ("A2", (1, 2, 1), (2, 0)),
                                ("A2", (1, 2, 1), (1, 1)), ("B2", (1, 2, 1, 2), (0, 1))]:
        cell = schubert_cell(label, letters)
        sub = schubert_cell(label, letters[:-1])
        pres = cell.presentation()
        datum = cell.datum
        l = cell.l
        a_l = letters[-1]
        d = datum.d[a_l - 1]
        lam_rc = root_coords(datum, lam)
        n_top = int(datum.pair_coroot(lam_rc, a_l))
        scalar = ((qpow(-d) - qpow(d)) ** n_top) * qpow(-d * (n_top * (n_top - 1) // 2))
        module = build_module(datum, lam)
        for y in sorted(datum.lower_interval(cell.word.element),
                        key=lambda u: (u.length, u.render())):
            xi = extremal_dual(module, y.reduced_word())
            big = cell.phi_element(lam, xi)
            small = sub.phi_element(lam, xi)
            embedded = {m + (0,): c for m, c in small.items()}
            lead = pres.mul(pres.gen(l, n_top), embedded) if embedded else {}
            diff = pres.add(big, lead, -scalar)
            top = max((m[l - 1] for m in diff), default=-1)
            assert top < n_top, (label, lam, y.render())


def test_b_element_product_law():
    # b^{l1}_{y,w} b^{l2}_{y,w} = q^{<l1, l2 - y^{-1} w l2>} b^{l1+l2}_{y,w},
    # exactly in the cell algebra (an R-matrix commutation shadow; the sign
    # matches this engine's extremal-dual normalisation)
    from fractions import Fraction
    from qschub.qscalar import qpow
    from qschub.modules import root_coords
    for label, letters in [("A2", (1, 2, 1)), ("B2", (1, 2, 1, 2))]:
        cell = schubert_cell(label, letters)
        pres = cell.presentation()
        datum = cell.datum
        w = cell.word.element
        rank = datum.rank
        fws = [tuple(int(t == a) for t in range(rank)) for a in range(rank)]
        for y in sorted(datum.lower_interval(w), key=lambda u: (u.length, u.render())):
            y_letters = y.reduced_word()
            for lam1 in fws:
                for lam2 in fws:
                    b1 = cell.b_element(y_letters, lam1)
                    b2 = cell.b_element(y_letters, lam2)
                    lam12 = tuple(a + b for a, b in zip(lam1, lam2))
                    b12 = cell.b_element(y_letters, lam12)
                    l1 = root_coords(datum, lam1)
                    l2 = root_coords(datum, lam2)
                    shift = tuple(a - b for a, b in zip(
                        l2, y.inverse().act_weight(w.act_weight(l2))))
                    e = datum.pairing(l1, shift)
                    assert Fraction(e).denominator == 1
                    lhs = pres.mul(b1, b2)
                    rhs = pres.scale(b12, qpow(int(e)))
                    assert lhs == rhs, (label, y.render(), lam1, lam2)


def test_leading_part_left_right_conventions_agree():
    # the right-collected leading coefficients are the sigma-twists of the
    # left-collected ones, so the two lt spans agree iff the computed lt
    # slices are stable under the top torus automorphism
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 6)
    pres = lab.pres
    for y_letters in [(1,), (2,), (1, 2)]:
        sl = lab.slices(y_letters)
        lt = lab._leading_part({h: e.copy() for h, e in sl.slices.items()}, 3)
        seen = 0
        for h, ech in lt.items():
            for row in ech.rows:
                twisted = pres.apply_sigma(3, row)
                assert ech.contains(twisted)
                seen += 1
        assert seen, y_letters


def test_chain_stages_certify_on_harder_words():
    for label, letters in [("A3", (2, 1, 3, 2, 1, 3)), ("B2", (2, 1, 2, 1))]:
        cell = schubert_cell(label, letters)
        dd = DeletingDerivations(cell.presentation())
        states, _ = dd.run({}, record_stages=True)
        assert all(s.certified for s in states)
        assert [s.j for s in states] == list(range(cell.l, 1, -1))


def test_engine_products_match_module_operators():
    # normal-form multiplication against the faithful operator representation
    import random
    from qschub.qscalar import qpow
    from qschub.linalg import mat_mul
    rng = random.Random(31)
    for label, letters, lams in [("A2", (1, 2, 1), [(1, 0), (0, 1)]),
                                 ("B2", (1, 2, 1, 2), [(1, 0), (0, 1)])]:
        cell = schubert_cell(label, letters)
        pres = cell.presentation()
        for _ in range(25):
            a = {tuple(rng.randint(0, 1) for _ in range(pres.l)): qpow(rng.randint(-1, 1))}
            b = {tuple(rng.randint(0, 1) for _ in range(pres.l)): qpow(rng.randint(-1, 1))}
            prod = pres.mul(a, b)
            for lam in lams:
                lhs = cell.element_operator(lam, prod)
                rhs = mat_mul(cell.element_operator(lam, a), cell.element_operator(lam, b))
                assert lhs == rhs


def test_prefix_restriction_matches_prefix_cell():
    # the subalgebra on x_1..x_t is the cell algebra of the prefix word:
    # restricting the big relation table must reproduce the extracted one
    for label, letters in [("A2", (1, 2, 1)), ("B2", (1, 2, 1, 2)),
                           ("A3", (1, 2, 1, 3, 2, 1))]:
        big = schubert_cell(label, letters).presentation()
        for t in range(1, len(letters)):
            small = schubert_cell(label, letters[:t]).presentation()
            sub = big.restrict(t)
            assert sub.lam == small.lam
            assert sub.tails == small.tails
            assert sub.qself[1:] == small.qself[1:]


def test_pivot_decomposition_views():
    cell = schubert_cell("A2", (1, 2, 1))
    pres = cell.presentation().with_pivot(3)
    e = pres.mul(pres.gen(1), pres.gen(3, -2))
    parts = pres.pivot_decomposition(e)
    # finitely many pivot powers, each coefficient free of the pivot
    assert set(parts) <= {-2, -3}
    for m, coeff in parts.items():
        assert all(mono[2] == 0 for mono in coeff)
    # reassembling left-collected layers returns the element
    total = {}
    for m, coeff in parts.items():
        total = pres.add(total, pres.mul(pres.gen(3, m), coeff))
    assert total == e


def test_presentation_independence_b2():
    from qschub.weyl import root_datum
    from qschub.schubert import SchubertCell
    cell = SchubertCell(root_datum("B2"), (1, 2, 1, 2))
    small = cell._solve_all_tails([(1, 0), (0, 1)])
    large = cell._solve_all_tails([(1, 0), (0, 1), (1, 1)])
    assert small == large


def test_g2_presentation_associativity_spot_check():
    # the G2 longest word has the richest straightening tails of the caps
    import random
    from qschub.qscalar import qpow
    pres = schubert_cell("G2", (1, 2, 1, 2, 1, 2)).presentation()
    rng = random.Random(4)
    for _ in range(60):
        a, b, c = ({tuple(rng.randint(0, 1) for _ in range(6)): qpow(rng.randint(-1, 1))}
                   for _ in range(3))
        assert pres.mul(a, pres.mul(b, c)) == pres.mul(pres.mul(a, b), c)
