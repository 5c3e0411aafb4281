import random

import pytest

from qschub.qscalar import ONE, ZERO, qpow, parse_scalar
from qschub.pbw import Presentation, EngineError, NotExpressibleError
from qschub.schubert import schubert_cell
from qschub.cauchon import DeletingDerivations, verify_main1b


def test_a1_chain_is_trivial(cauchon_coordinates):
    cell = schubert_cell("A1", (1,))
    rep = verify_main1b(cell)
    assert rep["ok"] and rep["anchor_ok"]
    dd = DeletingDerivations(cell.presentation())
    # no stages at length one; the element passes through unchanged
    e = cell.quantum_minor(1)
    assert cauchon_coordinates(dd, e) == e


def test_quantum_plane_case_identity_stage():
    # U^-[w_{2,1}]: the 2x1 quantum-matrix algebra, a quantum plane; the only
    # stage has zero derivation so the generators never change
    cell = schubert_cell("A2", (2, 1))
    pres = cell.presentation()
    assert not pres.tails
    dd = DeletingDerivations(pres)
    exprs = dd.new_generators(2)
    assert exprs[1] == pres.gen(1)
    assert exprs[2] == pres.gen(2)
    rep = verify_main1b(cell)
    assert rep["ok"]


def test_a2_stage3_generators():
    cell = schubert_cell("A2", (1, 2, 1))
    dd = DeletingDerivations(cell.presentation())
    exprs = dd.new_generators(3)
    # x^{(3)}_1 = x_1 + (q^2 - 1)^{-1} x_2 x_3^{-1}; upper generators unchanged
    c = (qpow(2) - ONE).inverse()
    assert exprs[1] == {(1, 0, 0): ONE, (0, 1, -1): c}
    assert exprs[2] == {(0, 1, 0): ONE}
    assert exprs[3] == {(0, 0, 1): ONE}
    assert dd.verify_stage(3, exprs)
    # the series at the top pivot is the theta isomorphism
    assert dd.check_theta_consistency(exprs)


def test_a2_main1b_both_words():
    for word in [(1, 2, 1), (2, 1, 2)]:
        cell = schubert_cell("A2", word)
        rep = verify_main1b(cell)
        assert rep["ok"], rep
        by_j = {c["j"]: c for c in rep["cases"]}
        assert by_j[1]["orbit"] == [1, 3]
        assert by_j[1]["orbit_size"] == 2
        assert by_j[2]["orbit"] == [2]


def test_a2_cauchon_coordinates_of_first_minor(cauchon_coordinates):
    # Delta_1 maps to (q^{-1} - q)^2 xbar_3 xbar_1: orbit size two
    cell = schubert_cell("A2", (1, 2, 1))
    dd = DeletingDerivations(cell.presentation())
    final = cauchon_coordinates(dd, cell.quantum_minor(1))
    coeff = (qpow(-1) - qpow(1)) ** 2
    assert final == {(1, 0, 1): coeff}


def test_top_root_vector_never_changes():
    for label, word in [("A2", (1, 2, 1)), ("B2", (1, 2, 1, 2))]:
        cell = schubert_cell(label, word)
        pres = cell.presentation()
        dd = DeletingDerivations(pres)
        l = pres.l
        finals = dd.run({"top": pres.gen(l)})
        assert finals["top"] == pres.gen(l)


def test_b2_main1b():
    cell = schubert_cell("B2", (1, 2, 1, 2))
    rep = verify_main1b(cell)
    assert rep["ok"], rep
    by_j = {c["j"]: c for c in rep["cases"]}
    assert by_j[1]["orbit"] == [1, 3]
    assert by_j[2]["orbit"] == [2, 4]
    # kappa(1) = 3 has letter 1 (long root in this ordering): the scalar is
    # the orbit-size power of q_{alpha}^{-1} - q_{alpha}
    d1 = cell.d_of[0]
    coeff = (qpow(-d1) - qpow(d1)) ** 2
    (mono, c), = [(m, s) for m, s in
                  ((tuple(m), parse_scalar(s)) for m, s in by_j[1]["computed"])]
    assert mono == (1, 0, 1, 0)
    assert c == coeff


def test_stage_relation_certificate_catches_errors():
    cell = schubert_cell("A2", (1, 2, 1))
    pres = cell.presentation()
    dd = DeletingDerivations(pres)
    exprs = dd.new_generators(3)
    bad = dict(exprs)
    bad[1] = pres.add(bad[1], pres.with_pivot(3).gen(2, 1), qpow(5))
    with pytest.raises(EngineError):
        dd.verify_stage(3, bad)


def test_reexpress_round_trip():
    cell = schubert_cell("A2", (1, 2, 1))
    pres = cell.presentation()
    dd = DeletingDerivations(pres)
    exprs = dd.new_generators(3)
    hi = dd.pivot_presentation(3)
    # evaluate a stage-3 monomial in stage-4 coordinates, then pull it back
    for mono in [(1, 0, 0), (1, 1, 0), (2, 0, 1), (0, 1, 1)]:
        value = hi.one()
        for i in (3, 2, 1):
            for _ in range(mono[i - 1]):
                value = hi.mul(value, exprs[i])
        back = dd.reexpress(3, exprs, value)
        assert back == {mono: ONE}


def test_unreachable_element_raises():
    cell = schubert_cell("A2", (1, 2, 1))
    pres = cell.presentation()
    dd = DeletingDerivations(pres)
    exprs = dd.new_generators(3)
    hi = dd.pivot_presentation(3)
    # x_3^{-1} alone is not in the stage-3 algebra or its allowed window
    with pytest.raises((NotExpressibleError, EngineError)):
        dd.reexpress(3, exprs, hi.gen(3, -7))


def test_reexpress_rejects_bad_elements():
    cell = schubert_cell("A2", (1, 2, 1))
    dd = DeletingDerivations(cell.presentation())
    exprs = dd.new_generators(3)
    hi = dd.pivot_presentation(3)
    # x_1 and x_2 have different degrees, -beta_1 and -beta_2
    with pytest.raises(EngineError):
        dd.reexpress(3, exprs, hi.add(hi.gen(1), hi.gen(2)))
    # x_1 lies below the pivot and is not invertible
    with pytest.raises(NotExpressibleError):
        dd.reexpress(3, exprs, hi.gen(1, -1))


def test_final_relations_and_exponent_matrix(final_presentation):
    cell = schubert_cell("A2", (1, 2, 1))
    rep = verify_main1b(cell)
    # <beta_j, beta_k> for the word (1,2,1): betas a1, a1+a2, a2
    assert rep["fcomm"] == [[2, 1, -1], [1, 2, 1], [-1, 1, 2]]
    final = final_presentation(DeletingDerivations(cell.presentation()))
    for k in range(2, 4):
        for j in range(1, k):
            lhs = final.mul(final.gen(j), final.gen(k))
            rhs = final.scale(final.mul(final.gen(k), final.gen(j)),
                              qpow(rep["fcomm"][j - 1][k - 1]))
            assert lhs == rhs


def test_main1b_across_families():
    # types C and D and rank four, beyond the acceptance list, and the
    # longest words of G2 and B3
    for label, word in [("C3", (1, 2, 3, 2)), ("C3", (3, 2, 3, 1)),
                        ("D4", (1, 2, 3, 4, 2)), ("A4", (2, 1, 3, 2, 4)),
                        ("B2", (2, 1, 2)), ("G2", (1, 2, 1, 2)), ("G2", (2, 1, 2, 1)),
                        ("G2", (1, 2, 1, 2, 1, 2)), ("B3", (1, 2, 3, 1, 2, 3, 1, 2, 3))]:
        rep = verify_main1b(schubert_cell(label, word))
        assert rep["ok"] and rep["anchor_ok"], (label, word)


def test_stage_dumps_serialise():
    chain = schubert_cell("A2", (1, 2, 1)).chain()
    stages = [chain.stage_json(j) for j in (3, 2)]
    assert [s["stage"] for s in stages] == [3, 2]
    for s in stages:
        assert s["certified"]
        assert set(s["generators"]) == {"1", "2", "3"}
