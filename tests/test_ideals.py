import random

import pytest

from qschub.qscalar import ONE, qpow
from qschub.schubert import schubert_cell
from qschub.subwords import lp_index_set
from qschub.ideals import IdealLab, UnsaturatedError, BoundError, default_weight_sweep


@pytest.fixture(scope="module")
def a2lab():
    return IdealLab(schubert_cell("A2", (1, 2, 1)), 6)


@pytest.fixture(scope="module")
def a1lab():
    return IdealLab(schubert_cell("A1", (1,)), 4)


def test_weight_sweep_order():
    assert default_weight_sweep(1, 4) == [(1,), (2,), (3,), (4,)]
    sweep = default_weight_sweep(2, 5)
    assert sweep == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_a1_orientation_anchor(a1lab):
    # the identity gives the zero ideal, the reflection the augmentation ideal
    zero = a1lab.slices(())
    assert zero.saturated and all(len(e) == 0 for e in zero.slices.values())
    full = a1lab.slices((1,))
    assert full.saturated
    for h, monos in a1lab.degrees().items():
        if sum(h) == 0:
            assert full.dim(h) == 0
        else:
            assert full.dim(h) == len(monos)  # (F): everything in degree >= 1
    assert a1lab.verify_main2(())["ok"]
    assert a1lab.verify_main2((1,))["ok"]


def test_zero_and_augmentation_ideals_a2(a2lab):
    zero = a2lab.slices(())
    assert all(len(e) == 0 for e in zero.slices.values())
    aug = a2lab.slices((1, 2, 1))
    for h, monos in a2lab.degrees().items():
        want = 0 if sum(h) == 0 else len(monos)
        assert aug.dim(h) == want


def _interval(lab):
    return sorted(lab.datum.lower_interval(lab.cell.word.element),
                  key=lambda u: (u.length, u.render()))


def test_slices_are_ideal_closed(a2lab):
    pres = a2lab.pres
    for y in _interval(a2lab):
        sl = a2lab.slices(y.reduced_word())
        for h, ech in sl.slices.items():
            for row in ech.rows:
                for m in range(1, 4):
                    hh = tuple(a + b for a, b in zip(h, a2lab.cell.betas[m - 1]))
                    if sum(hh) > a2lab.bound:
                        continue
                    assert sl.contains(hh, pres.mul(row, pres.gen(m))), y.render()
                    assert sl.contains(hh, pres.mul(pres.gen(m), row)), y.render()


class FullPassLab(IdealLab):
    """Reference closure: pass over every row of every slice, by height, until
    a whole pass adds nothing."""

    def _ideal_closure(self, slices, fresh):
        pres = self.pres
        order = sorted(slices, key=lambda h: (sum(h), h))
        changed = True
        while changed:
            changed = False
            for h in order:
                rows = list(slices[h].rows)
                for m in range(1, self.l + 1):
                    hh = tuple(a + b for a, b in zip(h, self.cell.betas[m - 1]))
                    target = slices.get(hh)
                    if target is None:
                        continue
                    gen = pres.gen(m)
                    for v in rows:
                        changed |= target.add(pres.mul(v, gen))
                        changed |= target.add(pres.mul(gen, v))
        return slices


def _by_pivot(sl):
    return {h: sorted(zip(e.pivots, e.rows), key=lambda pr: pr[0])
            for h, e in sl.slices.items()}


@pytest.mark.parametrize("label, word, bound, ys", [
    ("A2", (1, 2, 1), 6, None),
    ("B2", (1, 2, 1, 2), 6, None),
    ("A3", (1, 2, 1, 3, 2, 1), 5, [(3,), (2, 1), (1, 3, 2), (1, 2, 1, 3, 2, 1)]),
], ids=["A2", "B2", "A3"])
def test_worklist_closure_matches_full_passes(label, word, bound, ys):
    cell = schubert_cell(label, word)
    lab, ref = IdealLab(cell, bound), FullPassLab(cell, bound)
    if ys is None:
        ys = [y.reduced_word() for y in _interval(lab)]
    for y in ys:
        got, want = lab.slices(y), ref.slices(y)
        assert (got.saturated, got.lambdas_used) == (want.saturated, want.lambdas_used)
        assert _by_pivot(got) == _by_pivot(want), y


def test_membership_criterion_top_root_vector(a2lab):
    # F_{beta_l} lies in the ideal exactly when l is in the LP index set
    pres = a2lab.pres
    word = a2lab.cell.word
    for y in sorted(a2lab.datum.lower_interval(word.element),
                    key=lambda u: (u.length, u.render())):
        sl = a2lab.slices(y.reduced_word())
        lp = lp_index_set(word, y)
        in_ideal = a2lab.membership(pres.gen(3), sl)
        assert in_ideal == (3 in lp), y.render()


def test_b_elements_not_in_ideal(a2lab):
    for y_letters in [(), (1,), (2, 1), (1, 2, 1)]:
        sl = a2lab.slices(y_letters)
        for lam in [(1, 0), (0, 1)]:
            b = a2lab.cell.b_element(y_letters, lam)
            if sum(-x for x in a2lab.pres.degree(b)) <= a2lab.bound:
                assert not a2lab.membership(b, sl)


def test_membership_of_zero_and_bound_error(a2lab):
    sl = a2lab.slices((1,))
    assert a2lab.membership({}, sl)
    pres = a2lab.pres
    with pytest.raises(BoundError):
        a2lab.membership(pres.gen(2, 4), sl)  # height 8 exceeds bound 6


def test_main2_all_a2(a2lab):
    rep = a2lab.verify_main2_all()
    assert rep["ok"]
    by_y = {c["y"]: c for c in rep["cases"]}
    assert by_y["e"]["cd"] == []
    assert by_y["s1"]["cd"] == [1]
    assert by_y["s2"]["cd"] == [2]
    assert by_y["s1.s2"]["cd"] == [1, 2]
    assert by_y["s2.s1"]["cd"] == [2, 3]
    assert by_y["s1.s2.s1"]["cd"] == [1, 2, 3]
    assert all(c["saturated"] for c in rep["cases"])


def test_main2_other_word(a2lab):
    lab = IdealLab(schubert_cell("A2", (2, 1, 2)), 6)
    rep = lab.verify_main2_all()
    assert rep["ok"]


def test_main2_b2_full_interval():
    lab = IdealLab(schubert_cell("B2", (1, 2, 1, 2)), 6)
    rep = lab.verify_main2_all()
    assert rep["ok"]
    assert len(rep["cases"]) == 8
    assert all(c["saturated"] for c in rep["cases"])


def test_main2_ind_b2():
    lab = IdealLab(schubert_cell("B2", (1, 2, 1, 2)), 6)
    rep = lab.verify_main2_ind_all()
    assert rep["ok"]
    kinds = [c["case"] for c in rep["cases"]]
    assert kinds.count("contraction") == 2  # l=4 sits in LP only above s2.s1.s2


def test_main2_ind_a3_full_interval(built_labs):
    lab = IdealLab(schubert_cell("A3", (1, 2, 1, 3, 2, 1)), 5)
    rep = lab.verify_main2_ind_all()
    assert rep["ok"]
    kinds = [c["case"] for c in rep["cases"]]
    assert kinds.count("contraction") == 6  # y with 6 in LP(y)
    # one lab for the long word and one for the shorter word, shared by all 24 y
    assert len(built_labs) == 2


def test_main2_ind_refuses_a_bound_that_compares_nothing():
    # at bound 2 the leading-part case of A2 1,2,1 (ht beta_3 = 1) would
    # compare only degree 0, and report "ok" without a comparison
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 2)
    with pytest.raises(BoundError, match=r"y = e \(leading-part case\).* "
                                         r"bound 2; it needs bound >= 3"):
        lab.verify_main2_ind_all()
    with pytest.raises(BoundError, match="needs bound >= 1"):
        IdealLab(schubert_cell("A2", (1, 2, 1)), 0).verify_main2_ind((2, 1))
    assert IdealLab(schubert_cell("A2", (1, 2, 1)), 3).verify_main2_ind_all()["ok"]


def test_main2_a3_full_interval():
    # a 24-element interval with six generators; the saturation rule must not
    # fire before the fundamental weight relevant to each y has been tried
    lab = IdealLab(schubert_cell("A3", (1, 2, 1, 3, 2, 1)), 5)
    rep = lab.verify_main2_all()
    assert rep["ok"]
    assert len(rep["cases"]) == 24
    by_y = {c["y"]: c for c in rep["cases"]}
    assert by_y["s3"]["cd"] == [4]


def test_main2_ind_a2(a2lab):
    rep = a2lab.verify_main2_ind_all()
    assert rep["ok"]
    cases = {c["y"]: c["case"] for c in rep["cases"]}
    # l = 3 sits in LP(y) exactly for y in {s2.s1, w0}
    assert cases["s2.s1"] == "contraction"
    assert cases["s1.s2.s1"] == "contraction"
    assert cases["e"] == "leading-part"
    assert cases["s1"] == "leading-part"
    assert cases["s1.s2"] == "leading-part"


def test_ideal_poset_is_bruhat(a2lab):
    rep = a2lab.ideal_poset()
    assert rep["ok"]
    incl = {(p["low"], p["high"]): p["included"] for p in rep["pairs"]}
    assert incl[("e", "s1.s2.s1")] is True
    assert incl[("s1.s2", "s2.s1")] is False
    assert incl[("s1", "s1.s2")] is True


def test_gk_growth_exponents():
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 8)
    for letters, ln in [((), 0), ((1,), 1), ((2,), 1), ((1, 2), 2),
                        ((2, 1), 2), ((1, 2, 1), 3)]:
        assert lab.gk_exponent_fit(letters) == 3 - ln


def test_quotient_complete_primeness_sampled(a2lab):
    # no product of two nonmembers lands in the ideal (sampled)
    rng = random.Random(99)
    pres = a2lab.pres
    for y_letters in [(1,), (2, 1)]:
        sl = a2lab.slices(y_letters)
        degs = [h for h in a2lab.degrees() if 0 < sum(h) <= 3]
        for _ in range(60):
            h1, h2 = rng.choice(degs), rng.choice(degs)
            if sum(h1) + sum(h2) > a2lab.bound:
                continue
            monos1 = a2lab.degrees()[h1]
            monos2 = a2lab.degrees()[h2]
            e1 = {rng.choice(monos1): ONE, rng.choice(monos1): qpow(rng.randint(-1, 1))}
            e2 = {rng.choice(monos2): ONE}
            if a2lab.membership(e1, sl) or a2lab.membership(e2, sl):
                continue
            assert not a2lab.membership(pres.mul(e1, e2), sl)


def test_normality_b_elements():
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 4)
    for y_letters in [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]:
        for lam in [(1, 0), (0, 1)]:
            rep = lab.verify_normality(y_letters, lam)
            assert rep["ok"], rep


def test_normality_trivial_lambda():
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 4)
    rep = lab.verify_normality((1,), (0, 0))
    assert rep["ok"]
    assert all(c["exponent"] == 0 for c in rep["checks"])
    assert lab.cell.b_element((1,), (0, 0)) == lab.pres.one()
