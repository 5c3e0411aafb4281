import hashlib
import heapq
import json
import random
from itertools import count

import pytest

from qschub.qscalar import ONE, qpow
from qschub.linalg import Echelon, accumulate, nullspace
from qschub.modules import build_module, demazure_echelon, DualFunctional, root_coords
from qschub.pbw import EngineError
from qschub.schubert import schubert_cell
from qschub.subwords import lp_index_set
from qschub.ideals import IdealLab, UnsaturatedError, BoundError
from qschub.weyl import default_weight_sweep


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
    return lab.datum.ordered_interval(lab.cell.word.element)


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


def _by_pivot(slices):
    return {h: sorted(zip(e.pivots, e.rows), key=lambda pr: pr[0])
            for h, e in slices.items()}


INTERVALS = pytest.mark.parametrize("label, word, bound, ys", [
    ("A2", (1, 2, 1), 6, None),
    ("B2", (1, 2, 1, 2), 6, None),
    ("A3", (1, 2, 1, 3, 2, 1), 5, [(3,), (2, 1), (1, 3, 2), (1, 2, 1, 3, 2, 1)]),
], ids=["A2", "B2", "A3"])


@INTERVALS
def test_worklist_closure_matches_full_passes(label, word, bound, ys):
    cell = schubert_cell(label, word)
    lab, ref = IdealLab(cell, bound), FullPassLab(cell, bound)
    if ys is None:
        ys = [y.reduced_word() for y in _interval(lab)]
    for y in ys:
        got, want = lab.slices(y), ref.slices(y)
        assert (got.saturated, got.lambdas_used) == (want.saturated, want.lambdas_used)
        assert _by_pivot(got.slices) == _by_pivot(want.slices), y


class NoShortcutLab(IdealLab):
    """Reference sweep, closure and transforms that do every insert and
    elimination, full slices included, and a Cauchon recursion that
    transforms every degree at every step.  It finds a degree's weight
    space by its weight in root coordinates; weight_of maps a module's
    depth key k to that weight lambda - k."""

    def __init__(self, cell, bound, weight_of):
        super().__init__(cell, bound)
        self.weight_of = weight_of

    def _add_weight(self, slices, y_letters, lam_fw):
        """Add the pairing image of one weight; returns the inserted rows as
        (degree, row) pairs.  Back-substitution in a later `Echelon.add`
        replaces list entries and never changes these dicts."""
        cell = self.cell
        module = build_module(self.datum, lam_fw)
        dem = demazure_echelon(module, y_letters)
        dem_by_weight = {}
        for row in dem.rows:
            nu = module.wt_of[next(iter(row))]
            dem_by_weight.setdefault(nu, []).append(row)
        lam = root_coords(self.datum, lam_fw)
        wl = cell.word.element.act(lam)
        depth_of = {self.weight_of(module, k): k for k in module.weights}
        fresh = []
        for h in slices:
            k = depth_of.get(tuple(a + b for a, b in zip(wl, h)))
            if k is None:
                continue
            idxs = module.weights[k]
            rows = [{i: r[i] for i in r if i in idxs}
                    for r in dem_by_weight.get(k, ())]
            orth = nullspace(rows, idxs)
            if not orth:
                continue
            vectors = self._phi_vectors(lam_fw, h)
            for xi_row in orth:
                xi = DualFunctional(module, xi_row)
                el = cell.phi_from_dual(xi, vectors)
                if el and slices[h].add(el):
                    fresh.append((h, slices[h].rows[-1]))
        return fresh

    def _ideal_closure(self, slices, fresh):
        """Close the slices under left and right generator multiplication.

        Sound because the graded pairing image already is the two-sided ideal,
        so products of slice elements with generators stay inside it.  The
        slices were closed before `fresh`, the (degree, row) pairs just
        inserted, and products are bilinear, so only those rows, and the
        products they add, need multiplying.  The worklist is a heap ordered
        by height, then degree, then insertion, so lower degrees are finished
        first, as in a full pass by height."""
        pres, betas = self.pres, self.cell.betas
        heap = []
        seq = count()

        def push(h, row):
            heapq.heappush(heap, (sum(h), h, next(seq), row))

        for h, row in fresh:
            push(h, row)
        while heap:
            _, h, _, row = heapq.heappop(heap)
            for m in range(1, self.l + 1):
                hh = tuple(a + b for a, b in zip(h, betas[m - 1]))
                target = slices.get(hh)
                if target is None:
                    continue
                gen = pres.gen(m)
                for v in (pres.mul(row, gen), pres.mul(gen, row)):
                    if target.add(v):
                        push(hh, target.rows[-1])
        return slices

    def cauchon_diagram(self, slice_set, require_saturated=True):
        if require_saturated and not slice_set.saturated:
            raise UnsaturatedError("slice construction did not saturate")
        slices = slice_set.slices
        diagram = set()
        for t in range(self.l, 0, -1):
            beta = self.cell.betas[t - 1]
            h_pivot = tuple(beta)
            if sum(h_pivot) > self.bound:
                raise BoundError("pivot degree outside bound")
            pivot_mono = tuple(1 if i == t - 1 else 0 for i in range(self.l))
            ech = slices.get(h_pivot)
            pivot_in = ech is not None and ech.contains({pivot_mono: ONE})
            if pivot_in:
                diagram.add(t)
                slices = self._contract(slices, t)
            else:
                slices = self._leading_part(slices, t)
        return frozenset(diagram)

    @staticmethod
    def _combo_elements(rows, coeffs_list):
        """The nonzero combinations sum_i coeffs[i] * rows[i]."""
        out = []
        for coeffs in coeffs_list:
            el = {}
            for i, c in coeffs.items():
                accumulate(el, rows[i], c)
            if el:
                out.append(el)
        return out

    def _contract(self, slices, t):
        """{v in J_h : v free of x_t}, an exact slice-level contraction."""
        out = {}
        for h, ech in slices.items():
            rows = ech.rows
            target = Echelon()
            if rows:
                bad_cols = sorted({m for r in rows for m in r if m[t - 1] != 0})
                if not bad_cols:
                    combos = [{i: ONE} for i in range(len(rows))]
                else:
                    constraint_rows = [{i: rows[i][c] for i in range(len(rows))
                                        if c in rows[i]} for c in bad_cols]
                    combos = nullspace(constraint_rows, list(range(len(rows))))
                for el in self._combo_elements(rows, combos):
                    if any(m[t - 1] for m in el):
                        raise EngineError(f"contraction of degree {h} by x_{t} "
                                          f"left a monomial that involves x_{t}")
                    target.add(el)
            out[h] = target
        return out

    def _leading_part(self, slices, t):
        """lt(J) with respect to x_t: top x_t-coefficients, degreewise."""
        beta = self.cell.betas[t - 1]
        out = {}
        for hp in self.degrees():
            target = Echelon()
            m = 0
            while True:
                h = tuple(a + m * b for a, b in zip(hp, beta))
                if sum(h) > self.bound:
                    break
                ech = slices.get(h)
                if ech is not None and len(ech):
                    rows = ech.rows
                    # combinations with x_t-degree <= m, then the x_t^m layer
                    bad_cols = sorted({mm for r in rows for mm in r if mm[t - 1] > m})
                    if not bad_cols:
                        combos = [{i: ONE} for i in range(len(rows))]
                    else:
                        constraint_rows = [{i: rows[i][c] for i in range(len(rows))
                                            if c in rows[i]} for c in bad_cols]
                        combos = nullspace(constraint_rows, list(range(len(rows))))
                    for el in self._combo_elements(rows, combos):
                        lead = {tuple(0 if i == t - 1 else n for i, n in enumerate(mm)): c
                                for mm, c in el.items() if mm[t - 1] == m}
                        if lead:
                            target.add(lead)
                m += 1
            out[hp] = target
        return out


@INTERVALS
def test_full_slice_shortcuts_change_nothing(label, word, bound, ys, weight_of):
    cell = schubert_cell(label, word)
    lab, ref = IdealLab(cell, bound), NoShortcutLab(cell, bound, weight_of)
    if ys is None:
        ys = [y.reduced_word() for y in _interval(lab)]
    for y in ys:
        got, want = lab.slices(y), ref.slices(y)
        assert (got.saturated, got.lambdas_used) == (want.saturated, want.lambdas_used)
        assert _by_pivot(got.slices) == _by_pivot(want.slices), y
        degrees = lab.degrees()
        for t in range(1, lab.l + 1):
            assert (_by_pivot(lab._contract(got.slices, t, degrees))
                    == _by_pivot(ref._contract(want.slices, t))), (y, t)
            assert (_by_pivot(lab._leading_part(got.slices, t, degrees))
                    == _by_pivot(ref._leading_part(want.slices, t))), (y, t)
        assert lab.cauchon_diagram(got) == ref.cauchon_diagram(want), y


def _multiple(u, v):
    """Whether u = mu * v for some scalar mu, by trying the ratio at one key."""
    if not u:
        return True
    if not v:
        return False
    k = next(iter(v))
    if k not in u:
        return False
    mu = u[k] / v[k]
    return {m: mu * x for m, x in v.items()} == u


@pytest.mark.parametrize("label, word, bound", [
    ("A3", (1, 2, 1, 3, 2, 1), 5),
    ("B2", (1, 2, 1, 2), 6),
], ids=["A3", "B2"])
def test_generator_products_are_the_products_or_skip_a_multiple(label, word, bound):
    lab = IdealLab(schubert_cell(label, word), bound)
    pres = lab.pres
    # both words have relations with tails, so products need not be monomials
    assert pres.tails
    singles = pairs = 0
    unit_rows = set()
    for y in _interval(lab):
        for h, ech in lab.slices(y.reduced_word()).slices.items():
            for row in ech.rows:
                unit_rows.add(len(row) == 1)
                for m in range(1, lab.l + 1):
                    got = lab._generator_products(row, m)
                    gen = pres.gen(m)
                    right, left = pres.mul(row, gen), pres.mul(gen, row)
                    assert got[0] == right
                    if len(got) == 1:
                        singles += 1
                        assert _multiple(left, right), (y, h, m)
                    else:
                        pairs += 1
                        assert len(got) == 2 and got[1] == left
                        assert not _multiple(left, right), (y, h, m)
    # unit rows and longer rows, each product kept or skipped, all occur
    assert singles and pairs and unit_rows == {True, False}


@pytest.mark.parametrize("label, word", [("A3", (1, 2, 1, 3, 2, 1)), ("B2", (1, 2, 1, 2))],
                         ids=["A3", "B2"])
def test_lab_tables_match_the_direct_computation(label, word):
    lab = IdealLab(schubert_cell(label, word), 6)
    degrees, betas = lab.degrees(), lab.cell.betas
    want = {}
    for h in degrees:
        want[h] = []
        for m in range(1, lab.l + 1):
            hh = tuple(a + b for a, b in zip(h, betas[m - 1]))
            if hh in degrees:
                want[h].append((m, hh, len(degrees[hh])))
    assert lab.successors() == want
    # some products leave the bound and some stay inside it
    assert any(len(s) < lab.l for s in want.values()) and any(want.values())
    for t in range(1, lab.l + 1):
        counts = lab.free_counts(t)
        assert counts == {h: len([mono for mono in monos if mono[t - 1] == 0])
                          for h, monos in degrees.items()}
        assert lab.free_counts(t) is counts


@pytest.mark.parametrize("label, word", [("B2", (1, 2, 1, 2)), ("G2", (1, 2, 1, 2, 1, 2))],
                         ids=["B2", "G2"])
def test_weight_keys_and_degrees_are_int_tuples(label, word, weight_of):
    # the module layer keys weight spaces by integer depths, and the lab's
    # degrees are read from them with no fractional weight in between
    lab = IdealLab(schubert_cell(label, word), 6)
    datum, w = lab.datum, lab.cell.word.element
    for lam_fw in default_weight_sweep(datum.rank, 3):
        module = build_module(datum, lam_fw)
        keys = set(module.weights) | set(module.wt_of) | set(module.gram)
        assert keys == set(module.weights)
        assert all(type(x) is int for k in keys for x in k), lam_fw
        lam = root_coords(datum, lam_fw)
        w_lam = w.act(lam)
        drop = lab.cell.weight_drop(lam_fw)
        assert all(type(x) is int for x in drop)
        assert drop == tuple(a - b for a, b in zip(lam, w_lam))
        table = lab._weight_degrees(lam_fw, module)
        assert table
        for h, k, idxs, _ in table:
            assert all(type(x) is int for x in h + k), (lam_fw, h, k)
            assert h == tuple(a - b for a, b in zip(weight_of(module, k), w_lam))
            assert idxs == module.weights[k]


@pytest.mark.parametrize("label, word, bound", [("A3", (1, 2, 1, 3, 2, 1), 6),
                                                ("B2", (1, 2, 1, 2), 6),
                                                ("G2", (1, 2, 1, 2, 1, 2), 10)],
                         ids=["A3", "B2", "G2"])
def test_fundamental_weights_alone_give_the_swept_slices(label, word, bound):
    # an oracle for the weight sweep, measured and not proved: the closed
    # pairing images of the fundamental weights alone equal the slices that
    # the whole sweep reaches, for every y below w.  The sweep itself does
    # not rely on this.
    lab = IdealLab(schubert_cell(label, word), bound)
    rank = lab.datum.rank
    fundamentals = [tuple(int(t == a) for t in range(rank)) for a in range(rank)]
    for y in _interval(lab):
        letters = y.reduced_word()
        swept = lab.slices(letters)
        assert len(swept.lambdas_used) > rank
        slices = {h: Echelon() for h in lab.degrees()}
        for lam_fw in fundamentals:
            fresh = lab._add_weight(slices, letters, lam_fw)
            if fresh:
                lab._ideal_closure(slices, fresh)
        assert _by_pivot(slices) == _by_pivot(swept.slices), y.render()


class _HandBuilt:
    """A presentation whose products are fixed by hand: r x_1 = {a: 1, b: q}
    and x_1 r = left for every row r."""

    right = {"a": ONE, "b": qpow(1)}

    def __init__(self, left):
        self.left = left

    def gen(self, m):
        return {"x": ONE}

    def mul(self, e1, e2):
        return dict(self.left if "x" in e1 else self.right)

    def _mul_mono(self, m1, m2):
        return self.left if m1 == "x" else self.right


@pytest.mark.parametrize("row", [{"r": ONE}, {"r": ONE, "s": qpow(2)}],
                         ids=["unit-row", "longer-row"])
def test_equal_keys_with_unequal_ratios_are_not_proportional(row):
    def products(left):
        lab = IdealLab(schubert_cell("A1", (1,)), 2)
        lab.pres, lab._gen_monos = _HandBuilt(left), [None, "x"]
        return lab._generator_products(row, 1)

    # the same keys, with ratios 1 at a and q at b: both products are kept
    assert products({"a": ONE, "b": qpow(2)}) == (_HandBuilt.right,
                                                  {"a": ONE, "b": qpow(2)})
    # x_1 r = q^2 (r x_1), and x_1 r = 0: the left product is skipped
    assert products({"a": qpow(2), "b": qpow(3)}) == (_HandBuilt.right,)
    assert products({}) == (_HandBuilt.right,)
    # a key that only one side has
    assert len(products({"a": ONE})) == len(products({"a": ONE, "c": ONE})) == 2


def test_membership_criterion_top_root_vector(a2lab):
    # F_{beta_l} lies in the ideal exactly when l is in the LP index set
    pres = a2lab.pres
    word = a2lab.cell.word
    for y in a2lab.datum.ordered_interval(word.element):
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


def test_cauchon_bound_error_names_y_t_and_the_bound_needed():
    # beta_2 = alpha_1 + alpha_2 has height 2, beyond bound 1; step t = 3
    # (beta_3 = alpha_2, height 1) runs first
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 1)
    assert lab.slices((1,)).saturated
    with pytest.raises(BoundError, match=r"y = s1 needs the degree of beta_2, "
                                         r"of height 2, beyond the bound 1; "
                                         r"it needs bound >= 2$"):
        lab.verify_main2((1,))


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


def test_main2_ind_computes_each_target_once_and_keeps_none(built_labs, monkeypatch):
    misses = []
    slices = IdealLab.slices

    def counted(self, y_letters):
        if tuple(y_letters) not in self._slices:
            misses.append((self, tuple(y_letters)))
        return slices(self, y_letters)

    monkeypatch.setattr(IdealLab, "slices", counted)
    lab = IdealLab(schubert_cell("A3", (1, 2, 1, 3, 2, 1)), 6)
    rep = lab.verify_main2_ind_all()
    # the report main2-ind gave when every target was dropped after one use
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "46b9d200ffa446382644fb4d9e39f2cf56b774cfafaedb2b9fb6444ea5a7a1bd"
    long_lab, short_lab = built_labs
    targets = [y for l, y in misses if l is short_lab]
    # 24 ys share 18 distinct targets (y and y.s_last), each computed once
    assert len(targets) == len(set(targets)) == 18
    assert sum(l is long_lab for l, _ in misses) == 24
    assert short_lab._slices == {}
    # a direct call also drops its target after use
    assert lab.verify_main2_ind((1, 2, 1, 3, 2, 1))["ok"]
    assert short_lab._slices == {}


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
