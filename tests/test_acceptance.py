"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check here is exact over Q(q); there are no tolerances anywhere.  The
quantum-minor product formula is asserted with the scalar exponent equal to
the size of the kappa-orbit (the form equivalent to the two-case fraction
formula and forced by the top-minor anchor identity, which is asserted
independently as criterion 3).
"""

import random
import time

import pytest

from qschub.qscalar import ONE, qpow, from_fraction
from qschub.weyl import ReducedWord, root_datum
from qschub.subwords import enumerate_lp, lp_index_set, combinatorial_poset
from qschub.schubert import schubert_cell
from qschub.cauchon import DeletingDerivations, verify_main1b
from qschub.ideals import IdealLab
from qschub.modules import build_module, weight_multiplicities


def _report(num, name, ok, started):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {status} {name} ({time.time() - started:.1f}s)")
    assert ok, f"criterion {num}: {name}"


def _all_words(datum, max_len):
    out = []
    for w in datum.ordered_interval(datum.longest_element()):
        if 0 < w.length <= max_len:
            out.extend(sorted(datum.all_reduced_words(w)))
    return out


MAIN1B_CASES = (
    [("A1", (1,))]
    + [("A2", w) for w in [(1, 2, 1), (2, 1, 2)]]
    + [("B2", (1, 2, 1, 2))]
    + [("A3", w) for w in _all_words(root_datum("A3"), 6)]
    + [("A2", (2, 1))]      # the 2x1 quantum-matrix cell
)


@pytest.fixture(scope="module")
def a2_lab6():
    return IdealLab(schubert_cell("A2", (1, 2, 1)), 6)


def test_criterion_1_subword_combinatorics():
    from qschub.subwords import is_left_positive
    started = time.time()
    ok = True
    words = 0
    for label in ("A1", "A2", "A3", "B2", "G2"):
        datum = root_datum(label)
        for letters in _all_words(datum, 8):
            word = ReducedWord(datum, letters)
            table = enumerate_lp(word)   # internally certifies uniqueness
            interval = datum.lower_interval(word.element)
            ok &= len(table) == len(interval)
            ok &= set(table) == set(interval)
            ok &= len({tuple(sorted(D)) for D in table.values()}) == len(interval)
            # brute force over every subset, straight from the definition
            l = len(letters)
            positives = {}
            for mask in range(1 << l):
                D = frozenset(j + 1 for j in range(l) if mask >> j & 1)
                if is_left_positive(word, D):
                    y = datum.identity
                    for k in sorted(D):
                        y = y * datum.simple(letters[k - 1])
                    ok &= positives.setdefault(y, D) == D  # at most one per y
            ok &= positives == dict(table)
            words += 1
    print(f"\n  criterion 1: {words} reduced words, all 2^l subsets each")
    _report(1, "left positive subwords biject with the Bruhat interval", ok, started)


def test_criterion_2_minor_product_formula():
    started = time.time()
    ok = True
    for label, letters in MAIN1B_CASES:
        rep = verify_main1b(schubert_cell(label, letters))
        if not rep["ok"]:
            print(f"  main1b failed for {label} {letters}")
            ok = False
    print(f"\n  criterion 2: {len(MAIN1B_CASES)} cases, exponent = kappa-orbit size")
    _report(2, "Cauchon coordinates of quantum minors (exact)", ok, started)


def test_criterion_3_anchor_identity():
    started = time.time()
    ok = True
    for label, letters in MAIN1B_CASES:
        cell = schubert_cell(label, letters)
        l = len(letters)
        want = {cell.presentation().unit_mono(l): cell.q_alpha_diff(l)}
        ok &= cell.quantum_minor(l) == want
    _report(3, "top minor equals (q_a^-1 - q_a) F_{beta_l}", ok, started)


def test_criterion_4_final_relation_matrix(final_presentation):
    started = time.time()
    ok = True
    for label, letters in MAIN1B_CASES:
        cell = schubert_cell(label, letters)
        dd = DeletingDerivations(cell.presentation())
        # running the chain certifies each stage's relation table, including
        # the final pure q-commutation stage
        dd.run({})
        final = final_presentation(dd)
        l = cell.l
        for k in range(2, l + 1):
            for j in range(1, k):
                lhs = final.mul(final.gen(j), final.gen(k))
                rhs = final.scale(final.mul(final.gen(k), final.gen(j)),
                                  qpow(cell.datum.pairing(cell.betas[j - 1],
                                                          cell.betas[k - 1])))
                ok &= lhs == rhs
    _report(4, "final generators q-commute by <beta_j, beta_k>", ok, started)


def test_criterion_5_main2(a2_lab6):
    started = time.time()
    ok = True
    a1 = IdealLab(schubert_cell("A1", (1,)), 4)
    for y in [(), (1,)]:
        rep = a1.verify_main2(y)
        ok &= rep["ok"] and rep["saturated"]
    rep = a2_lab6.verify_main2_all()
    ok &= rep["ok"]
    ok &= all(c["saturated"] for c in rep["cases"])
    print("\n  criterion 5: " + "; ".join(
        f"{c['y']}: CD={c['cd']}" for c in rep["cases"]))
    _report(5, "Cauchon diagrams equal left positive index sets", ok, started)


def test_criterion_6_main2_ind(a2_lab6):
    started = time.time()
    ok = True
    for word in [(1, 2, 1), (2, 1, 2)]:
        lab = a2_lab6 if word == (1, 2, 1) else IdealLab(schubert_cell("A2", word), 6)
        rep = lab.verify_main2_ind_all()
        ok &= rep["ok"]
        kinds = {c["case"] for c in rep["cases"]}
        ok &= kinds == {"leading-part", "contraction"}
    _report(6, "one deleting step matches leading part / contraction", ok, started)


def test_criterion_7_poset_isomorphism(a2_lab6):
    started = time.time()
    rep = a2_lab6.ideal_poset()
    ok = rep["ok"]
    combo = combinatorial_poset(a2_lab6.cell.word)
    ok &= len(combo["nodes"]) == 6 and len(combo["edges"]) == 8
    ok &= [n["y"] for n in combo["nodes"]] == rep["nodes"]
    _report(7, "slice inclusion order is the Bruhat hexagon", ok, started)


def test_criterion_8_normality():
    started = time.time()
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 4)
    datum = lab.datum
    ok = True
    for y in datum.ordered_interval(lab.cell.word.element):
        for lam in [(1, 0), (0, 1)]:
            rep = lab.verify_normality(y.reduced_word(), lam)
            ok &= rep["ok"]
    _report(8, "b-element commutation exponents modulo slices", ok, started)


def test_criterion_9_gk_growth():
    started = time.time()
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 8)
    datum = lab.datum
    ok = True
    for y in datum.lower_interval(lab.cell.word.element):
        fit = lab.gk_exponent_fit(y.reduced_word())
        ok &= fit == 3 - y.length
    _report(9, "graded growth exponents are exactly 3 - length", ok, started)


def test_criterion_10_engine_properties(braid_word_matrix, weight_of):
    started = time.time()
    ok = True
    # LS tail support shape on every extracted presentation
    for label, letters in [("A2", (1, 2, 1)), ("A2", (2, 1, 2)), ("B2", (1, 2, 1, 2)),
                           ("A3", (1, 2, 1, 3, 2, 1)), ("G2", (1, 2, 1))]:
        pres = schubert_cell(label, letters).presentation()
        for (k, j), tail in pres.tails.items():
            for mono in tail:
                lo = min(i + 1 for i, n in enumerate(mono) if n)
                hi = max(i + 1 for i, n in enumerate(mono) if n)
                ok &= j < lo and hi < k
    # randomized associativity, >= 10^4 triples total
    rng = random.Random(20260810)
    pres_a2 = schubert_cell("A2", (1, 2, 1)).presentation()
    pres_b2 = schubert_cell("B2", (1, 2, 1, 2)).presentation()
    triples = 0
    for pres, count, maxexp in [(pres_a2, 9000, 2), (pres_b2, 1500, 1)]:
        gens = list(range(1, pres.l + 1))
        for _ in range(count):
            a, b, c = ({tuple(rng.randint(0, maxexp) for _ in range(pres.l)):
                        qpow(rng.randint(-2, 2)) + from_fraction(rng.randint(0, 1))}
                       for _ in range(3))
            ok &= pres.mul(a, pres.mul(b, c)) == pres.mul(pres.mul(a, b), c)
            triples += 1
    ok &= triples >= 10000
    # braid-word independence on both reduced words of w0(A2)
    for lam in [(1, 0), (0, 1), (1, 1)]:
        m = build_module(root_datum("A2"), lam)
        ok &= braid_word_matrix(m, (1, 2, 1)) == braid_word_matrix(m, (2, 1, 2))
    # module dimensions match the Freudenthal oracle for every module that
    # any part of this suite has built
    from qschub.modules import built_modules
    checked = 0
    for (label, lam), module in sorted(built_modules().items()):
        datum = root_datum(label)
        dims = {weight_of(module, k): len(idx) for k, idx in module.weights.items()}
        ok &= dims == weight_multiplicities(datum, lam)
        checked += 1
    ok &= checked >= 6
    print(f"\n  criterion 10: {triples} associativity triples, "
          f"{checked} modules against the dimension oracle")
    _report(10, "engine property suite", ok, started)
