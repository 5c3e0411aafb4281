from itertools import product

import pytest

from qschub.qscalar import ONE, qpow, q_factorial
from qschub.linalg import mat_vec
from qschub.weyl import root_datum
from qschub.pbw import EngineError
from qschub.schubert import SchubertCell, schubert_cell
from qschub.modules import build_module, root_coords
from qschub.subwords import successor_table


def test_a1_minor_is_scaled_generator():
    cell = schubert_cell("A1", (1,))
    pres = cell.presentation()
    minor = cell.quantum_minor(1)
    assert minor == {(1,): qpow(-1) - qpow(1)}
    assert pres.l == 1


def test_a2_root_vector_operators():
    cell = schubert_cell("A2", (1, 2, 1))
    for lam in [(1, 0), (0, 1)]:
        pack = cell.ops(lam)
        module = pack["module"]
        # T_1 T_2 (F_1) = F_2 in A2: the third root vector operator is plain F_2
        assert pack["F"][2] == module.F[2]
        assert pack["F"][0] == module.F[1]
        for j in range(3):
            assert pack["F"][j], "root vector operators are nonzero"


def test_tau_e_operators_shift_weights_up():
    # tauE_{beta_j} raises weights by beta_j, so each pairing vector of
    # degree h lies in the weight space of depth (lambda - w(lambda)) - h
    cell = schubert_cell("A2", (1, 2, 1))
    module = build_module(cell.datum, (1, 0))
    drop = cell.weight_drop((1, 0))
    seen = 0
    for h in product(*(range(x + 1) for x in drop)):
        depth = tuple(a - b for a, b in zip(drop, h))
        for vec in cell.phi_vectors((1, 0), h).values():
            assert vec and {module.wt_of[i] for i in vec} == {depth}, h
            seen += 1
    assert seen


def test_tau_e_base_case_is_plain_e():
    # level 1 takes no braid conjugation: the x_1 power of degree beta_1
    # pairs with E_{a_1} applied to the extremal vector T^{-1}_{w^{-1}} v
    cell = schubert_cell("A2", (2, 1))
    module = build_module(cell.datum, (0, 1))
    want = mat_vec(module.E[2], module.tminus_winv_vector(cell.letters))
    vectors = cell.phi_vectors((0, 1), cell.betas[0])
    assert vectors[(1, 0)] == {i: cell.pair_prefactor(1, 1) * c for i, c in want.items()}


PAIRING_HEIGHT = 8


@pytest.mark.parametrize("label, letters, lam", [
    ("A3", (1, 2, 1, 3, 2, 1), (0, 1, 0)), ("A3", (1, 2, 1, 3, 2, 1), (1, 0, 1)),
    ("B2", (1, 2, 1, 2), (1, 1)), ("G2", (1, 2, 1, 2, 1, 2), (1, 0))])
def test_phi_vectors_match_the_conjugated_product(label, letters, lam, tau_e_reference):
    # phi_vectors telescopes the braid conjugations; against the definition,
    # prefactor * tauE_{beta_1}^{m_1} ... tauE_{beta_l}^{m_l} T^{-1}_{w^{-1}} v
    # with each tauE_{beta_j} built from whole braid words, at every degree
    # of height up to PAIRING_HEIGHT, which passes each case's top degree
    # lambda - w(lambda)
    cell = schubert_cell(label, letters)
    tau_e, u_w = tau_e_reference(build_module(cell.datum, lam), letters)

    def prefactor(j, m):
        d = cell.d_of[j - 1]
        return (qpow(-d) - qpow(d)) ** m * qpow(-d * (m * (m - 1) // 2)) / q_factorial(m, d)

    def conjugated(h):
        out = {}

        def walk(j, remaining, mono, vec, coeff):
            if j == 0:
                if not any(remaining):
                    out[tuple(mono)] = {i: coeff * c for i, c in vec.items()}
                return
            beta, m = cell.betas[j - 1], 0
            while vec and all(r >= m * b for r, b in zip(remaining, beta)):
                mono[j - 1] = m
                walk(j - 1, tuple(r - m * b for r, b in zip(remaining, beta)), mono,
                     vec, coeff * prefactor(j, m))
                vec, m = mat_vec(tau_e[j - 1], vec), m + 1
            mono[j - 1] = 0

        walk(cell.l, h, [0] * cell.l, u_w, ONE)
        return out

    assert sum(cell.weight_drop(lam)) < PAIRING_HEIGHT
    nonzero = 0
    for h in product(range(PAIRING_HEIGHT + 1), repeat=cell.datum.rank):
        if sum(h) <= PAIRING_HEIGHT:
            want = conjugated(h)
            assert cell.phi_vectors(lam, h) == want, h
            nonzero += len(want)
    assert nonzero


def test_a2_presentation_scalars_and_tails():
    cell = schubert_cell("A2", (1, 2, 1))
    pres = cell.presentation()
    assert pres.lam[(2, 1)] == qpow(-1)
    assert pres.lam[(3, 2)] == qpow(-1)
    assert pres.lam[(3, 1)] == qpow(1)
    # adjacent pairs straighten without tails; the outer pair has a single
    # tail monomial proportional to the middle root vector
    assert (2, 1) not in pres.tails
    assert (3, 2) not in pres.tails
    tail = pres.tails[(3, 1)]
    assert set(tail) == {(0, 1, 0)}
    assert not tail[(0, 1, 0)].is_zero()


def test_presentation_independent_of_module_set():
    # each pair's tail, unique on one module, is the tail on three
    cell = SchubertCell(root_datum("A2"), (1, 2, 1))
    small = [cell.ops((1, 0))]
    large = [cell.ops((1, 0)), cell.ops((0, 1)), cell.ops((1, 1))]
    tails = {}
    for k, j in [(2, 1), (3, 1), (3, 2)]:
        tail = cell._solve_tail(small, k, j)
        assert tail is not None and tail == cell._solve_tail(large, k, j), (k, j)
        if tail:
            tails[(k, j)] = tail
    assert set(tails) == {(3, 1)}
    assert tails == cell.presentation().tails


def test_b2_and_g2_presentations_are_cgl():
    for label, letters in [("B2", (1, 2, 1, 2)), ("G2", (1, 2, 1))]:
        cell = schubert_cell(label, letters)
        pres = cell.presentation()  # includes the CGL certificate
        for (k, j), tail in pres.tails.items():
            for mono in tail:
                assert all(mono[t] == 0 for t in range(j))
                assert all(mono[t] == 0 for t in range(k - 1, pres.l))


def minor_degree(cell, j):
    """(w - y) applied to the fundamental weight, as an integer vector: the
    Q-degree of Delta_j in the deg F_{beta} = -beta convention."""
    lam = root_coords(cell.datum, cell.fundamental_fw(j))
    y = cell.datum.from_word(cell.letters[:j - 1])
    w = cell.word.element
    diff = tuple(a - b for a, b in zip(w.act(lam), y.act(lam)))
    assert all(x.denominator == 1 for x in diff), diff
    return tuple(int(x) for x in diff)


def verify_leading_term(cell, j):
    """Delta_j minus its one-step factorisation lies in the subalgebra on
    indices > j; returns the support report (empty difference support)."""
    pres = cell.presentation()
    minor = cell.quantum_minor(j)
    coeff = cell.q_alpha_diff(j)
    kappa = successor_table(cell.word)[0][j - 1]
    if kappa is not None:
        lead = pres.mul(cell.quantum_minor(kappa), pres.gen(j))
    else:
        lead = pres.gen(j)
    diff = pres.add(minor, lead, -coeff)
    bad = [m for m in diff if any(m[t] for t in range(j))]
    return {"j": j, "kappa": kappa, "ok": not bad, "bad": bad}


def minor_commutation_exponent(cell, j, k):
    """Delta_j Delta_k = q^n Delta_k Delta_j; returns n or raises."""
    pres = cell.presentation()
    p = pres.mul(cell.quantum_minor(j), cell.quantum_minor(k))
    q = pres.mul(cell.quantum_minor(k), cell.quantum_minor(j))
    mono = next(iter(p))
    ratio = p[mono] / q[mono]
    n = ratio.as_q_power()
    if n is None or pres.add(p, q, -ratio):
        raise EngineError(f"minors {j},{k} are not q-proportional")
    return n


def test_minor_degrees_and_homogeneity():
    for label, letters in [("A2", (1, 2, 1)), ("A2", (2, 1, 2)), ("B2", (1, 2, 1, 2))]:
        cell = schubert_cell(label, letters)
        pres = cell.presentation()
        for j in range(1, len(letters) + 1):
            minor = cell.quantum_minor(j)
            assert pres.degree(minor) == minor_degree(cell, j)


def test_anchor_identity_top_minor():
    for label, letters in [("A1", (1,)), ("A2", (1, 2, 1)), ("A2", (2, 1, 2)),
                           ("B2", (1, 2, 1, 2)), ("A3", (1, 2, 1, 3, 2, 1))]:
        cell = schubert_cell(label, letters)
        l = len(letters)
        minor = cell.quantum_minor(l)
        assert minor == {cell.presentation().unit_mono(l): cell.q_alpha_diff(l)}


def test_leading_term_factorisation():
    for label, letters in [("A2", (1, 2, 1)), ("A2", (2, 1, 2)), ("B2", (1, 2, 1, 2))]:
        cell = schubert_cell(label, letters)
        for j in range(1, len(letters) + 1):
            report = verify_leading_term(cell, j)
            assert report["ok"], report


def test_leading_term_support_example():
    # Delta_1 - (q^-1 - q) Delta_3 x_1 is supported on indices {2, 3} only
    cell = schubert_cell("A2", (1, 2, 1))
    pres = cell.presentation()
    minor = cell.quantum_minor(1)
    lead = pres.scale(pres.mul(cell.quantum_minor(3), pres.gen(1)), cell.q_alpha_diff(1))
    diff = pres.add(minor, lead, -ONE)
    assert diff, "difference should be a nonzero tail here"
    for mono in diff:
        assert mono[0] == 0


def test_b_element_identity_case():
    cell = schubert_cell("A2", (1, 2, 1))
    for lam in [(1, 0), (0, 1), (1, 1)]:
        b = cell.b_element((1, 2, 1), lam)
        assert b == cell.presentation().one()
    # lam = 0 gives 1 as well
    assert cell.b_element((), (0, 0)) == cell.presentation().one()


def test_b_element_degree_and_nonzero():
    cell = schubert_cell("A2", (1, 2, 1))
    pres = cell.presentation()
    datum = cell.datum
    w = cell.word.element
    for y_letters in [(), (1,), (2,), (1, 2), (2, 1)]:
        for lam_fw in [(1, 0), (0, 1)]:
            b = cell.b_element(y_letters, lam_fw)
            assert b
            lam = root_coords(datum, lam_fw)
            y = datum.from_word(y_letters)
            want = tuple(int(a - b2) for a, b2 in
                         zip(w.act(lam), y.act(lam)))
            assert pres.degree(b) == want


def test_minor_q_commutation():
    cell = schubert_cell("A2", (1, 2, 1))
    seen = {}
    for j in range(1, 4):
        for k in range(j + 1, 4):
            seen[(j, k)] = minor_commutation_exponent(cell, j, k)
    assert set(seen) == {(1, 2), (1, 3), (2, 3)}


def test_subalgebra_closure():
    # products of generators x_1..x_j stay supported on indices <= j
    cell = schubert_cell("B2", (1, 2, 1, 2))
    pres = cell.presentation()
    for j in range(1, 5):
        for a in range(1, j + 1):
            for b in range(1, j + 1):
                prod = pres.mul(pres.gen(a), pres.gen(b))
                for mono in prod:
                    assert all(mono[t] == 0 for t in range(j, pres.l))


def test_module_set_cap_names_the_word_and_pair(monkeypatch):
    # A3 1,2,1,3 is rank-certified on one module; 1,2,1,3,2 needs a second
    from qschub import schubert
    monkeypatch.setattr(schubert, "_CELL_CACHE", {})
    monkeypatch.setattr(schubert, "MODULE_SET_CAP", 1)
    schubert_cell("A3", (1, 2, 1, 3)).presentation()
    with pytest.raises(EngineError, match=r"word \(1, 2, 1, 3, 2\): pair \(5, \d\) is "
                                          r"still rank-deficient on 1 modules "
                                          r"\(MODULE_SET_CAP = 1\)"):
        schubert_cell("A3", (1, 2, 1, 3, 2)).presentation()
    monkeypatch.setattr(schubert, "MODULE_SET_CAP", 2)
    schubert_cell("A3", (1, 2, 1, 3, 2)).presentation()
