"""A cell extends its prefix cell: operators, relation table and chain stages.

Each test that builds cells empties the cell cache first, so what it sees was
built under it, and nothing it corrupts reaches another test.
"""

import json
import sys
from collections import Counter

import pytest

from qschub import schubert
from qschub.cli import main
from qschub.qscalar import ONE, cauchon_factorial, qpow
from qschub.linalg import accumulate, mat_mul
from qschub.pbw import Presentation, EngineError
from qschub.schubert import SchubertCell, schubert_cell
from qschub.weyl import default_weight_sweep
from qschub.cauchon import DeletingDerivations, verify_main1b

LONGEST = [("A3", (1, 2, 1, 3, 2, 1)), ("B3", (3, 2, 1, 3, 2, 1, 3, 2, 1)),
           ("G2", (1, 2, 1, 2, 1, 2))]


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(schubert, "_CELL_CACHE", {})


def _tails_from_scratch(cell):
    """Every pair (k, j) solved on the word's own operators, on a module sum
    raised until all of them are rank-certified: no prefix table is read."""
    r = cell.datum.rank
    queue = default_weight_sweep(r, r * (r + 3) // 2)
    mods = [queue.pop(0)]
    pairs = [(k, j) for k in range(2, cell.l + 1) for j in range(1, k)]
    while True:
        packs = [cell.ops(lam) for lam in mods]
        tails = {kj: cell._solve_tail(packs, *kj) for kj in pairs}
        if None not in tails.values():
            return {kj: tail for kj, tail in tails.items() if tail}
        mods.append(queue.pop(0))


def test_each_pair_keeps_the_tail_of_the_fewest_modules(empty_cache, monkeypatch):
    # A3 1,2,1,3,2 is rank-certified on the first module except for the
    # pair (5, 2), which alone takes the second
    schubert_cell("A3", (1, 2, 1, 3)).presentation()
    solves = []
    solve = schubert.solve_columns

    def counted(cols, target):
        solves.append(len(cols))
        return solve(cols, target)

    monkeypatch.setattr(schubert, "solve_columns", counted)
    cell = schubert_cell("A3", (1, 2, 1, 3, 2))
    tails = cell.presentation().tails
    # (5, 1) is solved once, on one module, and (5, 2) on one and then on
    # two; (5, 3) and (5, 4) have no candidate monomials, so no solve
    assert len(solves) == 3
    first = [cell.ops((1, 0, 0))]
    on_first = {j: cell._solve_tail(first, 5, j) for j in range(1, 5)}
    assert [j for j, tail in on_first.items() if tail is None] == [2]
    for j, tail in on_first.items():
        if tail is not None:
            assert tails.get((5, j), {}) == tail, j
    assert tails[(5, 2)] == cell._solve_tail(first + [cell.ops((0, 1, 0))], 5, 2)
    assert tails == _tails_from_scratch(SchubertCell(cell.datum, cell.letters))


@pytest.mark.parametrize("label, letters", LONGEST)
def test_extended_table_restricts_to_every_prefix_table(empty_cache, label, letters):
    cell = schubert_cell(label, letters)
    pres = cell.presentation()
    for m in range(1, cell.l):
        prefix = schubert_cell(label, letters[:m]).presentation()
        assert pres.restrict(m).table_text() == prefix.table_text(), m
    assert pres.tails == _tails_from_scratch(SchubertCell(cell.datum, letters))


def test_operators_match_braid_words_from_scratch(empty_cache, braid_word_matrix):
    # F_{beta_j} = T F_{a_j} T^{-1} with T = T_{a_1} ... T_{a_{j-1}}, and the
    # pack's products over the whole word, which longer words extend
    for label, letters, lam in [("A3", (1, 2, 1, 3, 2, 1), (0, 1, 0)),
                                ("B2", (1, 2, 1, 2), (1, 1))]:
        pack = schubert_cell(label, letters).ops(lam)
        module = pack["module"]
        for j, a in enumerate(letters, start=1):
            before = letters[:j - 1]
            fwd = braid_word_matrix(module, before)
            bwd = braid_word_matrix(module, before, invert=True)
            assert pack["F"][j - 1] == mat_mul(mat_mul(fwd, module.F[a]), bwd), j
        assert pack["fwd"] == braid_word_matrix(module, letters)
        assert pack["bwd"] == braid_word_matrix(module, letters, invert=True)


def test_only_the_tail_solve_builds_packs(empty_cache, monkeypatch):
    # the pairing reads single-letter operators of the module, so in a main2
    # run only the tail solve asks for a pack (a pack extends its prefix
    # cell's), and every cached cell holds packs of the tail sweep's weights
    callers = Counter()
    ops = SchubertCell.ops

    def recorded(self, lam_fw):
        callers[sys._getframe(1).f_code.co_name] += 1
        return ops(self, lam_fw)

    monkeypatch.setattr(SchubertCell, "ops", recorded)
    assert main(["verify", "main2", "--type", "G2", "--word", "1,2,1,2,1,2",
                 "--bound", "10"]) == 0
    assert set(callers) == {"_solve_all_tails", "ops"}
    sweep = set(default_weight_sweep(2, min(schubert.MODULE_SET_CAP, 5)))
    assert len(schubert._CELL_CACHE) == 7
    for cell in schubert._CELL_CACHE.values():
        assert set(cell._ops) <= sweep, cell.letters
        for pack in cell._ops.values():
            assert set(pack) == {"module", "F", "fwd", "bwd"}


def _series(dd, j):
    """Stage-j generators summed directly in this word's own stage-(j+1)
    algebra, for every generator index: the series the chain computes at
    its top pivot only."""
    hi = dd.pivot_presentation(j)
    qj = dd.orig.qself[j]
    exprs = {}
    for i in range(1, dd.l + 1):
        if i >= j:
            exprs[i] = hi.gen(i)
            continue
        out, m = {}, 0
        while True:
            num = hi.dd_term(j, hi.gen(i), m)
            if not num:
                break
            coeff = ((ONE - qj) ** (-m)) * cauchon_factorial(m, qj).inverse()
            accumulate(out, hi.mul(num, hi.gen(j, -m)) if m else num, coeff)
            m += 1
        exprs[i] = out
    return exprs


@pytest.mark.parametrize("label, letters", [("A3", (1, 2, 1, 3, 2, 1)), ("B2", (1, 2, 1, 2))])
def test_stage_generators_are_the_prefix_ones_padded(empty_cache, label, letters):
    cell = schubert_cell(label, letters)
    chain = cell.chain()
    prefix = cell.prefix_cell().chain()
    for j in range(2, cell.l + 1):
        exprs = chain.stage(j)
        assert exprs == _series(chain, j), j
        if j < cell.l:
            padded = {i: {m + (0,): c for m, c in e.items()}
                      for i, e in prefix.stage(j).items()}
            assert {i: e for i, e in exprs.items() if i < cell.l} == padded, j
    # a bare presentation's chain, built on its restriction, agrees
    bare = DeletingDerivations(cell.presentation())
    for j in range(2, cell.l + 1):
        assert bare.stage(j) == chain.stage(j), j


def test_stage_below_the_top_rejects_generators_not_from_the_prefix(empty_cache):
    cell = schubert_cell("A3", (1, 2, 1, 3))
    chain = cell.chain()
    exprs = dict(chain.stage(3))
    hi = chain.pivot_presentation(3)
    exprs[1] = hi.add(exprs[1], hi.gen(1), qpow(2))
    with pytest.raises(EngineError, match="stage 3: generator 1 differs"):
        chain.verify_stage(3, exprs)


def _campaign_reports(tmp_path, name, lines):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("".join(f"case = {line}\n" for line in lines))
    out = tmp_path / f"{name}.json"
    assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
    return {(r["type"], tuple(r["word"])): (r["report"], r["relation_table"])
            for r in json.loads(out.read_text())["results"]}


def test_campaign_results_do_not_depend_on_case_order(tmp_path, monkeypatch):
    a2_longest_first = ["A2 : 1,2,1 : main1b", "A2 : 2,1,2 : main1b", "A2 : 1,2 : main1b",
                        "A2 : 2,1 : main1b", "A2 : 1 : main1b", "A2 : 2 : main1b"]
    orders = {"forward": ["A2 : all<=3 : main1b", "B2 : 1,2,1,2 : main1b"],
              "backward": ["B2 : 1,2,1,2 : main1b", "A2 : all<=3 : main1b"],
              "longest-first": ["B2 : 1,2,1,2 : main1b"] + a2_longest_first}
    runs = {}
    for name, lines in orders.items():
        monkeypatch.setattr(schubert, "_CELL_CACHE", {})
        runs[name] = _campaign_reports(tmp_path, name, lines)
    assert runs["forward"] == runs["backward"] == runs["longest-first"]
    assert len(runs["forward"]) == 7
    for (label, word), (report, _) in runs["forward"].items():
        monkeypatch.setattr(schubert, "_CELL_CACHE", {})
        alone = tmp_path / "alone.json"
        assert main(["verify", "main1b", "--type", label,
                     "--word", ",".join(map(str, word)), "--out", str(alone)]) == 0
        assert json.loads(alone.read_text()) == report, (label, word)


def test_every_certificate_runs_once_per_distinct_prefix(tmp_path, monkeypatch):
    # stage relation checks by (word, stage, pair), and CGL nilpotency
    # certificates (each beside its sigma-delta twist check) by (word, index,
    # generator), over a campaign holding every prefix of its words; a
    # word's certificates are keyed by its cell's presentation object
    monkeypatch.setattr(schubert, "_CELL_CACHE", {})
    relations, nilpotency = [], []
    check = DeletingDerivations._check_relation
    nilpotent = Presentation.delta_nilpotency

    def counted_check(self, hi, j, exprs, k, i):
        relations.append((self.orig, j, k, i))
        return check(self, hi, j, exprs, k, i)

    def counted_nilpotency(self, k, e):
        nilpotency.append((self, k, tuple(e)))
        return nilpotent(self, k, e)

    monkeypatch.setattr(DeletingDerivations, "_check_relation", counted_check)
    monkeypatch.setattr(Presentation, "delta_nilpotency", counted_nilpotency)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = A3 : all<=4 : main1b\n")
    assert main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
    words = [tuple(r["word"]) for r in json.loads((tmp_path / "r.json").read_text())["results"]]
    want_relations, want_nilpotency = [], []
    for u in {w[:m] for w in words for m in range(2, len(w) + 1)}:
        pres, m = schubert_cell("A3", u).presentation(), len(u)
        for j in range(2, m + 1):
            ks = range(2, m + 1) if j == m else (m,)
            want_relations += [(pres, j, k, i) for k in ks for i in range(1, k)]
        want_nilpotency += [(pres, m, (pres.unit_mono(i),)) for i in range(1, m)]
    assert Counter(relations) == Counter(want_relations)
    assert max(Counter(relations).values()) == 1
    assert Counter(nilpotency) == Counter(want_nilpotency)
    assert max(Counter(nilpotency).values()) == 1


@pytest.mark.parametrize("label, letters", [("B2", (1, 2, 1, 2)), ("A3", (1, 2, 1, 3))])
def test_corrupted_prefix_tail_fails_the_extension(empty_cache, label, letters):
    # a rescaled tail in the cached prefix cell is padded into the extension;
    # its top-stage certificate or its main1b comparison must catch it
    prefix = schubert_cell(label, letters[:-1])
    good = prefix.presentation()
    tails = {kj: dict(t) for kj, t in good.tails.items()}
    (mono, c), = tails[(3, 1)].items()
    tails[(3, 1)] = {mono: c * qpow(4)}
    prefix._presentation = Presentation(good.l, good.lam, tails, qself=good.qself,
                                        degs=good.degs)
    cell = schubert_cell(label, letters)
    if label == "B2":
        with pytest.raises(EngineError, match="stage 4: relation"):
            verify_main1b(cell)
    else:
        rep = verify_main1b(cell)
        assert not rep["ok"]
        assert not rep["cases"][0]["ok"]
