"""Negative controls: every verifier must be able to fail on corrupted input."""

import ast
import pathlib
import re

import pytest

import qschub
from qschub.qscalar import ONE, qpow
from qschub.pbw import Presentation, EngineError
from qschub.schubert import schubert_cell
from qschub.cauchon import DeletingDerivations, verify_main1b
from qschub.ideals import IdealLab
from qschub.weyl import root_datum


def test_bad_tail_changes_chain_output():
    # a rescaled tail is still a consistent Ore algebra, so the stage
    # certificates rightly pass; the corruption surfaces when the true
    # minors are pushed down the wrong chain
    cell = schubert_cell("A2", (1, 2, 1))
    good = cell.presentation()
    tails = {kj: dict(t) for kj, t in good.tails.items()}
    tails[(3, 1)] = {(0, 1, 0): tails[(3, 1)][(0, 1, 0)] * qpow(4)}
    bad = Presentation(good.l, good.lam, tails, qself=good.qself, degs=good.degs)
    good_gen = DeletingDerivations(good).new_generators(3)
    bad_gen = DeletingDerivations(bad).new_generators(3)
    assert good_gen[1] != bad_gen[1]
    finals = DeletingDerivations(bad).run({1: cell.quantum_minor(1)})
    coeff = (qpow(-1) - qpow(1)) ** 2
    assert finals[1] != {(1, 0, 1): coeff}


def test_bad_lambda_fails_tail_solve():
    # a wrong q-commutation scalar makes the tail land outside the span; on
    # B2 2,1,2 the first module of the sweep already sees it
    from qschub.weyl import root_datum
    from qschub.schubert import SchubertCell
    cell = SchubertCell(root_datum("B2"), (2, 1, 2))
    orig = cell.lam_scalar
    cell.lam_scalar = lambda k, j: orig(k, j) * (qpow(2) if (k, j) == (3, 1) else ONE)
    with pytest.raises(EngineError, match=r"tail of \(3,1\) is outside the candidate span"):
        cell._solve_all_tails()


def test_corrupted_minor_fails_main1b_comparison():
    cell = schubert_cell("A2", (2, 1, 2))
    pres = cell.presentation()
    minors = {j: cell.quantum_minor(j) for j in (1, 2, 3)}
    minors[1] = pres.scale(minors[1], qpow(3))
    dd = DeletingDerivations(pres)
    finals = dd.run(minors)
    from qschub.subwords import kappa_orbit
    orbit = kappa_orbit(cell.word, 1)
    mono = tuple(1 if (t + 1) in orbit else 0 for t in range(3))
    assert finals[1] != {mono: cell.q_alpha_diff(1) ** len(orbit)}


def test_wrong_lp_comparison_is_detected():
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 6)
    sl = lab.slices((1,))
    cd = lab.cauchon_diagram(sl)
    from qschub.subwords import lp_index_set
    wrong = lp_index_set(lab.cell.word, lab.datum.from_word((2,)))
    assert cd != wrong


def test_non_member_is_rejected():
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 6)
    sl = lab.slices((1,))
    assert not lab.membership(lab.pres.gen(3), sl)  # 3 not in LP(s1)


def test_normality_with_wrong_exponent_fails():
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 4)
    cell, pres = lab.cell, lab.pres
    sl = lab.slices((1,))
    b = cell.b_element((1,), (1, 0))
    lhs = pres.mul(b, pres.gen(2))
    rhs = pres.scale(pres.mul(pres.gen(2), b), qpow(99))
    diff = pres.add(lhs, rhs, -ONE)
    assert not lab.membership(diff, sl)


def test_certificates_are_not_asserts():
    # python -O strips assert statements, which would silently drop a check
    src = pathlib.Path(qschub.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_bad_relation_table_line_raises():
    with pytest.raises(EngineError, match="bad relation table line"):
        Presentation.from_table_text("gens 2\nlam 2 1 : q\n")


def test_package_has_no_unused_imports():
    # a name imported at module level and never referenced is dead weight;
    # __init__.py re-exports are exempt
    src = pathlib.Path(qschub.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def test_only_qscalar_makes_scalars():
    # qscalar routes every Scalar it returns through its shared table; a
    # Scalar(...) or Scalar._raw(...) call elsewhere would bypass it
    src = pathlib.Path(qschub.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "qscalar.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "Scalar") or (
                    isinstance(f, ast.Attribute) and f.attr == "_raw"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# functions and methods that nothing in the package calls, each kept for the
# reason given; anything else without a caller is dead weight
_NO_CALLER_IN_PACKAGE = {
    "ideals.py:sample_complete_primeness": "sampled complete-primeness check, run by tests",
    "modules.py:weight_multiplicities": "Freudenthal oracle, independent of the modules "
                                        "it checks",
    "modules.py:built_modules": "lets tests and perfbench see every module built",
    "pbw.py:from_table_text": "inverse of table_text, for round-trip tests",
    "qscalar.py:specialize": "evaluation at a rational q, the property tests' oracle",
    "subwords.py:is_left_positive": "the definition that enumerate_lp is tested against",
    "subwords.py:is_right_positive": "the mirror definition, tested with the left one",
}


def test_package_has_no_callerless_functions():
    # a class's method counts as called when an attribute read anywhere in
    # the package names it (a local variable of the same name does not); a
    # function when a name or an attribute read does; dunder methods are
    # called by the language
    src = pathlib.Path(qschub.__file__).parent
    names, attrs, defined = set(), set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defined.append((f"{path.name}:{node.name}", node.name, id(node) in methods))
    callerless = {key for key, name, method in defined
                  if name not in attrs and (method or name not in names)}
    assert callerless == set(_NO_CALLER_IN_PACKAGE)


def test_package_parses_at_the_declared_python_floor():
    # no file may use syntax newer than pyproject.toml's requires-python
    pyproject = pathlib.Path(qschub.__file__).parents[2] / "pyproject.toml"
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject.read_text())
    version = (int(floor[1]), int(floor[2]))
    for path in sorted(pathlib.Path(qschub.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_lp_exhaustion_check_raises_a_typed_error(monkeypatch):
    # an interval that the left positive products miss must fail the
    # exhaustion certificate with EngineError, which a campaign records as
    # one failed case; an AssertionError would end the whole campaign
    from qschub import subwords
    from qschub.weyl import ReducedWord, root_datum
    datum = root_datum("A2")
    word = ReducedWord(datum, (1, 2))
    bigger = datum.lower_interval(datum.longest_element())
    monkeypatch.setattr(subwords, "_LP_CACHE", {})
    monkeypatch.setattr(datum, "lower_interval", lambda w: bigger)
    with pytest.raises(EngineError, match="do not exhaust the interval"):
        subwords.enumerate_lp(word)


def test_layer_certificate_catches_combinations_that_keep_x_t(monkeypatch):
    # once the slices are built, a nullspace that returns every row as its
    # own combination leaves monomials in x_t: the contraction and the
    # leading part must both refuse them
    from qschub import ideals
    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 6)
    sl = lab.slices((1,))
    monkeypatch.setattr(ideals, "nullspace",
                        lambda rows, columns: [{i: ONE} for i in columns])
    for transform in (lab._contract, lab._leading_part):
        with pytest.raises(EngineError, match="left a monomial"):
            transform(sl.slices, 3, lab.degrees())


def test_a_module_over_the_dimension_cap_fails_only_its_own_check(tmp_path, monkeypatch):
    # a module past DIMENSION_CAP raises a typed EngineError naming the cap,
    # so the campaign records that check and still writes every result
    import json
    from qschub import cli, modules
    monkeypatch.setattr(modules, "DIMENSION_CAP", 5)
    monkeypatch.setattr(modules, "_MODULE_CACHE", {})
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("case = A1 : 1 : main1b\ncase = A2 : 1,2,1 : main2\n")
    out = tmp_path / "cap.json"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_VERIFY
    results = {r["type"]: r for r in json.loads(out.read_text())["results"]}
    assert results["A1"]["ok"]
    assert not results["A2"]["ok"]
    assert "DIMENSION_CAP = 5" in results["A2"]["report"]["error"]
    assert "V(2, 0)" in results["A2"]["report"]["error"]
    with pytest.raises(modules.DimensionCapError, match=r"V\(1, 1\) of A2 has more than "
                                                        r"DIMENSION_CAP = 5"):
        modules.build_module(root_datum("A2"), (1, 1))


def test_a_word_over_the_subset_cap_fails_only_its_own_check(tmp_path, monkeypatch):
    # a word longer than SUBSET_CAP raises a typed EngineError naming the
    # cap, so the campaign records that check and still writes every result
    import json
    from qschub import cli, subwords
    from qschub.weyl import ReducedWord
    monkeypatch.setattr(subwords, "SUBSET_CAP", 2)
    monkeypatch.setattr(subwords, "_LP_CACHE", {})
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("case = A1 : 1 : main1b\ncase = A2 : 1,2,1 : main2\n")
    out = tmp_path / "cap.json"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_VERIFY
    results = {r["type"]: r for r in json.loads(out.read_text())["results"]}
    assert results["A1"]["ok"]
    assert not results["A2"]["ok"]
    assert "SUBSET_CAP = 2" in results["A2"]["report"]["error"]
    with pytest.raises(subwords.SubsetCapError, match=r"A2 word 1,2,1 of length 3 exceeds "
                                                      r"SUBSET_CAP = 2"):
        subwords.enumerate_lp(ReducedWord(root_datum("A2"), (1, 2, 1)))
