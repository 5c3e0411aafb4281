"""Negative controls: every verifier must be able to fail on corrupted input."""

import ast
import pathlib

import pytest

import qschub
from qschub.qscalar import ONE, qpow
from qschub.pbw import Presentation, EngineError
from qschub.schubert import schubert_cell
from qschub.cauchon import DeletingDerivations, verify_main1b
from qschub.ideals import IdealLab


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
    _, finals = DeletingDerivations(bad).run({1: cell.quantum_minor(1)},
                                             theta_check=False)
    coeff = (qpow(-1) - qpow(1)) ** 2
    assert finals[1] != {(1, 0, 1): coeff}


def test_bad_lambda_fails_tail_solve():
    # a wrong q-commutation scalar makes the tail land outside the span
    from qschub.weyl import root_datum
    from qschub.schubert import SchubertCell
    cell = SchubertCell(root_datum("A2"), (1, 2, 1))
    orig = cell.lam_scalar
    cell.lam_scalar = lambda k, j: orig(k, j) * (qpow(2) if (k, j) == (3, 1) else ONE)
    with pytest.raises(EngineError):
        cell._solve_all_tails([(1, 0), (0, 1)])


def test_corrupted_minor_fails_main1b_comparison():
    cell = schubert_cell("A2", (2, 1, 2))
    pres = cell.presentation()
    minors = {j: cell.quantum_minor(j) for j in (1, 2, 3)}
    minors[1] = pres.scale(minors[1], qpow(3))
    dd = DeletingDerivations(pres)
    _, finals = dd.run(minors)
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
    "cauchon.py:cauchon_coordinates": "one element through the chain, a test entry point",
    "cauchon.py:final_presentation": "the chain's quantum affine space, read by tests",
    "ideals.py:sample_complete_primeness": "sampled complete-primeness check, run by tests",
    "modules.py:weight_multiplicities": "Freudenthal oracle, independent of the modules "
                                        "it checks",
    "modules.py:built_modules": "lets tests and perfbench see every module built",
    "modules.py:weight_dims": "module shape, compared with the Freudenthal oracle",
    "modules.py:k_exponent": "the K_i action, checked against the weights by tests",
    "pbw.py:normal_form": "normal form of a sum of words, a test entry point",
    "pbw.py:pivot_decomposition": "pivot-power split, checked by invariant tests",
    "pbw.py:element_from_json": "inverse of element_to_json, for round-trip tests",
    "pbw.py:from_table_text": "inverse of table_text, for round-trip tests",
    "qscalar.py:q_integer": "q-combinatorics, tested against closed forms",
    "qscalar.py:specialize": "evaluation at a rational q, the property tests' oracle",
    "schubert.py:element_operator": "engine products against the module action, in tests",
    "schubert.py:minor_degree": "the degree of Delta_j, checked by tests",
    "schubert.py:verify_leading_term": "the one-step factorisation of Delta_j, in tests",
    "schubert.py:minor_commutation_exponent": "q-commutation of minors, in tests",
    "subwords.py:is_left_positive": "the definition that enumerate_lp is tested against",
    "subwords.py:is_right_positive": "the mirror definition, tested with the left one",
}


def test_package_has_no_callerless_functions():
    # a function or method counts as called when its name is read anywhere
    # in the package, as a name or an attribute; dunder methods are called
    # by the language
    src = pathlib.Path(qschub.__file__).parent
    used, defined = set(), []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defined.append((f"{path.name}:{node.name}", node.name))
    callerless = {key for key, name in defined if name not in used}
    assert callerless == set(_NO_CALLER_IN_PACKAGE)
