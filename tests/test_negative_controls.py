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
