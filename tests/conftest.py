import ast
import inspect

import pytest

from qschub import qscalar
from qschub.ideals import IdealLab
from qschub.linalg import mat_mul
from qschub.qscalar import ONE


@pytest.fixture
def built_labs(monkeypatch):
    """The list of every IdealLab constructed while the test runs."""
    built = []
    init = IdealLab.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IdealLab, "__init__", counted)
    return built


def _braid_word_matrix(module, letters, invert=False):
    """T_{a_1} ... T_{a_k} on module as a matrix (rightmost letter acts
    first); with invert=True the inverse of that product, A_k^{-1} ... A_1^{-1}."""
    out = None
    for i in letters:
        m = module.braid_matrix(i, invert=invert)
        if out is None:
            out = m
        elif invert:
            out = mat_mul(m, out)
        else:
            out = mat_mul(out, m)
    if out is None:
        out = {(t, t): ONE for t in range(module.dim)}
    return out


@pytest.fixture
def braid_word_matrix():
    """The braid-word product helper, built letter by letter from scratch."""
    return _braid_word_matrix


def _cauchon_coordinates(dd, element):
    """The image of one homogeneous element in the chain's final coordinates."""
    _, finals = dd.run({"e": element})
    return finals["e"]


@pytest.fixture
def cauchon_coordinates():
    """One element through the deleting-derivations chain dd."""
    return _cauchon_coordinates


@pytest.fixture
def final_presentation():
    """The chain's quantum affine space: the stage-2 presentation of dd."""
    return lambda dd: dd.stage_presentation(2)


def _pivot_decomposition(pres, e):
    """e as {m: coefficient element with zero pivot slot} by pivot power."""
    p = pres.pivot if pres.pivot is not None else pres.l
    out = {}
    for m, c in e.items():
        mm = tuple(0 if i == p - 1 else n for i, n in enumerate(m))
        out.setdefault(m[p - 1], {})[mm] = c
    return out


@pytest.fixture
def pivot_decomposition():
    """The pivot-power split of an element of a localised presentation."""
    return _pivot_decomposition


@pytest.fixture
def scalar_memo_tables():
    """The names of the module tables that qscalar._remember writes, read
    from every _remember(table, ...) call in the qscalar source."""
    tree = ast.parse(inspect.getsource(qscalar))
    return {node.args[0].id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_remember"}
