import ast
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qschub import qscalar
from qschub.ideals import IdealLab
from qschub.linalg import accumulate, mat_mul
from qschub.modules import root_coords
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


def _weight_of(module, k):
    """The weight lambda - k, in simple-root coordinates (Fractions), of the
    weight space of module keyed by the depth k."""
    lam = root_coords(module.datum, module.highest)
    return tuple(a - b for a, b in zip(lam, k))


@pytest.fixture
def weight_of():
    """Maps a module's depth key k to its weight lambda - k."""
    return _weight_of


def _pair_coroot(datum, mu, i):
    """<mu, alpha_i^vee> = sum_j cartan[i][j] mu_j for mu in root coordinates."""
    return sum(datum.cartan[i - 1][j] * mu[j] for j in range(datum.rank))


@pytest.fixture
def pair_coroot():
    """The coroot pairing of a root-coordinate weight with alpha_i^vee."""
    return _pair_coroot


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
        out = {t: {t: ONE} for t in range(module.dim)}
    return out


@pytest.fixture
def braid_word_matrix():
    """The braid-word product helper, built letter by letter from scratch."""
    return _braid_word_matrix


def _tau_e_reference(module, letters):
    """The pairing operators by their definition, from whole braid words:
    ([tau(E_{beta_j}) for j = 1..l], T^{-1}_{w^{-1}} v_lambda), with
    tau(E_{beta_j}) = R^{-1} E_{a_j} R for R = T_{a_{j-1}} ... T_{a_1}, and
    the vector column 0 of T_{a_1}^{-1} ... T_{a_l}^{-1}."""
    ops = []
    for j, a in enumerate(letters, start=1):
        before = letters[:j - 1][::-1]
        rev = _braid_word_matrix(module, before)
        rev_inv = _braid_word_matrix(module, before, invert=True)
        ops.append(mat_mul(mat_mul(rev_inv, module.E[a]), rev))
    inv = _braid_word_matrix(module, letters[::-1], invert=True)
    return ops, inv[0]


@pytest.fixture
def tau_e_reference():
    """The braid-conjugated E operators and the extremal vector of a word."""
    return _tau_e_reference


def _element_operator(cell, lam_fw, element):
    """The operator of a PBW element of cell's presentation on V(lam), from
    the root-vector operators of the tail solve's pack: an independent check
    of engine arithmetic against the faithful module action."""
    pack = cell.ops(tuple(lam_fw))
    out = {}
    for mono, c in element.items():
        for col, vec in cell._mono_operator(pack, mono).items():
            accumulate(out.setdefault(col, {}), vec, c)
    return {col: vec for col, vec in out.items() if vec}


@pytest.fixture
def element_operator():
    """The module operator of a PBW element of a cell."""
    return _element_operator


def _cauchon_coordinates(dd, element):
    """The image of one homogeneous element in the chain's final coordinates."""
    return dd.run({"e": element})["e"]


@pytest.fixture
def cauchon_coordinates():
    """One element through the deleting-derivations chain dd."""
    return _cauchon_coordinates


@pytest.fixture
def final_presentation():
    """The chain's quantum affine space: the stage-2 algebra of dd, as its
    pivot presentation at x_1 (no tails, so the pivot changes no product of
    monomials without negative exponents)."""
    return lambda dd: dd.pivot_presentation(1)


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


def _fraction_origins(run):
    """(file name, function name) of every frame that creates a Fraction
    while run() runs: the first caller outside fractions.py, so Fraction
    arithmetic counts against the code that asked for it."""
    new = Fraction.__new__.__code__
    origins = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is new:
            f = frame.f_back
            while f is not None and f.f_code.co_filename == new.co_filename:
                f = f.f_back
            if f is not None:
                origins.add((Path(f.f_code.co_filename).name, f.f_code.co_name))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return origins


@pytest.fixture
def fraction_origins():
    """Where the Fractions made by a callable come from."""
    return _fraction_origins


@pytest.fixture
def scalar_memo_tables():
    """The names of the module tables that qscalar._remember writes, read
    from every _remember(table, ...) call in the qscalar source."""
    tree = ast.parse(inspect.getsource(qscalar))
    return {node.args[0].id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_remember"}
