"""The sparse accumulate helper: copies stay copies, memoised dicts stay
intact; the echelon's unit-row shortcuts, and its handling of explicit zero
entries, against the plain elimination, and the echelon-based solve and
inverse against list-based Gauss-Jordan loops."""

import copy

from hypothesis import given, settings, strategies as st

import pytest

from qschub.linalg import (
    Echelon, accumulate, invert_matrix, mat_mul, solve_columns, vec_add, vec_scale,
)
from qschub.qscalar import ZERO, ONE, EngineError, Scalar, qpow
from qschub.schubert import schubert_cell


def test_vec_add_leaves_its_inputs_unchanged():
    u = {0: ONE, 1: qpow(1), 2: qpow(-2)}
    v = {1: -qpow(1), 2: ONE, 3: qpow(3)}
    u0, v0 = dict(u), dict(v)
    out = vec_add(u, v, qpow(-1))
    assert u == u0 and v == v0
    assert out is not u
    assert out == {0: ONE, 1: qpow(1) - ONE, 2: qpow(-2) + qpow(-1), 3: qpow(2)}
    assert vec_add(u, u, -ONE) == {} and u == u0


def _memos(pres):
    return {"mono": pres._mono_memo, "delta": pres._delta_memo,
            "sigma": pres._sigma_memo}


def test_repeated_products_leave_the_memos_alone():
    # Presentation.mul accumulates memoised monomial products and delta images
    # into a fresh dict; writing into a memo entry instead would change the
    # second product and the snapshot below
    for label, letters in [("A2", (1, 2, 1)), ("B2", (1, 2, 1, 2))]:
        pres = schubert_cell(label, letters).presentation()
        loc = pres.with_pivot(pres.l)
        a = pres.add(pres.gen(1, 2), pres.gen(pres.l), qpow(1))
        b = pres.add(pres.gen(2), pres.mul(pres.gen(pres.l), pres.gen(1)), -qpow(-1))
        inv = loc.gen(loc.l, -1)
        first = [pres.mul(a, b), pres.mul(b, a), loc.mul(a, inv), loc.mul(inv, b)]
        before = copy.deepcopy([_memos(pres), _memos(loc)])
        assert before[0]["mono"] and before[0]["delta"] and before[0]["sigma"]
        second = [pres.mul(a, b), pres.mul(b, a), loc.mul(a, inv), loc.mul(inv, b)]
        assert second == first
        assert [_memos(pres), _memos(loc)] == before
        # a unit monomial times a generator is read from the monomial memo;
        # the caller gets a copy it may change
        for e1, e2 in [(pres.gen(2), pres.gen(1)), (pres.gen(1), pres.gen(2)),
                       (pres.gen(1, 2), pres.gen(pres.l))]:
            prod = pres.mul(e1, e2)
            want = copy.deepcopy(prod)
            memo = copy.deepcopy(_memos(pres))
            prod[next(iter(prod))] = qpow(7)
            prod[(9,) * pres.l] = ONE
            assert _memos(pres) == memo
            assert pres.mul(e1, e2) == want


def test_a_sigma_call_that_raises_is_not_memoised():
    # sigma_k is defined below x_k only; the second call must raise again,
    # not read a partial eigenvalue left in the table by the first.  The
    # copy of the shared cell presentation has empty tables of its own
    pres = schubert_cell("A2", (1, 2, 1)).presentation().with_pivot(None)
    for mono in [(1, 1, 0), (0, 0, 1), (1, 0, 2)]:
        for _ in range(2):
            with pytest.raises(EngineError, match="sigma_2 applied to monomial with x_"):
                pres.sigma_scalar(2, mono, -1)
        assert not pres._sigma_memo
    assert pres.sigma_scalar(2, (1, 0, 0), -1) == pres.lam[(2, 1)].inverse()
    assert pres._sigma_memo == {(2, (1, 0, 0), -1): pres.lam[(2, 1)].inverse()}


class LoopEchelon(Echelon):
    """Reference elimination: every pivot hit and every normalisation does
    the Scalar arithmetic, unit rows included."""

    def reduce(self, v):
        """Fully reduce v against the span; returns the residual vector."""
        v = dict(v)
        for piv, row in zip(self.pivots, self.rows):
            c = v.get(piv)
            if c is not None and not c.is_zero():
                accumulate(v, row, -c)
        return v

    def add(self, v):
        """Insert v if independent; returns True when the span grew."""
        r = self.reduce(v)
        if not r:
            return False
        piv = min(r, key=lambda k: (k if isinstance(k, tuple) else (k,)))
        c = r[piv]
        r = vec_scale(r, c.inverse())
        # back-substitute into existing rows to keep them fully reduced
        for i, row in enumerate(self.rows):
            x = row.get(piv)
            if x is not None and not x.is_zero():
                self.rows[i] = vec_add(row, r, -x)
        self.rows.append(r)
        self.pivots.append(piv)
        return True


def _nonzero(v):
    return {k: x for k, x in v.items() if x}


_coeffs = st.sampled_from([ONE, -ONE, qpow(1), qpow(-2), ONE + qpow(1),
                           qpow(1) - qpow(-1)])
# an explicit zero entry, shared or built apart from the shared ZERO
_zeros = st.sampled_from([ZERO, Scalar({})])


@st.composite
def _echelon_inputs(draw):
    """Inserts and probes over int keys or over tuple keys, the monomials of
    the ideal slices; one entry in five is an explicit zero."""
    keys = draw(st.sampled_from([st.integers(0, 6),
                                 st.tuples(st.integers(0, 2), st.integers(0, 1),
                                           st.integers(0, 1))]))
    entries = st.one_of(_coeffs, _coeffs, _coeffs, _coeffs, _zeros)
    singles = st.builds(lambda k, c: {k: c}, keys, entries)
    # three draws in four are single monomials, so unit rows occur
    vectors = st.one_of(singles, singles, singles,
                        st.dictionaries(keys, entries, min_size=2, max_size=4))
    return (draw(st.lists(vectors, max_size=10)), draw(st.lists(vectors, max_size=4)))


@settings(max_examples=300, deadline=None)
@given(_echelon_inputs())
def test_echelon_matches_the_loop_reference(inputs):
    # the reference sees every vector with its zero entries dropped
    inserts, probes = inputs
    ech, ref = Echelon(), LoopEchelon()
    for v in inserts:
        assert ech.add(v) == ref.add(_nonzero(v))
        assert (ech.pivots, ech.rows) == (ref.pivots, ref.rows)
        assert all(all(row.values()) for row in ech.rows)
    for v in inserts + probes:
        if all(v.values()):
            assert ech.reduce(v) == ref.reduce(v)
        else:
            assert _nonzero(ech.reduce(v)) == ref.reduce(_nonzero(v))
        assert ech.contains(v) == (not ref.reduce(_nonzero(v)))


def test_explicit_zero_entries_count_as_absent():
    ech = Echelon()
    assert not ech.add({(1,): ZERO}) and not ech.add({(1,): Scalar({})})
    assert len(ech) == 0
    assert ech.add({(1,): ZERO, (2,): ONE})
    assert (ech.pivots, ech.rows) == ([(2,)], [{(2,): ONE}])
    assert ech.add({(0,): ZERO, (1,): qpow(1), (3,): qpow(2)})
    assert (ech.pivots[-1], ech.rows[-1]) == ((1,), {(1,): ONE, (3,): qpow(1)})
    assert ech.contains({(2,): ZERO}) and ech.contains({(4,): ZERO, (2,): qpow(3)})
    assert not ech.contains({(4,): ZERO, (3,): ONE})


# Reference Gauss-Jordan loops over dense lists, with a fewest-terms pivot
# rule: a different elimination order from the echelon's, reaching the same
# exact answers.

def _complexity(s):
    return len(s.num) + len(s.den)


def loop_solve_columns(columns, target):
    """Solve sum_i c_i * columns[i] = target exactly.

    Returns (coeffs, unique) where coeffs is a list of Scalars or None when no
    solution exists; unique is False when the columns are dependent (one valid
    solution is still returned, with free coefficients set to zero).
    """
    n = len(columns)
    # augmented rows indexed by the union of row keys
    keys = set(target)
    for col in columns:
        keys.update(col)
    keys = sorted(keys, key=lambda k: (k if isinstance(k, tuple) else (k,)))
    rows = {k: [col.get(k, ZERO) for col in columns] + [target.get(k, ZERO)]
            for k in keys}
    order = list(keys)
    pivot_of_col = [None] * n
    used = set()
    for j in range(n):
        best = None
        for k in order:
            if k in used:
                continue
            e = rows[k][j]
            if not e.is_zero():
                if best is None or _complexity(e) < _complexity(rows[best][j]):
                    best = k
        if best is None:
            continue
        used.add(best)
        pivot_of_col[j] = best
        inv = rows[best][j].inverse()
        rows[best] = [inv * x for x in rows[best]]
        for k in order:
            if k is best:
                continue
            c = rows[k][j]
            if not c.is_zero():
                rows[k] = [x - c * y for x, y in zip(rows[k], rows[best])]
    coeffs = [ZERO] * n
    for j in range(n):
        k = pivot_of_col[j]
        if k is not None:
            coeffs[j] = rows[k][n]
    # residual check
    for k in order:
        if k not in used and not rows[k][n].is_zero():
            return None, all(p is not None for p in pivot_of_col)
    unique = all(p is not None for p in pivot_of_col)
    return coeffs, unique


def loop_invert_matrix(mat, size):
    """Exact inverse of a size x size matrix given as {(r, c): Scalar}."""
    rows = [[ZERO] * size + [ZERO] * size for _ in range(size)]
    for i in range(size):
        rows[i][size + i] = ONE
    for (r, c), a in mat.items():
        rows[r][c] = a
    for j in range(size):
        p = None
        for i in range(j, size):
            if not rows[i][j].is_zero():
                if p is None or _complexity(rows[i][j]) < _complexity(rows[p][j]):
                    p = i
        if p is None:
            raise ZeroDivisionError("singular matrix")
        rows[j], rows[p] = rows[p], rows[j]
        inv = rows[j][j].inverse()
        rows[j] = [inv * x for x in rows[j]]
        for i in range(size):
            if i != j and not rows[i][j].is_zero():
                c = rows[i][j]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[j])]
    out = {}
    for r in range(size):
        for c in range(size):
            v = rows[r][size + c]
            if not v.is_zero():
                out[(r, c)] = v
    return out


_monomials = st.builds(lambda c, e: c * qpow(e), st.sampled_from([ONE, -ONE, ONE + ONE]),
                       st.integers(-2, 2))
_sums = st.builds(lambda a, b: a + b, _monomials, _monomials)
_entries = st.one_of(_monomials, _monomials, _sums.filter(lambda x: not x.is_zero()))
_sparse = st.dictionaries(st.integers(0, 4), _entries, max_size=3)


@st.composite
def _systems(draw):
    """A few sparse columns over q-monomials, some of them combinations of
    the others, and a target drawn from their span or from anywhere."""
    cols = draw(st.lists(_sparse, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
        cols.append(vec_add(a, b, draw(_entries)))
    if draw(st.booleans()):
        target = {}
        for col in cols:
            accumulate(target, col, draw(st.one_of(st.just(ZERO), _entries)))
    else:
        target = draw(_sparse)
    return cols, target


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_solve_columns_matches_the_loop_reference(system):
    cols, target = system
    got, unique = solve_columns(cols, target)
    want, want_unique = loop_solve_columns(cols, target)
    assert (got is None, unique) == (want is None, want_unique)
    if got is None:
        return
    combo = {}
    for col, c in zip(cols, got):
        accumulate(combo, col, c)
    assert combo == target
    # both set the coefficients of the same free columns to zero, so even a
    # dependent solve gives the reference's coefficients
    assert got == want


def _mat(rows):
    return {(r, c): x for r, row in enumerate(rows) for c, x in row.items()}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.dictionaries(st.integers(0, n - 1), _entries, max_size=n),
                         min_size=n, max_size=n))))
def test_invert_matrix_matches_the_loop_reference(square):
    size, rows = square
    mat = _mat(rows)
    try:
        want = loop_invert_matrix(mat, size)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            invert_matrix(mat, size)
        return
    got = invert_matrix(mat, size)
    one = {(t, t): ONE for t in range(size)}
    assert got == want
    assert mat_mul(mat, got) == one and mat_mul(got, mat) == one


def test_solve_and_invert_on_singular_systems():
    a, b = qpow(1), ONE + qpow(-1)
    cols = [{0: a, 1: b}, {0: a * a, 1: a * b}, {2: ONE}]   # col 1 = q * col 0
    assert solve_columns(cols, {0: a, 1: b, 2: qpow(2)}) == ([ONE, ZERO, qpow(2)], False)
    assert solve_columns(cols, {0: a}) == (None, False)
    assert solve_columns([cols[0], cols[2]], {1: b}) == (None, True)
    with pytest.raises(ZeroDivisionError):
        invert_matrix(_mat(cols), 3)
    with pytest.raises(ZeroDivisionError):
        invert_matrix({}, 2)


@pytest.mark.parametrize("path, start, v", [
    # a single-key residual becomes a fresh unit row
    ("single-key", [{0: ONE, 2: qpow(1)}], {1: qpow(2)}),
    # a longer residual is scaled to a monic row; with leading coefficient 1
    # the scaling is the identity, and the row must still be a copy
    ("normalised", [{0: ONE}], {1: qpow(1), 2: ONE, 3: qpow(-1)}),
    ("normalised, monic", [{0: ONE}], {1: ONE, 2: qpow(1)}),
    # the new pivot 1 is cleared from the earlier row {0: 1, 1: q, 2: 1}
    ("back-substitution", [{0: ONE, 1: qpow(1), 2: ONE}], {1: qpow(-1), 3: ONE}),
], ids=["single-key", "normalised", "normalised-monic", "back-substitution"])
def test_echelon_never_mutates_or_keeps_its_argument(path, start, v):
    # the ideal closure passes memoised products straight into add, reduce
    # and contains, so none of them may change its argument or keep it as a row
    ech = Echelon()
    for row in start:
        ech.add(row)
    start0 = copy.deepcopy(start)
    kept = list(ech.rows)
    rows_before = copy.deepcopy(kept)
    v0 = copy.deepcopy(v)
    assert not ech.contains(v) and v == v0
    assert ech.reduce(v) is not v and v == v0
    assert ech.rows == rows_before
    assert ech.add(v) and v == v0
    assert all(row is not v for row in ech.rows)
    if path == "back-substitution":
        assert ech.rows[0] != rows_before[0] and 1 not in ech.rows[0]
    else:
        assert ech.rows[:-1] == rows_before
    # a second insert of the same vector is refused and still leaves it alone
    assert not ech.add(v) and ech.contains(v) and v == v0
    assert all(row is not v for row in ech.rows)
    # back-substitution replaces rows and never edits one that was read
    assert kept == rows_before and start == start0
    # the stored rows do not alias the argument: changing it changes no row
    rows_after = copy.deepcopy(ech.rows)
    v[99] = ONE
    assert ech.rows == rows_after
