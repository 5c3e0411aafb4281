"""The sparse accumulate helper: copies stay copies, memoised dicts stay
intact; the echelon's unit-row shortcuts against the plain elimination."""

import copy

from hypothesis import given, settings, strategies as st

from qschub.linalg import Echelon, accumulate, vec_add, vec_scale
from qschub.qscalar import ONE, qpow
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
    return {"mono": pres._mono_memo, "delta": pres._delta_memo}


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
        assert before[0]["mono"] and before[0]["delta"]
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


_keys = st.integers(0, 6)
_coeffs = st.sampled_from([ONE, -ONE, qpow(1), qpow(-2), ONE + qpow(1),
                           qpow(1) - qpow(-1)])
_singles = st.builds(lambda k, c: {k: c}, _keys, _coeffs)
# three draws in four are single monomials, so unit rows occur
_vectors = st.one_of(_singles, _singles, _singles,
                     st.dictionaries(_keys, _coeffs, min_size=2, max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.lists(_vectors, max_size=10), st.lists(_vectors, max_size=4))
def test_echelon_matches_the_loop_reference(inserts, probes):
    ech, ref = Echelon(), LoopEchelon()
    for v in inserts:
        assert ech.add(v) == ref.add(v)
        assert (ech.pivots, ech.rows) == (ref.pivots, ref.rows)
    for v in inserts + probes:
        assert ech.reduce(v) == ref.reduce(v)
