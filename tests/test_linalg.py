"""The sparse accumulate helper: copies stay copies, memoised dicts stay intact."""

import copy

from qschub.linalg import vec_add
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
