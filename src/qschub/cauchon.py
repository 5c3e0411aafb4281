"""The deleting-derivations chain on a CGL presentation.

The chain walks pivots j = l, ..., 2.  The stage-j algebra has the original
relations below j and plain q-commutation from j upward; its generators are
expressed in the previous stage's coordinates by the series

    e_i = sum_m (1 - q_j)^{-m} / (m)_{q_j}!  [delta_j^m sigma_j^{-m}(y_i)] y_j^{-m}

for i < j (and e_i = y_i for i >= j), a finite sum by local nilpotency.  Every
stage is certified: all generator pairs are checked against the stage relation
table and degrees are checked.  At the top stage `run` also compares the
series with `Presentation.theta`.  That is not an independent check, as theta
sums the same series on the same pivot presentation (a corrupted tail passes
it); it guards the two copies of the series against drifting apart, and it
is the layer the benchmark's tracer times by name.

A chain on x_1, ..., x_l is built on the chain of x_1, ..., x_{l-1}: the
prefix cell's chain, or the chain of the restricted presentation.  Stage j < l
only involves x_1, ..., x_j: the series uses delta_j, sigma_j and the tails
below j, and x_l only q-commutes in the stage-(j+1) algebra.  So its
generators are exactly the prefix chain's stage-j generators, padded with a
zero x_l slot, plus x_l, and the prefix chain has certified every relation
among them.  Those stages check only x_l and the pairs (l, i); stage l is
computed and certified in full.  Each relation check thus runs once per
distinct prefix.  All computations of one stage share one localised stage
presentation and its product memo; the next stage replaces it and `run`
drops it at the end, so a chain that has run holds no memo.

Elements are carried down the chain by a triangular peel.  Localisation at
the pivot never raises the pivot exponent, so a stage-j monomial n evaluates
in stage-(j+1) coordinates to y^n with coefficient 1 plus terms of strictly
lower pivot exponent.  Clearing the residual's monomial of largest pivot
exponent, one at a time, yields the unique expansion; the residual reaching
zero certifies it.  A monomial whose negative depth (pivot slot and above)
exceeds WINDOW_CAP raises NotExpressibleError, never a truncation.

At stage 2 the coordinates are the Cauchon quantum affine space generators;
the quantum-minor product formula is verified there with the scalar exponent
equal to the size of the kappa-orbit.
"""

from .qscalar import ONE, cauchon_factorial
from .linalg import accumulate
from .pbw import Presentation, EngineError, NotExpressibleError, NILPOTENCY_CAP
from .subwords import kappa_orbit

__all__ = ["DeletingDerivations", "verify_main1b"]

WINDOW_CAP = 6


def _pad(element):
    """An element of the prefix algebra, with a zero slot for the new x_l."""
    return {m + (0,): c for m, c in element.items()}


class DeletingDerivations:
    """The chain on pres; prefix is the chain of pres.restrict(l - 1), built
    from the restriction when not given."""

    def __init__(self, pres, prefix=None):
        if pres.degs is None or any(q is None for q in pres.qself[1:]):
            raise EngineError("the chain needs graded CGL data (degs and qself)")
        self.orig = pres
        self.l = pres.l
        if prefix is None and self.l > 2:
            prefix = DeletingDerivations(pres.restrict(self.l - 1))
        self.prefix = prefix
        self._top = None         # the certified stage-l generators
        self._certified = set()  # stages whose checks have run on this chain
        self._hi = None          # (j, pivot presentation of stage j) while in use

    def pivot_presentation(self, j):
        """A^{(j+1)} localised at x_j: the original tails of the pairs (k, i)
        with k <= j, pure twists above; shared by every computation of
        stage j."""
        if self._hi is None or self._hi[0] != j:
            o = self.orig
            tails = {kj: t for kj, t in o.tails.items() if kj[0] <= j}
            self._hi = (j, Presentation(o.l, o.lam, tails, qself=o.qself, degs=o.degs,
                                        pivot=j, validate=False))
        return self._hi[1]

    # -- one stage ---------------------------------------------------------

    def stage(self, j):
        """The certified stage-j generators.  Each stage is certified once per
        chain; only stage l is stored, as the stages below it are the prefix
        chain's, padded again on each call."""
        if j == self.l and self._top is not None:
            return self._top
        exprs = self.new_generators(j)
        if j not in self._certified:
            self.verify_stage(j, exprs)
            self._certified.add(j)
        if j == self.l:
            self._top = exprs
        return exprs

    def stage_json(self, j):
        """The certified stage j as a report: its generators in
        stage-(j+1) coordinates."""
        return {"stage": j, "certified": True,
                "generators": {str(i): Presentation.element_to_json(e)
                               for i, e in sorted(self.stage(j).items())}}

    def new_generators(self, j):
        """Stage-j generators in stage-(j+1) coordinates (Laurent at pivot j).

        Below the top pivot they are the prefix chain's, padded, and x_l."""
        if j < self.l:
            exprs = {i: _pad(e) for i, e in self.prefix.stage(j).items()}
            exprs[self.l] = self.orig.gen(self.l)
            return exprs
        hi = self.pivot_presentation(j)
        qj = self.orig.qself[j]
        one_minus = ONE - qj
        exprs = {}
        for i in range(1, self.l + 1):
            if i >= j:
                exprs[i] = hi.gen(i)
                continue
            out = {}
            m = 0
            while True:
                if m > NILPOTENCY_CAP:
                    raise EngineError(f"series for x_{i} at pivot {j} did not terminate")
                num = hi.dd_term(j, hi.gen(i), m)
                if not num:
                    break
                coeff = (one_minus ** (-m)) * cauchon_factorial(m, qj).inverse()
                term = hi.mul(num, hi.gen(j, -m)) if m else num
                accumulate(out, term, coeff)
                m += 1
            exprs[i] = out
        return exprs

    def verify_stage(self, j, exprs):
        """Certify that the expressions satisfy the stage-j relation table.

        At the top pivot every generator and pair is checked.  Below it the
        generators under x_l must be the prefix chain's certified ones,
        padded; x_l and the pairs (l, i) are checked here."""
        hi = self.pivot_presentation(j)
        first = 1
        if j < self.l:
            first = self.l
            for i, e in self.prefix.stage(j).items():
                if exprs[i] != _pad(e):
                    raise EngineError(
                        f"stage {j}: generator {i} differs from the prefix chain's")
        for i in range(first, self.l + 1):
            if hi.degree(exprs[i]) != self.orig.degs[i - 1]:
                raise EngineError(f"stage {j}: generator {i} is not degree-homogeneous")
        for k in range(max(first, 2), self.l + 1):
            for i in range(1, k):
                self._check_relation(hi, j, exprs, k, i)
        return True

    def _check_relation(self, hi, j, exprs, k, i):
        """e_k e_i = lam_{ki} e_i e_k + tail_{ki}(e), the tail present for k < j."""
        lhs = hi.mul(exprs[k], exprs[i])
        rhs = hi.scale(hi.mul(exprs[i], exprs[k]), self.orig.lam[(k, i)])
        tail = self.orig.tails.get((k, i)) if k < j else None
        if tail:
            evaluate = self._evaluator(hi, j, exprs)
            for mono, c in tail.items():
                accumulate(rhs, evaluate(mono), c)
        if lhs != rhs:
            raise EngineError(f"stage {j}: relation ({k},{i}) failed verification")

    def _evaluator(self, hi, j, exprs):
        """Evaluate stage-j monomials in stage-(j+1) coordinates, caching
        the powers: x_i^n is exprs[i]^n for n > 0 and i < j, and the
        coordinate power y_i^n otherwise (exprs[i] = y_i for i >= j)."""
        powers = {}

        def evaluate(mono):
            out = hi.one()
            for i in range(self.l, 0, -1):
                n = mono[i - 1]
                if not n:
                    continue
                hit = powers.get((i, n))
                if hit is None:
                    if n > 0 and i < j:
                        hit = exprs[i]
                        for _ in range(n - 1):
                            hit = hi.mul(hit, exprs[i])
                    else:
                        hit = hi.gen(i, n)
                    powers[(i, n)] = hit
                out = hi.mul(out, hit)
            return out

        return evaluate

    def check_theta_consistency(self, exprs_top):
        """At pivot l the series must agree with the standalone theta map."""
        pres = self.pivot_presentation(self.l)
        for i in range(1, self.l):
            if pres.theta(pres.gen(i)) != exprs_top[i]:
                raise EngineError(f"stage {self.l}: series disagrees with theta on x_{i}")
        return True

    # -- re-expression ------------------------------------------------------

    def reexpress(self, j, exprs, element):
        """Rewrite an element of stage-(j+1) coordinates in stage-j ones.

        Triangular peel: the stage-j monomial n evaluates to y^n plus terms of
        strictly lower pivot exponent, so subtracting residual[n] *
        evaluate(n) for the residual's monomial n of largest (pivot exponent,
        monomial) clears n for good.  A monomial met twice raises EngineError;
        the residual reaching zero certifies the expansion.  A monomial with
        a negative exponent below the pivot, or of negative depth (pivot slot
        and above) over WINDOW_CAP, raises NotExpressibleError.
        """
        if not element:
            return {}
        hi = self.pivot_presentation(j)
        deg = hi.degree(element)
        evaluate = self._evaluator(hi, j, exprs)
        out = {}
        residual = dict(element)
        while residual:
            n = max(residual, key=lambda m: (m[j - 1], m))
            if n in out:
                raise EngineError(f"stage {j}: peeling monomial {n} did not clear it")
            depth = -sum(x for x in n[j - 1:] if x < 0)
            if depth > WINDOW_CAP or any(x < 0 for x in n[:j - 1]):
                raise NotExpressibleError(
                    f"element of degree {deg} not expressible in stage {j} coordinates: "
                    f"monomial {n} is outside negative depth WINDOW_CAP = {WINDOW_CAP}")
            c = residual[n]
            out[n] = c
            accumulate(residual, evaluate(n), -c)
        return out

    # -- full chain -----------------------------------------------------------

    def run(self, elements):
        """Push {name: element in original coordinates} down the chain to
        their stage-2 (Cauchon quantum affine space) coordinates."""
        current = {k: dict(v) for k, v in elements.items()}
        for j in range(self.l, 1, -1):
            exprs = self.stage(j)
            if j == self.l:
                self.check_theta_consistency(exprs)
            current = {k: self.reexpress(j, exprs, v) for k, v in current.items()}
        self._hi = None
        return current


def verify_main1b(cell):
    """Check the product formula for every quantum minor of the cell.

    Delta_j = (q_{a_j}^{-1} - q_{a_j})^{|orbit|} xbar_{kappa^{O}(j)} ... xbar_j
    where the exponent is the number of positions in the kappa-orbit of j.
    Also reports the anchor identity Delta_l = (q_{a_l}^{-1} - q_{a_l}) x_l,
    which `quantum_minor` certifies by raising NormalizationError, and the
    final relation matrix.
    """
    minors = {j: cell.quantum_minor(j) for j in range(1, cell.l + 1)}
    finals = cell.chain().run(minors)
    report = {"word": list(cell.letters), "type": cell.datum.label,
              "cases": [], "ok": True, "anchor_ok": True}
    for j in range(1, cell.l + 1):
        orbit = kappa_orbit(cell.word, j)
        mono = tuple(1 if (t + 1) in orbit else 0 for t in range(cell.l))
        expected = {mono: cell.q_alpha_diff(j) ** len(orbit)}
        got = finals[j]
        ok = got == expected
        report["cases"].append({
            "j": j, "orbit": orbit, "orbit_size": len(orbit), "ok": ok,
            "computed": Presentation.element_to_json(got),
            "expected": Presentation.element_to_json(expected),
        })
        report["ok"] &= ok
    # final relation matrix x_j x_k = q^{<beta_j, beta_k>} x_k x_j, certified
    # stage by stage; record the exponent matrix
    report["fcomm"] = [[cell.datum.pairing(cell.betas[a], cell.betas[b])
                        for b in range(cell.l)] for a in range(cell.l)]
    return report
