"""The deleting-derivations chain on a CGL presentation.

The chain walks pivots j = l, ..., 2.  The stage-j algebra has the original
relations below j and plain q-commutation from j upward; its generators are
expressed in the previous stage's coordinates by the series

    e_i = sum_m (1 - q_j)^{-m} / (m)_{q_j}!  [delta_j^m sigma_j^{-m}(y_i)] y_j^{-m}

for i < j (and e_i = y_i for i >= j), a finite sum by local nilpotency.  Every
stage is certified: all generator pairs are checked against the stage relation
table, degrees are checked, and at the top stage the series is cross-checked
against the independent theta implementation.

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
from .pbw import Presentation, EngineError, NotExpressibleError
from .subwords import kappa_orbit

__all__ = ["DeletingDerivations", "StageState", "verify_main1b"]

WINDOW_CAP = 6


class StageState:
    """One completed stage: index, presentation, generator expressions in the
    previous stage's coordinates, and the relation certificate flag."""

    def __init__(self, j, presentation, exprs, certified):
        self.j = j
        self.presentation = presentation
        self.exprs = exprs
        self.certified = certified

    def to_json(self):
        return {
            "stage": self.j,
            "generators": {str(i): Presentation.element_to_json(e)
                           for i, e in sorted(self.exprs.items())},
            "certified": self.certified,
        }


class DeletingDerivations:
    def __init__(self, pres):
        if pres.degs is None or any(q is None for q in pres.qself[1:]):
            raise EngineError("the chain needs graded CGL data (degs and qself)")
        self.orig = pres
        self.l = pres.l
        self._stage_pres = {}

    def stage_presentation(self, j):
        """A^{(j)}: original tails strictly below j, pure twists from j up."""
        hit = self._stage_pres.get(j)
        if hit is None:
            tails = {kj: t for kj, t in self.orig.tails.items() if kj[0] < j}
            hit = Presentation(self.orig.l, self.orig.lam, tails,
                               qself=self.orig.qself, degs=self.orig.degs,
                               name=f"{self.orig.name}#stage{j}",
                               nilpotency_cap=self.orig.nilpotency_cap,
                               validate=False)
            self._stage_pres[j] = hit
        return hit

    # -- one stage ---------------------------------------------------------

    def new_generators(self, j):
        """Stage-j generators in stage-(j+1) coordinates (Laurent at pivot j)."""
        hi = self.stage_presentation(j + 1).with_pivot(j)
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
                if m > hi.nilpotency_cap:
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
        """Certify that the expressions satisfy the stage-j relation table."""
        hi = self.stage_presentation(j + 1).with_pivot(j)
        lo = self.stage_presentation(j)
        for i in range(1, self.l + 1):
            if hi.degree(exprs[i]) != self.orig.degs[i - 1]:
                raise EngineError(f"stage {j}: generator {i} is not degree-homogeneous")
        for k in range(2, self.l + 1):
            for i in range(1, k):
                lhs = hi.mul(exprs[k], exprs[i])
                rhs = hi.scale(hi.mul(exprs[i], exprs[k]), lo.lam[(k, i)])
                tail = lo.tails.get((k, i))
                if tail:
                    for mono, c in tail.items():
                        accumulate(rhs, self._eval_monomial(hi, exprs, mono), c)
                if lhs != rhs:
                    raise EngineError(
                        f"stage {j}: relation ({k},{i}) failed verification")
        return True

    def _eval_monomial(self, ctx, exprs, mono):
        out = ctx.one()
        for i in range(self.l, 0, -1):
            n = mono[i - 1]
            if n > 0:
                for _ in range(n):
                    out = ctx.mul(out, exprs[i])
            elif n < 0:
                out = ctx.mul(out, ctx.gen(i, n))
        return out

    def check_theta_consistency(self, exprs_top):
        """At pivot l the series must agree with the standalone theta map."""
        pres = self.orig.with_pivot(self.l)
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
        hi = self.stage_presentation(j + 1).with_pivot(j)
        deg = hi.degree(element)
        power_cache = {}

        def evaluate(mono):
            out = hi.one()
            for i in range(self.l, 0, -1):
                n = mono[i - 1]
                if not n:
                    continue
                key = (i, n)
                hit = power_cache.get(key)
                if hit is None:
                    if n > 0 and i < j:
                        hit = exprs[i]
                        for _ in range(n - 1):
                            hit = hi.mul(hit, exprs[i])
                    else:
                        hit = hi.gen(i, n)
                    power_cache[key] = hit
                out = hi.mul(out, hit)
            return out

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

    def run(self, elements=None, record_stages=False, theta_check=True):
        """Push elements down the chain; returns (states, finals).

        elements: {name: element in original coordinates}.  finals holds their
        stage-2 (Cauchon quantum affine space) coordinates.
        """
        current = {k: dict(v) for k, v in (elements or {}).items()}
        states = []
        for j in range(self.l, 1, -1):
            exprs = self.new_generators(j)
            certified = self.verify_stage(j, exprs)
            if theta_check and j == self.l and self.l >= 2:
                self.check_theta_consistency(exprs)
            current = {k: self.reexpress(j, exprs, v) for k, v in current.items()}
            if record_stages:
                states.append(StageState(j, self.stage_presentation(j), exprs, certified))
        return states, current

    def cauchon_coordinates(self, element):
        """The image of one homogeneous element in the final coordinates."""
        _, finals = self.run({"e": element})
        return finals["e"]

    def final_presentation(self):
        return self.stage_presentation(2)


def verify_main1b(cell, record_stages=False):
    """Check the product formula for every quantum minor of the cell.

    Delta_j = (q_{a_j}^{-1} - q_{a_j})^{|orbit|} xbar_{kappa^{O}(j)} ... xbar_j
    where the exponent is the number of positions in the kappa-orbit of j.
    Also reports the anchor identity at j = l and the final relation matrix.
    """
    pres = cell.presentation()
    dd = DeletingDerivations(pres)
    minors = {j: cell.quantum_minor(j) for j in range(1, cell.l + 1)}
    states, finals = dd.run(minors, record_stages=record_stages)
    report = {"word": list(cell.letters), "type": cell.datum.label,
              "cases": [], "ok": True}
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
    # anchor: the top minor is (q_a^{-1} - q_a) x_l before any deletion
    anchor = minors[cell.l] == {pres.unit_mono(cell.l): cell.q_alpha_diff(cell.l)}
    report["anchor_ok"] = anchor
    report["ok"] &= anchor
    # final relation matrix x_j x_k = q^{<beta_j, beta_k>} x_k x_j, certified
    # stage by stage; record the exponent matrix
    report["fcomm"] = [[cell.datum.pairing(cell.betas[a], cell.betas[b])
                        for b in range(cell.l)] for a in range(cell.l)]
    if record_stages:
        report["stages"] = [s.to_json() for s in states]
    return report
