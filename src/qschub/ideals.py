"""Bounded-degree torus-invariant prime ideals of a quantum Schubert cell.

The ideal attached to a Weyl group element y below w is realised degreewise:
for a sweep of dominant weights, the functionals orthogonal to the Demazure
subspace U^- T_y v_lambda are pushed through the graded pairing map, and the
resulting elements are accumulated into exact row-echelon slice bases indexed
by the positive root-lattice degree (height at most the bound B) and closed
under generator multiplication.  The sweep stops when two consecutive weights
add nothing to any slice, but never before every fundamental weight has been
tried (weights fixed by y contribute nothing); the saturation flag records
whether the rule fired inside the weight budget.

The closure is semi-naive: the slices are closed after every weight, so only
the rows a weight just inserted, and the rows their products insert in turn,
are multiplied by the generators.  They wait on a heap ordered by height,
then degree, then insertion, so each degree is finished before any higher
one.  The fully reduced echelon of a span is canonical, so the slices do not
depend on the order in which rows arrive.

Slices are the only ideal representation: membership is row reduction, the
Cauchon diagram is computed by the leading-part/contraction recursion, and
the slice-inclusion poset, normality exponents, and graded-growth fits all
read the same data.
"""

import heapq
from fractions import Fraction
from itertools import count

from .qscalar import ONE, qpow
from .linalg import Echelon, accumulate, nullspace
from .pbw import EngineError
from .modules import build_module, demazure_echelon, DualFunctional, root_coords
from .subwords import lp_index_set

__all__ = ["IdealLab", "UnsaturatedError", "BoundError"]

# main2-ind compares leading-part dimensions only up to height
# bound - LEADING_PART_MARGIN * ht(beta_l): nearer the bound, the truncated
# slices can miss elements whose x_l-degree carries them past it
LEADING_PART_MARGIN = 2


class UnsaturatedError(EngineError):
    """The weight sweep ended before the slices stopped growing."""


class BoundError(EngineError):
    """A decision needed a degree beyond the configured bound."""


class GradedIdealSlices:
    def __init__(self, bound, saturated, lambdas_used, slices, dims_ambient):
        self.bound = bound
        self.saturated = saturated
        self.lambdas_used = lambdas_used
        self.slices = slices          # degree tuple -> Echelon (may be missing)
        self.dims_ambient = dims_ambient

    def dim(self, h):
        ech = self.slices.get(tuple(h))
        return len(ech) if ech is not None else 0

    def echelon(self, h):
        return self.slices.get(tuple(h))

    def contains(self, h, vec):
        ech = self.slices.get(tuple(h))
        if ech is None:
            return not vec
        return ech.contains(vec)

    def dims_json(self):
        return {",".join(map(str, h)): len(e) for h, e in sorted(self.slices.items())
                if len(e)}


def default_weight_sweep(rank, budget):
    """Dominant weights by total fundamental-weight coefficient, then lex:
    fundamentals first, then sums of two, and so on, capped by the budget."""
    out = []
    total = 1
    while len(out) < budget:
        level = []

        def walk(pos, left, coeffs):
            if pos == rank:
                if left == 0:
                    level.append(tuple(coeffs))
                return
            for c in range(left, -1, -1):
                coeffs.append(c)
                walk(pos + 1, left - c, coeffs)
                coeffs.pop()

        walk(0, total, [])
        out.extend(sorted(level, reverse=True))
        total += 1
    return out[:budget]


class IdealLab:
    def __init__(self, cell, bound, lambda_budget=12):
        self.cell = cell
        self.bound = bound
        self.lambda_budget = lambda_budget
        self.pres = cell.presentation()
        self.datum = cell.datum
        self.l = cell.l
        self._slices = {}
        self._degrees = None
        self._phi_cache = {}
        self._shorter = None

    # -- ambient graded structure -------------------------------------------

    def degrees(self):
        """{degree h: list of PBW monomials} for all h of height <= bound."""
        if self._degrees is None:
            heights = [sum(b) for b in self.cell.betas]
            out = {}

            def walk(j, mono, ht):
                if j == 0:
                    h = tuple(sum(m * b for m, b in zip(mono, (be[t] for be in self.cell.betas)))
                              for t in range(self.datum.rank))
                    out.setdefault(h, []).append(tuple(mono))
                    return
                m = 0
                while ht + m * heights[j - 1] <= self.bound:
                    mono[j - 1] = m
                    walk(j - 1, mono, ht + m * heights[j - 1])
                    m += 1
                mono[j - 1] = 0

            walk(self.l, [0] * self.l, 0)
            self._degrees = {h: sorted(monos) for h, monos in out.items()}
        return self._degrees

    # -- slice construction -----------------------------------------------------

    def slices(self, y_letters):
        key = tuple(y_letters)
        hit = self._slices.get(key)
        if hit is not None:
            return hit
        w = self.cell.word.element
        y = self.datum.from_word(key)
        if not self.datum.bruhat_leq(y, w):
            raise EngineError(f"{y.render()} is not below {w.render()}")
        degrees = self.degrees()
        slices = {h: Echelon() for h in degrees}
        used = []
        streak = 0
        saturated = False
        for lam_fw in default_weight_sweep(self.datum.rank, self.lambda_budget):
            fresh = self._add_weight(slices, key, lam_fw)
            if fresh:
                self._ideal_closure(slices, fresh)
            used.append(lam_fw)
            streak = 0 if fresh else streak + 1
            # a weight fixed by y contributes nothing, so the no-growth rule
            # may only fire once every fundamental weight has been tried
            if streak >= 2 and len(used) >= self.datum.rank + 2:
                saturated = True
                break
        hit = GradedIdealSlices(self.bound, saturated, used, slices,
                                {h: len(m) for h, m in degrees.items()})
        self._slices[key] = hit
        return hit

    def _add_weight(self, slices, y_letters, lam_fw):
        """Add the pairing image of one weight; returns the inserted rows as
        (degree, row) pairs.  Back-substitution in a later `Echelon.add`
        replaces list entries and never changes these dicts."""
        cell = self.cell
        module = build_module(self.datum, lam_fw)
        dem = demazure_echelon(module, y_letters)
        dem_by_weight = {}
        for row in dem.rows:
            nu = module.wt_of[next(iter(row))]
            dem_by_weight.setdefault(nu, []).append(row)
        wl = cell.word.element.act_weight(module.lam)
        fresh = []
        for h in slices:
            mu = tuple(a + b for a, b in zip(wl, h))
            if mu not in module.weights:
                continue
            idxs = module.weights[mu]
            rows = [{i: r[i] for i in r if i in idxs}
                    for r in dem_by_weight.get(mu, ())]
            orth = nullspace(rows, idxs)
            if not orth:
                continue
            vectors = self._phi_vectors(lam_fw, h)
            for xi_row in orth:
                xi = DualFunctional(module, xi_row)
                el = cell.phi_from_dual(xi, vectors)
                if el and slices[h].add(el):
                    fresh.append((h, slices[h].rows[-1]))
        return fresh

    def _ideal_closure(self, slices, fresh):
        """Close the slices under left and right generator multiplication.

        Sound because the graded pairing image already is the two-sided ideal,
        so products of slice elements with generators stay inside it.  The
        slices were closed before `fresh`, the (degree, row) pairs just
        inserted, and products are bilinear, so only those rows, and the
        products they add, need multiplying.  The worklist is a heap ordered
        by height, then degree, then insertion, so lower degrees are finished
        first, as in a full pass by height."""
        pres, betas = self.pres, self.cell.betas
        heap = []
        seq = count()

        def push(h, row):
            heapq.heappush(heap, (sum(h), h, next(seq), row))

        for h, row in fresh:
            push(h, row)
        while heap:
            _, h, _, row = heapq.heappop(heap)
            for m in range(1, self.l + 1):
                hh = tuple(a + b for a, b in zip(h, betas[m - 1]))
                target = slices.get(hh)
                if target is None:
                    continue
                gen = pres.gen(m)
                for v in (pres.mul(row, gen), pres.mul(gen, row)):
                    if target.add(v):
                        push(hh, target.rows[-1])
        return slices

    def _phi_vectors(self, lam_fw, h):
        key = (tuple(lam_fw), tuple(h))
        hit = self._phi_cache.get(key)
        if hit is None:
            hit = self.cell.phi_vectors(lam_fw, h)
            self._phi_cache[key] = hit
        return hit

    # -- membership ---------------------------------------------------------------

    def membership(self, element, slice_set):
        if not element:
            return True
        h = tuple(-x for x in self.pres.degree(element))
        if sum(h) > self.bound or tuple(h) not in self.degrees():
            raise BoundError(f"degree {h} outside the computed bound {self.bound}")
        return slice_set.contains(h, element)

    # -- Cauchon diagram recursion ---------------------------------------------------

    def cauchon_diagram(self, slice_set, require_saturated=True):
        if require_saturated and not slice_set.saturated:
            raise UnsaturatedError("slice construction did not saturate")
        slices = {h: ech.copy() for h, ech in slice_set.slices.items()}
        diagram = set()
        for t in range(self.l, 0, -1):
            beta = self.cell.betas[t - 1]
            h_pivot = tuple(beta)
            if sum(h_pivot) > self.bound:
                raise BoundError("pivot degree outside bound")
            pivot_mono = tuple(1 if i == t - 1 else 0 for i in range(self.l))
            ech = slices.get(h_pivot)
            pivot_in = ech is not None and ech.contains({pivot_mono: ONE})
            if pivot_in:
                diagram.add(t)
                slices = self._contract(slices, t)
            else:
                slices = self._leading_part(slices, t)
        return frozenset(diagram)

    def _combo_elements(self, rows, coeffs_list):
        out = []
        for coeffs in coeffs_list:
            el = {}
            for i, c in coeffs.items():
                accumulate(el, rows[i], c)
            if el:
                out.append(el)
        return out

    def _contract(self, slices, t):
        """{v in J_h : v free of x_t}, an exact slice-level contraction."""
        out = {}
        for h, ech in slices.items():
            rows = ech.rows
            target = Echelon()
            if rows:
                bad_cols = sorted({m for r in rows for m in r if m[t - 1] != 0})
                if not bad_cols:
                    combos = [{i: ONE} for i in range(len(rows))]
                else:
                    constraint_rows = [{i: rows[i][c] for i in range(len(rows))
                                        if c in rows[i]} for c in bad_cols]
                    combos = nullspace(constraint_rows, list(range(len(rows))))
                for el in self._combo_elements(rows, combos):
                    if any(m[t - 1] for m in el):
                        raise EngineError(f"contraction of degree {h} by x_{t} "
                                          f"left a monomial that involves x_{t}")
                    target.add(el)
            out[h] = target
        return out

    def _leading_part(self, slices, t):
        """lt(J) with respect to x_t: top x_t-coefficients, degreewise."""
        beta = self.cell.betas[t - 1]
        out = {}
        for hp in self.degrees():
            target = Echelon()
            m = 0
            while True:
                h = tuple(a + m * b for a, b in zip(hp, beta))
                if sum(h) > self.bound:
                    break
                ech = slices.get(h)
                if ech is not None and len(ech):
                    rows = ech.rows
                    # combinations with x_t-degree <= m, then the x_t^m layer
                    bad_cols = sorted({mm for r in rows for mm in r if mm[t - 1] > m})
                    if not bad_cols:
                        combos = [{i: ONE} for i in range(len(rows))]
                    else:
                        constraint_rows = [{i: rows[i][c] for i in range(len(rows))
                                            if c in rows[i]} for c in bad_cols]
                        combos = nullspace(constraint_rows, list(range(len(rows))))
                    for el in self._combo_elements(rows, combos):
                        lead = {tuple(0 if i == t - 1 else n for i, n in enumerate(mm)): c
                                for mm, c in el.items() if mm[t - 1] == m}
                        if lead:
                            target.add(lead)
                m += 1
            out[hp] = target
        return out

    # -- theorem drivers ----------------------------------------------------------

    def verify_main2(self, y_letters):
        """Cauchon diagram of the ideal against the left positive index set."""
        y = self.datum.from_word(tuple(y_letters))
        sl = self.slices(tuple(y_letters))
        cd = self.cauchon_diagram(sl)
        lp = lp_index_set(self.cell.word, y)
        return {
            "y": y.render(), "bound": self.bound,
            "saturated": sl.saturated,
            "lambdas_used": [list(l) for l in sl.lambdas_used],
            "cd": sorted(cd), "lp": sorted(lp),
            "slice_dims": sl.dims_json(),
            "ok": bool(sl.saturated and cd == frozenset(lp)),
        }

    def verify_main2_all(self):
        w = self.cell.word.element
        out = {"type": self.datum.label, "word": list(self.cell.letters),
               "bound": self.bound, "cases": [], "ok": True}
        for y in sorted(self.datum.lower_interval(w),
                        key=lambda u: (u.length, u.render())):
            rep = self.verify_main2(y.reduced_word())
            out["cases"].append(rep)
            out["ok"] &= rep["ok"]
        return out

    def verify_main2_ind(self, y_letters):
        """One deleting step on the ideal: leading part when the top index is
        outside LP(y), contraction when it is inside; compared slicewise
        against the independently built ideal of the shorter cell."""
        y = self.datum.from_word(tuple(y_letters))
        lp = lp_index_set(self.cell.word, y)
        beta_l = self.cell.betas[self.l - 1]
        if self.l in lp:
            case, margin = "contraction", 0
        else:
            case, margin = "leading-part", LEADING_PART_MARGIN * sum(beta_l)
        ht_cap = self.bound - margin
        if ht_cap < 1:
            raise BoundError(f"main2-ind for y = {y.render()} ({case} case) "
                             f"compares no degree at bound {self.bound}; "
                             f"it needs bound >= {margin + 1}")
        sl = self.slices(tuple(y_letters))
        if not sl.saturated:
            raise UnsaturatedError("long-algebra slices unsaturated")
        copies = {h: e.copy() for h, e in sl.slices.items()}
        if case == "contraction":
            transformed = self._contract(copies, self.l)
            target_y = (y * self.datum.simple(self.cell.letters[-1])).reduced_word()
        else:
            transformed = self._leading_part(copies, self.l)
            target_y = tuple(y_letters)
        if self._shorter is None:
            # one lab of the word without its last letter, shared by every y
            from .schubert import SchubertCell
            sub_cell = SchubertCell(self.datum, self.cell.letters[:-1])
            self._shorter = IdealLab(sub_cell, self.bound, self.lambda_budget)
        sub_lab = self._shorter
        other = sub_lab.slices(target_y)
        # most target slices are used once: keeping them all raised the peak
        # memory of main2-ind on A3 by about 4%
        del sub_lab._slices[tuple(target_y)]
        if not other.saturated:
            raise UnsaturatedError("short-algebra slices unsaturated")
        mismatches = []
        compared = 0
        for h in sub_lab.degrees():
            mine = transformed.get(h)
            mine_rows = [self._strip_top(r) for r in (mine.rows if mine else [])]
            theirs = other.echelon(h)
            # soundness: computed transforms always land inside the target ideal
            for r in mine_rows:
                if not (theirs.contains(r) if theirs else not r):
                    mismatches.append({"degree": list(h), "kind": "not-contained"})
                    break
            if sum(h) <= ht_cap:
                compared += 1
                dim_mine = len(mine) if mine else 0
                dim_theirs = len(theirs) if theirs else 0
                if dim_mine != dim_theirs:
                    mismatches.append({"degree": list(h), "kind": "dimension",
                                       "mine": dim_mine, "theirs": dim_theirs})
        return {
            "y": y.render(), "case": case, "compared_degrees": compared,
            "height_cap": ht_cap, "mismatches": mismatches,
            "ok": not mismatches,
        }

    def _strip_top(self, row):
        # transformed rows are free of x_l; drop the slot for the short algebra
        if any(m[self.l - 1] for m in row):
            raise EngineError(f"transformed row still involves x_{self.l}; "
                              "it has no image in the shorter algebra")
        return {m[:self.l - 1]: c for m, c in row.items()}

    def verify_main2_ind_all(self):
        out = {"type": self.datum.label, "word": list(self.cell.letters),
               "bound": self.bound, "cases": [], "ok": True}
        w = self.cell.word.element
        for y in sorted(self.datum.lower_interval(w),
                        key=lambda u: (u.length, u.render())):
            rep = self.verify_main2_ind(y.reduced_word())
            out["cases"].append(rep)
            out["ok"] &= rep["ok"]
        return out

    # -- poset -----------------------------------------------------------------------

    def ideal_poset(self):
        """Slice-inclusion matrix over the interval, against Bruhat order."""
        w = self.cell.word.element
        ys = sorted(self.datum.lower_interval(w), key=lambda u: (u.length, u.render()))
        labs = {y: self.slices(y.reduced_word()) for y in ys}
        report = {"nodes": [y.render() for y in ys], "ok": True, "pairs": []}
        for a in ys:
            for b in ys:
                inc = all(
                    all(labs[b].echelon(h).contains(row) if labs[b].echelon(h) else not row
                        for row in (labs[a].echelon(h).rows if labs[a].echelon(h) else []))
                    for h in self.degrees())
                bru = self.datum.bruhat_leq(a, b)
                report["pairs"].append({"low": a.render(), "high": b.render(),
                                        "included": inc, "bruhat": bru})
                report["ok"] &= (inc == bru)
        return report

    # -- growth ------------------------------------------------------------------------

    def quotient_cumulative_dims(self, y_letters):
        sl = self.slices(tuple(y_letters))
        degs = self.degrees()
        by_ht = {}
        for h, monos in degs.items():
            by_ht.setdefault(sum(h), [0, 0])
            by_ht[sum(h)][0] += len(monos)
            by_ht[sum(h)][1] += sl.dim(h)
        out = []
        total = 0
        for n in range(self.bound + 1):
            amb, idl = by_ht.get(n, (0, 0))
            total += amb - idl
            out.append(total)
        return out

    def gk_exponent_fit(self, y_letters):
        """The exact integer growth exponent of the cumulative dimension
        sequence, fitted by iterated differences over the top half."""
        c = self.quotient_cumulative_dims(y_letters)
        for step in (1, 2):
            for d in range(0, self.l + 1):
                seq = list(c)
                for _ in range(d + 1):
                    seq = [b - a for a, b in zip(seq, seq[step:])]
                tail = seq[len(seq) // 2:] if seq else []
                if tail and all(x == 0 for x in tail):
                    if d == 0:
                        prev = list(c)
                    else:
                        prev = list(c)
                        for _ in range(d):
                            prev = [b - a for a, b in zip(prev, prev[step:])]
                    if any(x != 0 for x in prev[len(prev) // 2:]):
                        return d
        raise EngineError("no exact integer growth fit on the computed range")

    # -- normality ------------------------------------------------------------------------

    def verify_normality(self, y_letters, lam_fw):
        """b^lam_{y,w} x = q^{-<(w+y)lam, gamma>} x b modulo the ideal slices,
        for every generator x of the cell algebra."""
        cell, pres = self.cell, self.pres
        datum = self.datum
        sl = self.slices(tuple(y_letters))
        b = cell.b_element(tuple(y_letters), lam_fw)
        lam = root_coords(datum, lam_fw)
        y = datum.from_word(tuple(y_letters))
        w = cell.word.element
        wy_lam = tuple(a + b2 for a, b2 in zip(w.act_weight(lam), y.act_weight(lam)))
        checks = []
        for m in range(1, self.l + 1):
            exp = datum.pairing(wy_lam, cell.betas[m - 1])
            if Fraction(exp).denominator != 1:
                raise EngineError(f"<w lam + y lam, beta_{m}> = {exp} is not an integer "
                                  f"for y = {y.render()}")
            lhs = pres.mul(b, pres.gen(m))
            rhs = pres.scale(pres.mul(pres.gen(m), b), qpow(int(exp)))
            diff = pres.add(lhs, rhs, -ONE)
            ok = self.membership(diff, sl)
            checks.append({"generator": m, "exponent": int(exp), "ok": ok})
        return {"y": datum.from_word(tuple(y_letters)).render(),
                "lambda": list(lam_fw),
                "checks": checks, "ok": all(c["ok"] for c in checks)}

    def sample_complete_primeness(self, y_letters, per_degree=200, seed=0):
        """Randomized check that no product of two nonmembers lies in the
        ideal slices (complete primeness of the quotient, sampled)."""
        import random
        rng = random.Random(seed)
        pres = self.pres
        sl = self.slices(tuple(y_letters))
        degs = [h for h in self.degrees() if 0 < sum(h)]
        tried = 0
        for h1 in degs:
            for _ in range(max(1, per_degree // len(degs))):
                h2 = rng.choice(degs)
                if sum(h1) + sum(h2) > self.bound:
                    continue
                m1 = rng.choice(self.degrees()[h1])
                m2 = rng.choice(self.degrees()[h2])
                e1 = {m1: ONE + qpow(rng.randint(-2, 2))}
                e2 = {m2: qpow(rng.randint(-1, 1))}
                if self.membership(e1, sl) or self.membership(e2, sl):
                    continue
                tried += 1
                if self.membership(pres.mul(e1, e2), sl):
                    return {"ok": False, "pair": [sorted(e1), sorted(e2)]}
        return {"ok": True, "sampled": tried}
