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

The closure is one-sided, as two-sided ideals of PBW algebras are computed
(Bueso, Gomez-Torrecillas and Verschoren, *Algorithmic Methods in
Non-Commutative Algebra*, 2003): the right closure of a set of generators,
which holds the rows the weight inserted and every left product of a
generator that a slice accepted.  The slices are closed after every weight,
so only the rows inserted since are multiplied on the right.  The degrees
that received rows wait on a heap ordered by height, then degree.  A
product lands at a greater height, so a popped degree is final for this
closure: its current reduced rows at the pivots inserted in this closure
are multiplied on the right, and its generators on the left.  The fully
reduced echelon of a span is canonical, so the slices do not depend on the
order in which rows arrive.

A slice is full when its dimension is the number of PBW monomials of its
degree: it spans that whole degree, so no insert can change it.  The sweep
and the closure skip every pairing image and product bound for a full slice,
and the layer routine of the Cauchon recursion writes the layer of a full
slice as unit vectors.  Exact, because whether a slice is full depends only
on its span and every skipped insert would have been refused: the inserted
rows, the saturation streak and every canonical echelon stay the same.

The lab does the work that depends only on the word and the bound once,
in tables it owns and drops with it.  For each swept weight it keeps the
degrees that weight can reach, with their weights and basis indices, in
`degrees()` order.  For each degree h it keeps the degrees h + beta_m within
the bound with their monomial counts, so the closure tests a target for
fullness by comparing two lengths, and for each t the number of x_t-free
monomials of every degree, which the leading part reads.  It keeps the
right products r x_m of the slice rows r of two or more terms; a unit row's
are the presentation's memoised monomial products.  main2-ind plans every
y's target first, y.s_last in the contraction case and y otherwise, and
keeps a target slice of the shorter lab until its last use.

Slices are the only ideal representation: membership is row reduction, the
Cauchon diagram is computed by the leading-part/contraction recursion, and
the slice-inclusion poset, normality exponents, and graded-growth fits all
read the same data.  Both transforms of the recursion are one layer routine:
the x_t^m layer, x_t stripped, of the combinations of a slice's rows whose
x_t-degree is at most m.  The contraction by x_t is layer 0 of each degree,
and the leading part at degree hp spans the layers m of hp + m*beta_t.  The
recursion transforms only the degrees that its later steps read, and
main2-ind only the degrees of the shorter algebra, which are the ones it
compares.
"""

import heapq

from .qscalar import ONE, qpow
from .linalg import Echelon, accumulate, nullspace
from .pbw import EngineError
from .modules import build_module, demazure_echelon, root_coords
from .subwords import lp_index_set
from .weyl import default_weight_sweep

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
    def __init__(self, y, bound, saturated, lambdas_used, slices):
        self.y = y                    # the Weyl group element of the ideal
        self.bound = bound
        self.saturated = saturated
        self.lambdas_used = lambdas_used
        self.slices = slices          # degree tuple -> Echelon, every degree

    def dim(self, h):
        return len(self.slices[tuple(h)])

    def contains(self, h, vec):
        return self.slices[tuple(h)].contains(vec)

    def dims_json(self):
        return {",".join(map(str, h)): len(e) for h, e in sorted(self.slices.items())
                if len(e)}


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
        self._weight_table = {}     # lam -> [(h, k, idxs)]
        self._row_products = {}     # (row items, m) -> r x_m, rows of 2+ terms
        self._successors = None     # h -> [(m, h + beta_m, monomial count)]
        self._free_counts = {}      # t -> {h: number of x_t-free monomials}
        self._gen_monos = [None] + [self.pres.unit_mono(m)
                                    for m in range(1, self.l + 1)]

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
        slices = {h: Echelon() for h in self.degrees()}
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
        hit = GradedIdealSlices(y, self.bound, saturated, used, slices)
        self._slices[key] = hit
        return hit

    def _full(self, ech, h):
        """Whether the slice ech at degree h spans every monomial of degree h."""
        return len(ech) == len(self.degrees()[h])

    def successors(self):
        """{h: [(m, h + beta_m, number of monomials of degree h + beta_m)]}
        over the degrees h and the generators m whose product stays within
        the bound; built once per lab."""
        if self._successors is None:
            degrees = self.degrees()
            betas = list(enumerate(map(tuple, self.cell.betas), 1))
            out = {}
            for h in degrees:
                out[h] = []
                for m, beta in betas:
                    hh = tuple(a + b for a, b in zip(h, beta))
                    monos = degrees.get(hh)
                    if monos is not None:
                        out[h].append((m, hh, len(monos)))
            self._successors = out
        return self._successors

    def free_counts(self, t):
        """{h: number of x_t-free monomials of degree h}; built once per t."""
        hit = self._free_counts.get(t)
        if hit is None:
            hit = {h: sum(1 for mono in monos if not mono[t - 1])
                   for h, monos in self.degrees().items()}
            self._free_counts[t] = hit
        return hit

    def _weight_degrees(self, lam_fw, module):
        """[(h, k, idxs)] for the degrees h = mu - w(lam), mu =
        lam - k a weight of V(lam) of depth k with basis indices idxs, in
        `degrees()` order; built once per weight."""
        key = tuple(lam_fw)
        hit = self._weight_table.get(key)
        if hit is None:
            drop = self.cell.weight_drop(key)
            # mu - w(lam) = (lam - w(lam)) - k
            depth_at = {tuple(a - b for a, b in zip(drop, k)): k for k in module.weights}
            hit = []
            for h in self.degrees():
                k = depth_at.get(h)
                if k is not None:
                    hit.append((h, k, module.weights[k]))
            self._weight_table[key] = hit
        return hit

    def _add_weight(self, slices, y_letters, lam_fw):
        """Add the pairing image of one weight; returns the (degree, pivot)
        pairs of the rows it inserted.

        Only the degrees h = mu - w(lam), mu a weight of V(lam), can receive
        anything.  A full slice is skipped before the Demazure complement and
        the pairing image are computed: each insert into it would be refused."""
        cell = self.cell
        module = build_module(self.datum, lam_fw)
        dem = demazure_echelon(module, y_letters)
        dem_by_weight = {}
        for row in dem.rows:
            k = module.wt_of[next(iter(row))]
            dem_by_weight.setdefault(k, []).append(row)
        fresh = []
        for h, k, idxs in self._weight_degrees(lam_fw, module):
            ech = slices[h]
            if self._full(ech, h):
                continue
            orth = nullspace(dem_by_weight.get(k, []), idxs)
            if not orth:
                continue
            vectors = self._phi_vectors(lam_fw, h)
            for xi in orth:
                el = cell.phi_from_dual(xi, vectors)
                if el and ech.add(el):
                    fresh.append((h, ech.pivots[-1]))
        return fresh

    def _ideal_closure(self, slices, fresh):
        """Close the slices under left and right generator multiplication, as
        the right closure of a set P of generators.

        The slices spanned V_old, closed on both sides, before `fresh`, the
        (degree, pivot) pairs just inserted.  P holds the rows at the fresh
        pivots when the closure starts, and every left product x_m p, p in P,
        that a slice accepted, as the row stored for it: back-substitution
        replaces rows and never edits them.  The worklist holds degrees
        ordered by height, then degree.  Every product lands at a greater
        height, so a popped degree is final for this run: its current
        reduced rows at the pivots inserted in this run span the inserted
        rows modulo V_old.  Each of them is multiplied by every x_m on the
        right, and each p in P of that degree by every x_m on the left.

        Sound: every inserted row is in P or is r x_m, reduced, for r in the
        span, so the closed span is W = V_old + R(P), where R(P) is the right
        closure of P.  R(P) and V_old are right-closed, so W is.  Each x_m p
        was added, or its target slice is full, so it lies in W, and x_m p x^b
        lies in W x^b, inside W; with x_m V_old inside V_old, x_m W lies in
        W, and W is two-sided.  Degrees are positive, so each factor of a
        product within the bound is within it too.  The fully reduced
        echelon of a span is canonical, so the slices are those of the
        two-sided closure, row for row.  No product is formed for a full
        target slice, which would refuse it."""
        successors = self.successors()
        inserted = {}       # degree -> pivots inserted in this run
        heap = []

        def note(h, piv):
            if h not in inserted:
                inserted[h] = set()
                heapq.heappush(heap, (sum(h), h))
            inserted[h].add(piv)

        def rows_at(h, pivs):
            ech = slices[h]
            return [row for piv, row in zip(ech.pivots, ech.rows) if piv in pivs]

        for h, piv in fresh:
            note(h, piv)
        gens = {h: rows_at(h, pivs) for h, pivs in inserted.items()}  # h -> P at h
        mul_mono, gen_monos = self.pres._mul_mono, self._gen_monos
        while heap:
            _, h = heapq.heappop(heap)
            # a unit row's right products are the memoised monomial products
            rows = [(next(iter(row)) if len(row) == 1 else None, row)
                    for row in rows_at(h, inserted.pop(h))]
            left = gens.pop(h, ())
            for m, hh, n_monos in successors[h]:
                target = slices[hh]
                gm = gen_monos[m]
                for mono, row in rows:
                    if len(target.rows) == n_monos:
                        break
                    if target.add(self._right_product(row, m) if mono is None
                                  else mul_mono(mono, gm)):
                        note(hh, target.pivots[-1])
                for p in left:
                    if len(target.rows) == n_monos:
                        break
                    if target.add(self._left_product(m, p)):
                        note(hh, target.pivots[-1])
                        gens.setdefault(hh, []).append(target.rows[-1])
        return slices

    def _left_product(self, m, p):
        """x_m p for a generator p of the closure."""
        return self.pres.mul(self.pres.gen(m), p)

    def _right_product(self, row, m):
        """r x_m for a slice row r of two or more terms, memoised per lab.
        The product is shared: callers only read it."""
        key = (tuple(row.items()), m)
        hit = self._row_products.get(key)
        if hit is None:
            hit = self._row_products[key] = self.pres.mul(row, self.pres.gen(m))
        return hit

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
        if h not in self.degrees():
            raise BoundError(f"degree {h} outside the computed bound {self.bound}")
        return slice_set.contains(h, element)

    # -- Cauchon diagram recursion ---------------------------------------------------

    def _require_saturated(self, slice_set, which="slices"):
        if not slice_set.saturated:
            tried = ", ".join(map(str, slice_set.lambdas_used))
            raise UnsaturatedError(
                f"{which} of y = {slice_set.y.render()} did not saturate within "
                f"the lambda budget {self.lambda_budget}; weights tried: {tried}")

    def cauchon_diagram(self, slice_set):
        """The Cauchon diagram by the deleting-derivations recursion on the
        ideal: for t = l down to 1, t is in the diagram when x_t lies in the
        current ideal, which is then contracted by x_t; otherwise it is
        replaced by its leading part with respect to x_t.

        Step t reads the slice at beta_t, and its transform reads the degrees
        hp + m*beta_t of the degrees hp that step t-1 reads.  So the degree
        sets need[t] are computed backward from need[0] = {}, and each
        transform is formed only on the degrees the next step reads."""
        self._require_saturated(slice_set)
        betas = [tuple(b) for b in self.cell.betas]
        degrees = self.degrees()
        need = [set()]
        for beta in betas:
            cur = {beta} & degrees.keys()
            for h in need[-1]:
                while h in degrees:
                    cur.add(h)
                    h = tuple(a + b for a, b in zip(h, beta))
            need.append(cur)
        slices = slice_set.slices
        diagram = set()
        for t in range(self.l, 0, -1):
            h_pivot = betas[t - 1]
            if sum(h_pivot) > self.bound:
                raise BoundError(
                    f"the Cauchon diagram of y = {slice_set.y.render()} needs "
                    f"the degree of beta_{t}, of height {sum(h_pivot)}, beyond "
                    f"the bound {self.bound}; it needs bound >= "
                    f"{max(map(sum, betas))}")
            pivot_mono = tuple(1 if i == t - 1 else 0 for i in range(self.l))
            if slices[h_pivot].contains({pivot_mono: ONE}):
                diagram.add(t)
                slices = self._contract(slices, t, need[t - 1])
            else:
                slices = self._leading_part(slices, t, need[t - 1])
        return frozenset(diagram)

    def _layer(self, ech, h, t, m):
        """The x_t^m layers, with x_t stripped, of the combinations of the
        rows of ech, the slice at degree h, whose x_t-degree is at most m.

        A full slice gives the stripped unit vectors of its monomials of
        x_t-degree m, with no elimination.  A combination left with a monomial
        of x_t-degree above m raises EngineError."""
        if self._full(ech, h):
            elements = [{mono: ONE} for mono in self.degrees()[h] if mono[t - 1] == m]
        else:
            elements = rows = ech.rows
            bad_cols = sorted({mono for r in rows for mono in r if mono[t - 1] > m})
            if bad_cols:
                constraints = [{i: r[c] for i, r in enumerate(rows) if c in r}
                               for c in bad_cols]
                elements = []
                for coeffs in nullspace(constraints, range(len(rows))):
                    el = {}
                    for i, c in coeffs.items():
                        accumulate(el, rows[i], c)
                    elements.append(el)
        out = []
        for el in elements:
            layer = {}
            for mono, c in el.items():
                k = mono[t - 1]
                if k == m:
                    layer[mono[:t - 1] + (0,) + mono[t:] if k else mono] = c
                elif k > m:
                    raise EngineError(f"a combination at degree {h} of x_{t}-degree "
                                      f"at most {m} left a monomial of x_{t}-degree {k}")
            if layer:
                out.append(layer)
        return out

    def _contract(self, slices, t, degrees):
        """{v in J_h : v free of x_t} for each h in degrees, an exact
        slice-level contraction: layer 0 of the slice at h (see `_layer`).
        The slices are only read, at those degrees only."""
        out = {}
        for h in degrees:
            out[h] = target = Echelon()
            target.extend(self._layer(slices[h], h, t, 0))
        return out

    def _leading_part(self, slices, t, degrees):
        """lt(J) with respect to x_t: top x_t-coefficients, at each degree hp
        in degrees.  It spans the x_t^m layers of the slices at hp + m*beta_t
        for m = 0, 1, ... (see `_layer`), and reads those slices only.

        The slices are only read.  The layers of degree hp stop at the bound,
        or once the result spans every x_t-free monomial of degree hp, as it
        does after the layer of a full slice."""
        beta = self.cell.betas[t - 1]
        free_counts = self.free_counts(t)
        out = {}
        for hp in degrees:
            out[hp] = target = Echelon()
            h, m = hp, 0
            while len(target) < free_counts[hp] and sum(h) <= self.bound:
                target.extend(self._layer(slices[h], h, t, m))
                h = tuple(a + b for a, b in zip(h, beta))
                m += 1
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
            "ok": cd == frozenset(lp),
        }

    def _require_bound_floor(self, check):
        """Raise BoundError below H_w, the largest height of omega_i - w omega_i
        over the fundamental weights: main2 and poset were measured never to
        PASS below it (every w of A2, B2, A3 and G2), so they stop before
        any slice is built."""
        r = self.datum.rank
        floor = max(sum(self.cell.weight_drop(lam)) for lam in default_weight_sweep(r, r))
        if self.bound < floor:
            raise BoundError(
                f"{check} on w = {','.join(map(str, self.cell.letters))} needs bound >= "
                f"H_w = {floor}, the largest height of omega_i - w omega_i; "
                f"the bound is {self.bound}")

    def verify_main2_all(self):
        self._require_bound_floor("main2")
        w = self.cell.word.element
        out = {"type": self.datum.label, "word": list(self.cell.letters),
               "bound": self.bound, "cases": [], "ok": True}
        for y in self.datum.ordered_interval(w):
            rep = self.verify_main2(y.reduced_word())
            out["cases"].append(rep)
            out["ok"] &= rep["ok"]
        return out

    def _main2_ind_plan(self, y_letters):
        """(y, case, height cap, target word) of main2-ind for y: the target
        is y.s_last in the contraction case and y otherwise."""
        y = self.datum.from_word(tuple(y_letters))
        lp = lp_index_set(self.cell.word, y)
        beta_l = self.cell.betas[self.l - 1]
        if self.l in lp:
            case, margin = "contraction", 0
            target_y = (y * self.datum.simple(self.cell.letters[-1])).reduced_word()
        else:
            case, margin = "leading-part", LEADING_PART_MARGIN * sum(beta_l)
            target_y = tuple(y_letters)
        ht_cap = self.bound - margin
        if ht_cap < 1:
            raise BoundError(f"main2-ind for y = {y.render()} ({case} case) "
                             f"compares no degree at bound {self.bound}; "
                             f"it needs bound >= {margin + 1}")
        return y, case, ht_cap, tuple(target_y)

    def verify_main2_ind(self, y_letters, keep_target=False):
        """One deleting step on the ideal: leading part when the top index is
        outside LP(y), contraction when it is inside; compared slicewise
        against the independently built ideal of the shorter cell.  The
        target slice leaves the shorter lab afterwards unless keep_target."""
        y, case, ht_cap, target_y = self._main2_ind_plan(y_letters)
        sl = self.slices(tuple(y_letters))
        self._require_saturated(sl, "long-algebra slices")
        if self._shorter is None:
            # one lab of the word without its last letter, shared by every y;
            # the cell comes from the cache other checks of that word use
            self._shorter = IdealLab(self.cell.prefix_cell(), self.bound,
                                     self.lambda_budget)
        sub_lab = self._shorter
        # only the degrees of the shorter algebra are compared
        if case == "contraction":
            transformed = self._contract(sl.slices, self.l, sub_lab.degrees())
        else:
            transformed = self._leading_part(sl.slices, self.l, sub_lab.degrees())
        other = sub_lab.slices(target_y)
        sub_lab._require_saturated(other, "short-algebra slices")
        mismatches = []
        compared = 0
        for h in sub_lab.degrees():
            mine = transformed[h]
            mine_rows = [self._strip_top(r) for r in mine.rows]
            # soundness: computed transforms always land inside the target ideal
            if not all(other.contains(h, r) for r in mine_rows):
                mismatches.append({"degree": list(h), "kind": "not-contained"})
            if sum(h) <= ht_cap:
                compared += 1
                dim_mine, dim_theirs = len(mine), other.dim(h)
                if dim_mine != dim_theirs:
                    mismatches.append({"degree": list(h), "kind": "dimension",
                                       "mine": dim_mine, "theirs": dim_theirs})
        if not keep_target:
            # keeping every target slice raised the peak memory of main2-ind
            # on A3 by about 4%
            del sub_lab._slices[target_y]
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
        """main2-ind for every y in [e, w].  Every y's target is planned
        first, and a target slice leaves the shorter lab after its last use:
        y and y.s_last can share one."""
        out = {"type": self.datum.label, "word": list(self.cell.letters),
               "bound": self.bound, "cases": [], "ok": True}
        w = self.cell.word.element
        ys = [y.reduced_word() for y in self.datum.ordered_interval(w)]
        targets = [self._main2_ind_plan(y)[-1] for y in ys]
        last_use = {target: i for i, target in enumerate(targets)}
        for i, y in enumerate(ys):
            rep = self.verify_main2_ind(y, keep_target=last_use[targets[i]] > i)
            out["cases"].append(rep)
            out["ok"] &= rep["ok"]
        return out

    # -- poset -----------------------------------------------------------------------

    def ideal_poset(self):
        """Slice-inclusion matrix over the interval, against Bruhat order."""
        self._require_bound_floor("poset")
        w = self.cell.word.element
        ys = self.datum.ordered_interval(w)
        labs = {y: self.slices(y.reduced_word()) for y in ys}
        report = {"nodes": [y.render() for y in ys], "ok": True, "pairs": []}
        for a in ys:
            for b in ys:
                inc = all(labs[b].contains(h, row)
                          for h, ech in labs[a].slices.items() for row in ech.rows)
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
        wy_lam = tuple(a + b2 for a, b2 in zip(w.act(lam), y.act(lam)))
        checks = []
        for m in range(1, self.l + 1):
            exp = datum.pairing(wy_lam, cell.betas[m - 1])
            if exp.denominator != 1:
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
