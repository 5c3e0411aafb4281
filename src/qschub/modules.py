"""Finite dimensional type-one highest weight modules with exact matrices.

V(lambda) is built weight space by weight space: the candidates at each level
are F_i images of the level above, and the contravariant form (the one making
E_i and F_i mutually adjoint) is used to quotient out its radical.  The
chosen basis vectors are F_i images of higher basis vectors whose form rows
are independent, so the Gram matrix of every weight space is invertible and
the result is the irreducible module.  The highest weight vector is basis
vector 0.

A weight space is keyed by its depth k = lambda - mu, the integer vector of
simple-root coordinates of lambda - mu; its weight mu is never stored, since
in root coordinates it is fractional whenever lambda is.  The highest weight
space has depth 0, and F_i moves from depth k to depth k + alpha_i.  The
pairing <mu, alpha_i^vee> that the form and the braid operators read is the
integer lambda_i - sum_j cartan[i][j] k_j, lambda_i the fundamental-weight
coefficient of lambda.  Each level's candidate depths are processed in
descending order, which is the ascending order of their weights.  Operators
are sparse matrices {col: {row: Scalar}}, dicts of their nonzero columns;
vectors, and row functionals, are {index: Scalar}.

weight_multiplicities implements Freudenthal's recursion independently of the
module construction and serves as the dimension oracle.
"""

from fractions import Fraction

from .qscalar import ZERO, ONE, qpow, q_bracket, q_factorial
from .linalg import accumulate, mat_vec, invert_matrix, solve_columns, Echelon
from .pbw import EngineError

__all__ = ["WeightModule", "build_module", "weight_multiplicities", "DimensionCapError"]

DIMENSION_CAP = 400


class DimensionCapError(EngineError):
    """A module has more basis vectors than DIMENSION_CAP allows."""


def _vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def root_coords(datum, lam_fw):
    """A dominant weight given by fundamental-weight coefficients."""
    n = datum.rank
    out = [Fraction(0)] * n
    for a, c in enumerate(lam_fw):
        fw = datum.fundamental_weights[a]
        for i in range(n):
            out[i] += c * fw[i]
    return tuple(out)


def weight_multiplicities(datum, lam_fw):
    """Freudenthal's recursion; returns {weight: multiplicity}, weights in
    root coordinates.  Independent of the module construction."""
    lam = root_coords(datum, lam_fw)
    rho = datum.rho
    lam_rho = _vadd(lam, rho)
    c_top = datum.pairing(lam_rho, lam_rho)
    w0 = datum.longest_element()
    lowest = w0.act(lam)
    ht_max = int(sum(_vsub(lam, lowest)))
    mult = {lam: 1}
    simples = [tuple(int(k == i) for k in range(datum.rank)) for i in range(datum.rank)]

    def combos(h, npos):
        if npos == 1:
            yield (h,)
            return
        for c in range(h + 1):
            for rest in combos(h - c, npos - 1):
                yield (c,) + rest

    for h in range(1, ht_max + 1):
        for comb in combos(h, datum.rank):
            nu = tuple(lam[i] - comb[i] for i in range(datum.rank))
            rhs = Fraction(0)
            for gamma in datum.positive_roots:
                k = 1
                while True:
                    up = tuple(nu[i] + k * gamma[i] for i in range(datum.rank))
                    m = mult.get(up, 0)
                    if sum(_vsub(lam, up)) < 0:
                        break
                    if m:
                        rhs += 2 * m * datum.pairing(up, gamma)
                    k += 1
            if rhs == 0:
                continue
            nu_rho = _vadd(nu, rho)
            denom = c_top - datum.pairing(nu_rho, nu_rho)
            m = rhs / denom
            if m.denominator != 1 or m <= 0:
                raise EngineError(f"Freudenthal multiplicity {m} of weight {nu} "
                                  "is not a positive integer")
            mult[nu] = int(m)
    return mult


class WeightModule:
    """Irreducible type-one module with exact E/F/K matrices."""

    def __init__(self, datum, lam_fw):
        self.datum = datum
        self.highest = tuple(int(c) for c in lam_fw)
        self.weights = {}          # depth -> list of global indices
        self.wt_of = []            # global index -> depth
        self.F = {i: {} for i in range(1, datum.rank + 1)}
        self.E = {i: {} for i in range(1, datum.rank + 1)}
        self.gram = {}             # depth -> {c_loc: {r_loc: Scalar}}
        self._braid = {}
        self._braid_inv = {}
        r = datum.rank
        # the simple roots in root coordinates, read in every weight's loops
        self._simple_roots = [tuple(int(k == i) for k in range(r)) for i in range(r)]
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self):
        top = (0,) * self.datum.rank
        self.weights[top] = [0]
        self.wt_of.append(top)
        self.gram[top] = {0: {0: ONE}}
        level = [top]
        while level:
            candidates = sorted({_vadd(nu, alpha)
                                 for nu in level
                                 for alpha in self._simple_roots}, reverse=True)
            next_level = []
            for nu in candidates:
                if self._process_weight(nu):
                    next_level.append(nu)
            if len(self.wt_of) > DIMENSION_CAP:
                raise DimensionCapError(
                    f"V{self.highest} of {self.datum.label} has more than "
                    f"DIMENSION_CAP = {DIMENSION_CAP} basis vectors")
            level = next_level

    def _coroot(self, k, i):
        """<mu, alpha_i^vee> for the weight mu = lambda - k of depth k."""
        return self.highest[i - 1] - sum(c * x for c, x in zip(self.datum.cartan[i - 1], k))

    def _process_weight(self, nu):
        datum = self.datum
        spanning = []          # (i, parent local index, parent depth)
        for i in range(1, datum.rank + 1):
            up = _vsub(nu, self._simple_roots[i - 1])
            for loc, _ in enumerate(self.weights.get(up, ())):
                spanning.append((i, loc, up))
        if not spanning:
            return False
        G = self._spanning_gram(nu, spanning)
        kept, coords = self._choose_basis(nu, G, len(spanning))
        if not kept:
            return False
        base = len(self.wt_of)
        idxs = [base + t for t in range(len(kept))]
        self.weights[nu] = idxs
        self.wt_of.extend([nu] * len(kept))
        self.gram[nu] = {b: {a: G[(sa, sb)] for a, sa in enumerate(kept)
                             if not G[(sa, sb)].is_zero()}
                         for b, sb in enumerate(kept)}
        # F matrices into nu: spanning s corresponds to F_i(parent)
        for s, (i, loc, up) in enumerate(spanning):
            col = {idxs[t]: c for t, c in coords[s].items() if not c.is_zero()}
            if col:
                self.F[i][self.weights[up][loc]] = col
        # E matrices out of nu on the kept vectors
        for t, s in enumerate(kept):
            i, loc, up = spanning[s]
            for a in range(1, datum.rank + 1):
                col = self._e_on_spanning(a, i, loc, up)
                if col:
                    self.E[a][idxs[t]] = col
        return True

    def _spanning_gram(self, nu, spanning):
        datum = self.datum
        G = {}
        for sa, (i, loca, upa) in enumerate(spanning):
            ia = self.weights[upa][loca]
            for sb, (j, locb, upb) in enumerate(spanning):
                if sb < sa:
                    G[(sa, sb)] = G[(sb, sa)]
                    continue
                ib = self.weights[upb][locb]
                # <F_i a, F_j b> = <E_j a, E_i b> + delta_ij [<wt b, ai^vee>] <a, b>
                val = self._pair_vectors(self.E[j].get(ia, {}), self.E[i].get(ib, {}))
                if i == j:
                    bracket = q_bracket(self._coroot(upb, i), datum.d[i - 1])
                    val = val + bracket * self._pair_global(ia, ib)
                G[(sa, sb)] = val
        return G

    def _pair_global(self, ia, ib):
        wa, wb = self.wt_of[ia], self.wt_of[ib]
        if wa != wb:
            return ZERO
        loc = self.weights[wa]
        return self.gram[wa][loc.index(ib)].get(loc.index(ia), ZERO)

    def _pair_vectors(self, u, v):
        out = ZERO
        for ia, ca in u.items():
            for ib, cb in v.items():
                g = self._pair_global(ia, ib)
                if not g.is_zero():
                    out = out + ca * cb * g
        return out

    def _choose_basis(self, nu, G, n):
        rows = [{t: G[(s, t)] for t in range(n) if not G[(s, t)].is_zero()}
                for s in range(n)]
        ech = Echelon()
        kept = [s for s in range(n) if ech.add(rows[s])]
        # coordinates of every spanning vector in the kept basis: a kept
        # vector's are its own unit vector, the others' are solved for
        cols = [rows[k] for k in kept]
        position = {k: t for t, k in enumerate(kept)}
        coords = []
        for s in range(n):
            if s in position:
                coords.append({position[s]: ONE})
                continue
            sol, unique = solve_columns(cols, rows[s])
            if sol is None or not unique:
                raise EngineError(
                    f"Gram row {s} of the weight space ({', '.join(map(str, nu))}) "
                    f"of V{self.highest} has no unique expression in the chosen basis "
                    "(weight spaces are named by their depth lambda - mu)")
            coords.append(dict(enumerate(sol)))
        return kept, coords

    def _e_on_spanning(self, a, i, loc, up):
        # E_a (F_i b) = F_i (E_a b) + delta_ai [<wt b, a^vee>] b, b the parent
        col = self.weights[up][loc]
        out = mat_vec(self.F[i], self.E[a].get(col, {}))
        if a == i:
            accumulate(out, {col: q_bracket(self._coroot(up, a), self.datum.d[a - 1])})
        return out

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self):
        return len(self.wt_of)

    def highest_vector(self):
        return {0: ONE}

    # -- braid operators ------------------------------------------------------

    def braid_matrix(self, i, invert=False):
        """Lusztig's T_{alpha_i} on the module (or its inverse)."""
        if invert:
            hit = self._braid_inv.get(i)
            if hit is None:
                hit = invert_matrix(self.braid_matrix(i), self.dim)
                self._braid_inv[i] = hit
            return hit
        hit = self._braid.get(i)
        if hit is not None:
            return hit
        datum = self.datum
        d = datum.d[i - 1]
        mat = {}
        for col in range(self.dim):
            c0 = self._coroot(self.wt_of[col], i)
            vec = {col: ONE}
            out = {}
            # chain of E-powers applied first
            e_chain = [vec]
            while e_chain[-1]:
                e_chain.append(mat_vec(self.E[i], e_chain[-1]))
            e_chain.pop()
            for n, env in enumerate(e_chain):
                # then F^m with m = c0 + l + n, then E^l
                f_chain = [env]
                while f_chain[-1]:
                    f_chain.append(mat_vec(self.F[i], f_chain[-1]))
                f_chain.pop()
                l = 0
                while True:
                    m = c0 + l + n
                    if m >= len(f_chain):
                        break
                    if m >= 0:
                        w = f_chain[m]
                        for _ in range(l):
                            w = mat_vec(self.E[i], w)
                        if w:
                            sign = -ONE if m % 2 else ONE
                            coeff = (sign * qpow(d * (m - l * n))
                                     / (q_factorial(l, d) * q_factorial(m, d)
                                        * q_factorial(n, d)))
                            accumulate(out, w, coeff)
                    l += 1
            mat[col] = out
        self._braid[i] = mat
        return mat

    def tminus_winv_vector(self, letters):
        """T^{-1}_{w^{-1}} v_lambda for w given by the reduced word `letters`:
        the canonical vector spanning the extremal weight line w(lambda).

        With T_{w^{-1}} = T_{a_k} ... T_{a_1} this is A_1^{-1} ... A_k^{-1}
        applied to the highest weight vector, i.e. inverse letters applied in
        reverse word order.
        """
        v = self.highest_vector()
        for i in reversed(letters):
            v = mat_vec(self.braid_matrix(i, invert=True), v)
        return v


_MODULE_CACHE = {}


def build_module(datum, lam_fw):
    """Construct (and cache) V(lambda) for lam given over fundamental weights."""
    key = (datum.label, tuple(int(c) for c in lam_fw))
    hit = _MODULE_CACHE.get(key)
    if hit is None:
        if any(c < 0 for c in lam_fw):
            raise ValueError("highest weight must be dominant")
        hit = WeightModule(datum, lam_fw)
        _MODULE_CACHE[key] = hit
    return hit


def built_modules():
    """Every module constructed so far in this session (for cross-checks)."""
    return dict(_MODULE_CACHE)


def extremal_dual(module, letters):
    """xi_{w,lambda} as a row vector {index: Scalar}: supported on the weight
    line w(lambda), pairing 1 against T^{-1}_{w^{-1}} v_lambda."""
    (idx, c), = module.tminus_winv_vector(letters).items()
    return {idx: c.inverse()}


def demazure_echelon(module, letters):
    """Echelon basis of U^- T_y v_lambda for y given by the reduced word."""
    ech = Echelon()
    frontier = [module.tminus_winv_vector(letters)]
    ech.add(frontier[0])
    while frontier:
        new = []
        for v in frontier:
            for i in range(1, module.datum.rank + 1):
                w = mat_vec(module.F[i], v)
                if w and ech.add(w):
                    new.append(w)
        frontier = new
    return ech
