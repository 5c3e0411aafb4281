"""Finite dimensional type-one highest weight modules with exact matrices.

V(lambda) is built weight space by weight space: the candidates at each level
are F_i images of the level above, and the contravariant form (the one making
E_i and F_i mutually adjoint) is used to quotient out its radical.  The
chosen basis vectors are F_i images of higher basis vectors whose form rows
are independent, so the Gram matrix of every weight space is invertible and
the result is the irreducible module.  The highest weight vector is basis
vector 0.

Weights are stored in simple-root coordinates as Fraction tuples.  Operators
are sparse matrices {(row, col): Scalar}; vectors are {index: Scalar}.

weight_multiplicities implements Freudenthal's recursion independently of the
module construction and serves as the dimension oracle.
"""

from fractions import Fraction

from .qscalar import ZERO, ONE, qpow, from_fraction, q_bracket, q_factorial
from .linalg import accumulate, mat_vec, mat_mul, invert_matrix, solve_columns, Echelon
from .pbw import EngineError

__all__ = ["WeightModule", "build_module", "weight_multiplicities", "DualFunctional"]

DIMENSION_CAP = 400


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
    lowest = w0.act_weight(lam)
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
        self.lam = root_coords(datum, self.highest)
        self.weights = {}          # weight -> list of global indices
        self.wt_of = []            # global index -> weight
        self.F = {i: {} for i in range(1, datum.rank + 1)}
        self.E = {i: {} for i in range(1, datum.rank + 1)}
        self.gram = {}             # weight -> {(r_loc, c_loc): Scalar}
        self._braid = {}
        self._braid_inv = {}
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self):
        datum = self.datum
        r = datum.rank
        self.weights[self.lam] = [0]
        self.wt_of.append(self.lam)
        self.gram[self.lam] = {(0, 0): ONE}
        level = [self.lam]
        while level:
            candidates = sorted({_vsub(nu, alpha)
                                 for nu in level
                                 for alpha in self._simple_roots()})
            next_level = []
            for nu in candidates:
                if self._process_weight(nu):
                    next_level.append(nu)
            if len(self.wt_of) > DIMENSION_CAP:
                raise ValueError(f"module dimension exceeds cap {DIMENSION_CAP}")
            level = next_level

    def _simple_roots(self):
        r = self.datum.rank
        return [tuple(Fraction(int(k == i)) for k in range(r)) for i in range(r)]

    def _process_weight(self, nu):
        datum = self.datum
        spanning = []          # (i, parent local index, parent weight)
        for i in range(1, datum.rank + 1):
            up = _vadd(nu, self._simple_roots()[i - 1])
            for loc, _ in enumerate(self.weights.get(up, ())):
                spanning.append((i, loc, up))
        if not spanning:
            return False
        G = self._spanning_gram(nu, spanning)
        kept, coords = self._choose_basis(G, len(spanning))
        if not kept:
            return False
        base = len(self.wt_of)
        idxs = [base + t for t in range(len(kept))]
        self.weights[nu] = idxs
        self.wt_of.extend([nu] * len(kept))
        self.gram[nu] = {(a, b): G[(kept[a], kept[b])]
                         for a in range(len(kept)) for b in range(len(kept))
                         if not G[(kept[a], kept[b])].is_zero()}
        # F matrices into nu: spanning s corresponds to F_i(parent)
        for s, (i, loc, up) in enumerate(spanning):
            col = self.weights[up][loc]
            for t, c in coords[s].items():
                if not c.is_zero():
                    self.F[i][(idxs[t], col)] = c
        # E matrices out of nu on the kept vectors
        for t, s in enumerate(kept):
            i, loc, up = spanning[s]
            for a in range(1, datum.rank + 1):
                vec = self._e_on_spanning(a, i, loc, up, nu)
                for row, c in vec.items():
                    if not c.is_zero():
                        self.E[a][(row, idxs[t])] = c
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
                val = ZERO
                ea = self._column(self.E[j], ia)
                eb = self._column(self.E[i], ib)
                val = val + self._pair_vectors(ea, eb)
                if i == j:
                    n = datum.pair_coroot(upb, i)
                    if n.denominator != 1:
                        raise EngineError(f"<{upb}, alpha_{i}^vee> = {n} is not an integer "
                                          "in the Shapovalov form")
                    bracket = q_bracket(int(n), datum.d[i - 1])
                    val = val + bracket * self._pair_global(ia, ib)
                G[(sa, sb)] = val
        return G

    def _column(self, mat, col):
        return {r: c for (r, cc), c in mat.items() if cc == col}

    def _pair_global(self, ia, ib):
        wa, wb = self.wt_of[ia], self.wt_of[ib]
        if wa != wb:
            return ZERO
        loc = self.weights[wa]
        return self.gram[wa].get((loc.index(ia), loc.index(ib)), ZERO)

    def _pair_vectors(self, u, v):
        out = ZERO
        for ia, ca in u.items():
            for ib, cb in v.items():
                g = self._pair_global(ia, ib)
                if not g.is_zero():
                    out = out + ca * cb * g
        return out

    def _choose_basis(self, G, n):
        ech = Echelon()
        kept = []
        for s in range(n):
            row = {t: G[(s, t)] for t in range(n) if not G[(s, t)].is_zero()}
            if ech.add(row):
                kept.append(s)
        # coordinates of every spanning vector in the kept basis
        cols = [{t: G[(k, t)] for t in range(n) if not G[(k, t)].is_zero()}
                for k in kept]
        coords = []
        for s in range(n):
            target = {t: G[(s, t)] for t in range(n) if not G[(s, t)].is_zero()}
            sol, unique = solve_columns(cols, target)
            if sol is None or not unique:
                raise EngineError(f"Gram row {s} of weight {self.lam} has no unique "
                                  "expression in the chosen basis")
            coords.append({t: c for t, c in enumerate(sol)})
        return kept, coords

    def _e_on_spanning(self, a, i, loc, up, nu):
        # E_a (F_i b) = F_i (E_a b) + delta_ai [<wt b, a^vee>] b, b the parent
        datum = self.datum
        col = self.weights[up][loc]
        eb = self._column(self.E[a], col)
        out = {}
        for mid, c in eb.items():
            accumulate(out, self._column(self.F[i], mid), c)
        if a == i:
            n = datum.pair_coroot(up, a)
            accumulate(out, {col: q_bracket(int(n), datum.d[a - 1])})
        return out

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self):
        return len(self.wt_of)

    def weight_dims(self):
        return {nu: len(idx) for nu, idx in self.weights.items()}

    def k_exponent(self, i, idx):
        """K_i acts on basis vector idx by q^e with e = <wt, alpha_i>."""
        e = self.datum.pairing(self.wt_of[idx], self._simple_roots()[i - 1])
        if e.denominator != 1:
            raise EngineError(f"K_{i} eigenvalue exponent {e} at weight "
                              f"{self.wt_of[idx]} is not an integer")
        return int(e)

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
            mu = self.wt_of[col]
            c0 = datum.pair_coroot(mu, i)
            if c0.denominator != 1:
                raise EngineError(f"braid operator T_{i}: <{mu}, alpha_{i}^vee> = {c0} "
                                  "is not an integer")
            c0 = int(c0)
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
                            sign = from_fraction(-1) ** m
                            coeff = (sign * qpow(d * (m - l * n))
                                     / (q_factorial(l, d) * q_factorial(m, d)
                                        * q_factorial(n, d)))
                            accumulate(out, w, coeff)
                    l += 1
            for row, c in out.items():
                mat[(row, col)] = c
        self._braid[i] = mat
        return mat

    def braid_word_matrix(self, letters, invert=False):
        """T_{a_1} ... T_{a_k} as a matrix (rightmost letter acts first); with
        invert=True the inverse of that product, A_k^{-1} ... A_1^{-1}."""
        out = None
        for i in letters:
            m = self.braid_matrix(i, invert=invert)
            if out is None:
                out = m
            elif invert:
                out = mat_mul(m, out)
            else:
                out = mat_mul(out, m)
        if out is None:
            out = {(t, t): ONE for t in range(self.dim)}
        return out

    def tminus_winv_vector(self, letters):
        """T^{-1}_{w^{-1}} v_lambda for w given by the reduced word `letters`.

        With T_{w^{-1}} = T_{a_k} ... T_{a_1} this is A_1^{-1} ... A_k^{-1}
        applied to the highest weight vector, i.e. inverse letters applied in
        reverse word order.
        """
        v = self.highest_vector()
        for i in reversed(letters):
            v = mat_vec(self.braid_matrix(i, invert=True), v)
        return v


class DualFunctional:
    """A row functional against the fixed weight basis of a module."""

    def __init__(self, module, row):
        self.module = module
        self.row = {i: c for i, c in row.items() if not c.is_zero()}

    def pair(self, vec):
        out = ZERO
        for i, c in self.row.items():
            x = vec.get(i)
            if x is not None:
                out = out + c * x
        return out

    def weight_support(self):
        return {self.module.wt_of[i] for i in self.row}


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


def extremal_vector(module, letters):
    """The canonical vector spanning the extremal weight line w(lambda)."""
    return module.tminus_winv_vector(letters)


def extremal_dual(module, letters):
    """xi_{w,lambda}: supported on the weight line w(lambda), pairing 1
    against T^{-1}_{w^{-1}} v_lambda."""
    v = extremal_vector(module, letters)
    (idx, c), = v.items()
    return DualFunctional(module, {idx: c.inverse()})


def demazure_echelon(module, letters):
    """Echelon basis of U^- T_y v_lambda for y given by the reduced word."""
    ech = Echelon()
    frontier = [extremal_vector(module, letters)]
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
