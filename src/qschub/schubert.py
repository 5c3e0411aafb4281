"""Quantum Schubert cell algebras attached to a reduced word.

The presentation of the cell algebra on the root vectors x_j = F_{beta_j}
has q-commutation scalars lam[(k,j)] = q^{-<beta_j, beta_k>} and straightening
tails supported strictly between j and k.  The tails are extracted by linear
algebra from the root-vector operators on fundamental-weight modules, never
assumed from a closed formula.  Each pair (k, j) carries its own rank
certificate: it is solved on the first module of the sweep and takes the next
one only while its candidate monomial operators stay dependent, so its tail is
the unique solution on its own module set.  That is the tail, which satisfies
the equations of every module.

Each cell extends the cell of its prefix, the word without its last letter,
taken from the cell cache.  The subalgebra on x_1, ..., x_{l-1} is the prefix
cell's algebra U^-[w'], and beta_1, ..., beta_{l-1} and the braid products
before each letter depend only on the prefix.  So the operator packs, which
serve the tail solve alone, append one letter to the prefix cell's packs, and
the relation table is the prefix cell's, padded with a zero x_l slot, plus
the pairs (l, j).  This is exact, not an approximation: every tail is the
unique solution of its linear system, certified by the rank check, and the
CGL certificates of the indices below l only involve x_1, ..., x_{l-1}.  The
prefix cell ran those certificates once; this cell runs them for index l.  A
lone word thus builds its prefixes' cells, the same work as building it from
nothing, now kept for reuse.

Quantum minors and the more general b-elements are evaluated through the
graded pairing formula: the coefficient of F_{beta_l}^{m_l}...F_{beta_1}^{m_1}
is

    prod_j (q_{a_j}^{-1} - q_{a_j})^{m_j} / (q_{a_j}^{m_j(m_j-1)/2} [m_j]_{a_j}!)
      * < xi, tau(E_{beta_1})^{m_1} ... tau(E_{beta_l})^{m_l} T^{-1}_{w^{-1}} v >,

with tau(E_{beta_j}) = R_{j-1}^{-1} E_{a_j} R_{j-1} for R_j = T_{a_j} ... T_{a_1},
and T^{-1}_{w^{-1}} v = R_l^{-1} v.  The braid products telescope, since
R_{j-1} R_j^{-1} = T_{a_j}^{-1}, so the vector is

    E_{a_1}^{m_1} T_{a_1}^{-1} ... E_{a_l}^{m_l} T_{a_l}^{-1} v,

built from single-letter operators of the module with no pack.  The overall
normalisation is pinned by the anchor identity
Delta_l = (q_{a_l}^{-1} - q_{a_l}) x_l, which is asserted, not rescaled.
"""

from .qscalar import ZERO, ONE, qpow, q_factorial
from .linalg import mat_mul, mat_vec, solve_columns, vec_add
from .weyl import ReducedWord, root_datum, default_weight_sweep
from .pbw import Presentation, EngineError
from .cauchon import DeletingDerivations
from .modules import build_module, extremal_dual

__all__ = ["SchubertCell", "NormalizationError"]

# the most modules the rank certificate of one pair's tail may sum over
MODULE_SET_CAP = 8


class NormalizationError(EngineError):
    """The pairing normalisation disagrees with the anchor identities."""


class SchubertCell:
    """All data attached to one (root datum, reduced word) pair."""

    def __init__(self, datum, letters):
        self.datum = datum
        self.word = ReducedWord(datum, letters)
        self.letters = self.word.letters
        self.l = len(self.letters)
        self.betas = self.word.beta_sequence()
        self.d_of = tuple(datum.d[i - 1] for i in self.letters)
        self._ops = {}
        self._prefactors = {}
        self._presentation = None
        self._minors = {}
        self._chain = None
        self._drops = {}

    def prefix_cell(self):
        """The cached cell of the word without its last letter; the empty
        word, the root of every chain of prefixes, has none."""
        return schubert_cell(self.datum.label, self.letters[:-1]) if self.l else None

    # -- scalars ------------------------------------------------------------

    def lam_scalar(self, k, j):
        return qpow(-self.datum.pairing(self.betas[j - 1], self.betas[k - 1]))

    def q_alpha_diff(self, j):
        """q_{a_j}^{-1} - q_{a_j}."""
        d = self.d_of[j - 1]
        return qpow(-d) - qpow(d)

    def pair_prefactor(self, j, m):
        key = (j, m)
        hit = self._prefactors.get(key)
        if hit is None:
            d = self.d_of[j - 1]
            hit = (self.q_alpha_diff(j) ** m) * qpow(-d * (m * (m - 1) // 2)) \
                / q_factorial(m, d)
            self._prefactors[key] = hit
        return hit

    def degs(self):
        return [tuple(-x for x in b) for b in self.betas]

    def weight_drop(self, lam_fw):
        """lambda - w(lambda) in simple-root coordinates: the integer vector
        sum_j lambda_{a_j} beta_j over the letters a_j of the word, where
        lambda_a are the fundamental-weight coefficients lam_fw.  Cached per
        lambda."""
        key = tuple(lam_fw)
        hit = self._drops.get(key)
        if hit is None:
            hit = tuple(sum(key[a - 1] * b[t] for a, b in zip(self.letters, self.betas))
                        for t in range(self.datum.rank))
            self._drops[key] = hit
        return hit

    # -- module operator packs -------------------------------------------------

    def ops(self, lam_fw):
        """The cached operator pack on V(lam) that the tail solve reads:
        the module, the root-vector operators F_{beta_j}, and the braid
        products "fwd" = T_{a_1} ... T_{a_l} and "bwd", its inverse.

        F_{beta_j} is F_{a_j} conjugated by T_{a_1} ... T_{a_{j-1}}; this
        pack appends F_{beta_l} to the prefix cell's list and extends its
        products by letter l."""
        key = tuple(lam_fw)
        hit = self._ops.get(key)
        if hit is not None:
            return hit
        if not self.l:
            module = build_module(self.datum, key)
            one = {t: {t: ONE} for t in range(module.dim)}
            hit = {"module": module, "F": [], "fwd": one, "bwd": one}
        else:
            base = self.prefix_cell().ops(key)
            module = base["module"]
            letter = self.letters[-1]
            fwd, bwd = base["fwd"], base["bwd"]
            hit = {"module": module,
                   "F": base["F"] + [mat_mul(mat_mul(fwd, module.F[letter]), bwd)],
                   "fwd": mat_mul(fwd, module.braid_matrix(letter)),
                   "bwd": mat_mul(module.braid_matrix(letter, invert=True), bwd)}
        self._ops[key] = hit
        return hit

    # -- presentation extraction --------------------------------------------------

    def presentation(self):
        """The CGL presentation: the prefix cell's tails, padded, and the
        pairs (l, j), each rank-certified on its own module set; index l is
        CGL-certified here."""
        if self._presentation is not None:
            return self._presentation
        tails = self._solve_all_tails()
        lam = {(k, j): self.lam_scalar(k, j)
               for k in range(2, self.l + 1) for j in range(1, k)}
        qself = [None] + [qpow(-self.datum.pairing(b, b)) for b in self.betas]
        pres = Presentation(self.l, lam, tails, qself=qself, degs=self.degs())
        self._certify_cgl(pres)
        self._presentation = pres
        return pres

    def _solve_all_tails(self):
        """Every tail: the prefix cell's, padded with a zero x_l slot, and
        the pairs (l, j).  A pair is solved on the first module of the sweep,
        the fundamental weights and then the sums of two, and adds the next
        module, up to MODULE_SET_CAP, only while its solution is not unique;
        each module's equations are built once and stacked onto the pair's."""
        tails = {} if not self.l else {
            kj: {m + (0,): c for m, c in t.items()}
            for kj, t in self.prefix_cell().presentation().tails.items()}
        r = self.datum.rank
        sweep = default_weight_sweep(r, min(MODULE_SET_CAP, r * (r + 3) // 2))
        for j in range(1, self.l):
            packs, built = [], []
            for lam_fw in sweep:
                packs.append(self.ops(lam_fw))
                tail = self._solve_tail(packs, self.l, j, built)
                if tail is not None:
                    break
            else:
                raise EngineError(
                    f"rank certification failed for the word {self.letters}: "
                    f"pair ({self.l}, {j}) is still rank-deficient on {len(packs)} "
                    f"modules (MODULE_SET_CAP = {MODULE_SET_CAP})")
            if tail:
                tails[(self.l, j)] = tail
        return tails

    def _mono_operator(self, pack, mono):
        out = None
        for idx in range(self.l, 0, -1):
            for _ in range(mono[idx - 1]):
                m = pack["F"][idx - 1]
                out = m if out is None else mat_mul(out, m)
        return {t: {t: ONE} for t in range(pack["module"].dim)} if out is None else out

    @staticmethod
    def _flatten(mats):
        """One vector of the matrices mats, keyed (index in mats, row, col)."""
        return {(mi, r, c): v for mi, m in enumerate(mats)
                for c, col in m.items() for r, v in col.items()}

    def _candidate_monomials(self, k, j):
        target = tuple(a + b for a, b in zip(self.betas[j - 1], self.betas[k - 1]))
        out = []

        def walk(idx, remaining, mono):
            if idx == k:
                if not any(remaining):
                    out.append(tuple(mono))
                return
            beta = self.betas[idx - 1]
            mmax = min((r // b for r, b in zip(remaining, beta) if b), default=0)
            for m in range(mmax, -1, -1):
                rem = tuple(r - m * b for r, b in zip(remaining, beta))
                if all(x >= 0 for x in rem):
                    mono[idx - 1] = m
                    walk(idx + 1, rem, mono)
            mono[idx - 1] = 0

        walk(j + 1, target, [0] * self.l)
        return sorted(out)

    def _solve_tail(self, packs, k, j, built=None):
        """The tail of pair (k, j) solved on the modules of packs, or None
        when its candidate operators are dependent there.  built holds one
        (F_k F_j, F_j F_k, candidate operators) triple per module already
        built; a caller that grows packs by a module and passes the same list
        builds only that module's equations."""
        built = [] if built is None else built
        candidates = self._candidate_monomials(k, j)
        for pack in packs[len(built):]:
            mk, mj = pack["F"][k - 1], pack["F"][j - 1]
            built.append((mat_mul(mk, mj), mat_mul(mj, mk),
                          [self._mono_operator(pack, mono) for mono in candidates]))
        kj, jk, ops = zip(*built)
        # the target F_k F_j - lam F_j F_k
        flat_target = vec_add(self._flatten(kj), self._flatten(jk), -self.lam_scalar(k, j))
        if not candidates:
            if flat_target:
                raise EngineError(
                    f"pair ({k},{j}) has a tail but no admissible monomials")
            return {}
        cols = [self._flatten(mats) for mats in zip(*ops)]
        sol, unique = solve_columns(cols, flat_target)
        if sol is None:
            raise EngineError(f"tail of ({k},{j}) is outside the candidate span")
        if not unique:
            return None
        return {mono: c for mono, c in zip(candidates, sol) if not c.is_zero()}

    def _certify_cgl(self, pres):
        # index l only, the prefix cell having certified the indices below:
        # the torus eigenvalue q_l is a nontrivial q-power; sigma delta = q delta
        # sigma; delta_l is nilpotent on the generators below l
        jj = self.l
        if jj < 2:
            return
        qj = pres.qself[jj]
        if qj.as_q_power() in (None, 0):
            raise EngineError(f"torus eigenvalue q_{jj} = {qj} is not a nontrivial "
                              "power of q")
        for i in range(1, jj):
            gen = pres.gen(i)
            pres.delta_nilpotency(jj, gen)
            lhs = pres.apply_sigma(jj, pres.apply_delta(jj, gen))
            rhs = pres.scale(pres.apply_delta(jj, pres.apply_sigma(jj, gen)), qj)
            if lhs != rhs:
                raise EngineError(f"sigma_{jj} delta_{jj} twist certificate failed")

    def chain(self):
        """The deleting-derivations chain, built on the prefix cell's chain."""
        if self._chain is None:
            parent = self.prefix_cell()
            self._chain = DeletingDerivations(self.presentation(),
                                              parent.chain() if parent else None)
        return self._chain

    # -- pairing evaluation ---------------------------------------------------------

    def phi_vectors(self, lam_fw, height):
        """{PBW exponent tuple m: prefactor * tau(E)^m T^{-1}_{w^{-1}} v_lambda}
        for all m with sum m_j beta_j = height (a nonnegative root-lattice
        vector).

        The vector is E_{a_1}^{m_1} T_{a_1}^{-1} ... E_{a_l}^{m_l}
        T_{a_l}^{-1} v_lambda, the telescoped braid conjugations: level j
        applies T_{a_j}^{-1} once, then takes powers of E_{a_j}."""
        module = build_module(self.datum, lam_fw)
        out = {}

        def walk(j, remaining, mono, vec, coeff):
            if j == 0:
                if not any(remaining):
                    out[tuple(mono)] = {i: coeff * c for i, c in vec.items()}
                return
            a, beta = self.letters[j - 1], self.betas[j - 1]
            m, cur, cc = 0, mat_vec(module.braid_matrix(a, invert=True), vec), coeff
            while True:
                rem = tuple(r - m * b for r, b in zip(remaining, beta))
                if any(x < 0 for x in rem):
                    break
                mono[j - 1] = m
                walk(j - 1, rem, mono, cur, cc)
                nxt = mat_vec(module.E[a], cur)
                if not nxt:
                    break
                m += 1
                cur = nxt
                cc = coeff * self.pair_prefactor(j, m)
            mono[j - 1] = 0

        target = tuple(int(x) for x in height)
        walk(self.l, target, [0] * self.l, module.highest_vector(), ONE)
        return out

    def phi_from_dual(self, xi, vectors):
        """{m: <xi, vectors[m]>} over the m that pair to nonzero, for the row
        vector xi {basis index: Scalar}."""
        out = {}
        for mono, vec in vectors.items():
            c = ZERO
            for i, x in xi.items():
                y = vec.get(i)
                if y is not None:
                    c = c + x * y
            if not c.is_zero():
                out[mono] = c
        return out

    def phi_element(self, lam_fw, xi):
        """phi_w(c_xi e_w^{-lam}) as a PBW element (zero if xi pairs to zero),
        xi a row vector {basis index: Scalar} of V(lam)."""
        wt_of = build_module(self.datum, lam_fw).wt_of
        support = {wt_of[i] for i in xi}
        if not support:
            return {}
        if len(support) != 1:
            raise EngineError(f"dual functional has weights {sorted(support)}; "
                              "it must be weight homogeneous")
        # the weight mu = lambda - k has degree mu - w(lambda)
        k = support.pop()
        h = tuple(a - b for a, b in zip(self.weight_drop(lam_fw), k))
        if any(x < 0 for x in h):
            return {}
        return self.phi_from_dual(xi, self.phi_vectors(lam_fw, h))

    # -- minors and b-elements ---------------------------------------------------------

    def fundamental_fw(self, j):
        r = self.datum.rank
        a = self.letters[j - 1]
        return tuple(int(t == a - 1) for t in range(r))

    def quantum_minor(self, j):
        """Delta_j for this word, as a PBW element of the cell presentation."""
        hit = self._minors.get(j)
        if hit is None:
            lam_fw = self.fundamental_fw(j)
            module = build_module(self.datum, lam_fw)
            xi = extremal_dual(module, self.letters[:j - 1])
            hit = self.phi_element(lam_fw, xi)
            if not hit:
                raise NormalizationError(f"minor {j} evaluated to zero")
            self._minors[j] = hit
            if j == self.l:
                self._check_anchor(hit)
        return hit

    def _check_anchor(self, minor_l):
        want = {self.presentation().unit_mono(self.l): self.q_alpha_diff(self.l)}
        if minor_l != want:
            raise NormalizationError(
                "pairing normalisation violates the top-minor anchor identity")

    def b_element(self, y_letters, lam_fw):
        """b^{lam}_{y, w} = phi_w(e^lam_y e_w^{-lam}) for y given by a reduced word."""
        module = build_module(self.datum, lam_fw)
        xi = extremal_dual(module, tuple(y_letters))
        return self.phi_element(tuple(lam_fw), xi)


_CELL_CACHE = {}


def schubert_cell(label, letters):
    """The cached cell of (label, letters); prefix cells are looked up here."""
    key = (label, tuple(letters))
    hit = _CELL_CACHE.get(key)
    if hit is None:
        hit = SchubertCell(root_datum(label), key[1])
        _CELL_CACHE[key] = hit
    return hit
