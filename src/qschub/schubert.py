"""Quantum Schubert cell algebras attached to a reduced word.

The presentation of the cell algebra on the root vectors x_j = F_{beta_j}
has q-commutation scalars lam[(k,j)] = q^{-<beta_j, beta_k>} and straightening
tails supported strictly between j and k.  The tails are extracted by linear
algebra from the root-vector operators on a faithful sum of fundamental-weight
modules (the rank certificate enlarges the module set until the candidate
monomial operators are independent), never assumed from a closed formula.

Quantum minors and the more general b-elements are evaluated through the
graded pairing formula: the coefficient of F_{beta_l}^{m_l}...F_{beta_1}^{m_1}
is

    prod_j (q_{a_j}^{-1} - q_{a_j})^{m_j} / (q_{a_j}^{m_j(m_j-1)/2} [m_j]_{a_j}!)
      * < xi, (tauE_{beta_1})^{m_1} ... (tauE_{beta_l})^{m_l} T^{-1}_{w^{-1}} v >,

with tauE_{beta_j} and F_{beta_j} realised as braid-conjugated single-letter
operators.  The overall normalisation is pinned by the anchor identity
Delta_l = (q_{a_l}^{-1} - q_{a_l}) x_l, which is asserted, not rescaled.
"""

from fractions import Fraction

from .qscalar import ONE, qpow, q_factorial
from .linalg import accumulate, mat_mul, mat_vec, solve_columns
from .weyl import ReducedWord, root_datum
from .pbw import Presentation, EngineError
from .modules import build_module, extremal_dual, root_coords
from .subwords import successor_table

__all__ = ["SchubertCell", "NormalizationError"]


class NormalizationError(EngineError):
    """The pairing normalisation disagrees with the anchor identities."""


def _int_vec(v):
    if any(Fraction(x).denominator != 1 for x in v):
        raise EngineError(f"weight {tuple(v)} is not integral")
    return tuple(int(x) for x in v)


class SchubertCell:
    """All data attached to one (root datum, reduced word) pair."""

    def __init__(self, datum, letters, lambda_budget=8):
        self.datum = datum
        self.word = ReducedWord(datum, letters)
        self.letters = self.word.letters
        self.l = len(self.letters)
        self.betas = self.word.beta_sequence()
        self.kappa, self.orbit_count = successor_table(self.word)
        self.d_of = tuple(datum.d[i - 1] for i in self.letters)
        self.lambda_budget = lambda_budget
        self._ops = {}
        self._presentation = None
        self._minors = {}
        self._extraction_modules = None

    # -- scalars ------------------------------------------------------------

    def lam_scalar(self, k, j):
        return qpow(-self.datum.pairing(self.betas[j - 1], self.betas[k - 1]))

    def q_alpha_diff(self, j):
        """q_{a_j}^{-1} - q_{a_j}."""
        d = self.d_of[j - 1]
        return qpow(-d) - qpow(d)

    def pair_prefactor(self, j, m):
        d = self.d_of[j - 1]
        return (self.q_alpha_diff(j) ** m) * qpow(-d * (m * (m - 1) // 2)) \
            / q_factorial(m, d)

    def degs(self):
        return [tuple(-x for x in b) for b in self.betas]

    # -- module operator packs -------------------------------------------------

    def ops(self, lam_fw):
        """Cached operators on V(lam): F_{beta_j}, tauE_{beta_j}, u_w."""
        key = tuple(lam_fw)
        hit = self._ops.get(key)
        if hit is not None:
            return hit
        module = build_module(self.datum, lam_fw)
        fmats, emats = [], []
        for j in range(1, self.l + 1):
            prefix = self.letters[:j - 1]
            fwd = module.braid_word_matrix(prefix)
            bwd = module.braid_word_matrix(prefix, invert=True)
            letter = self.letters[j - 1]
            fmats.append(mat_mul(mat_mul(fwd, module.F[letter]), bwd))
            rev = tuple(reversed(prefix))
            conj = module.braid_word_matrix(rev)
            conj_inv = module.braid_word_matrix(rev, invert=True)
            emats.append(mat_mul(mat_mul(conj_inv, module.E[letter]), conj))
        u_w = module.tminus_winv_vector(self.letters)
        hit = {"module": module, "F": fmats, "tauE": emats, "u_w": u_w}
        self._ops[key] = hit
        return hit

    def _fundamental_list(self):
        r = self.datum.rank
        out = [tuple(int(t == a) for t in range(r)) for a in range(r)]
        pairs = [tuple((a == t) + (b == t) for t in range(r))
                 for a in range(r) for b in range(a, r)]
        return out + pairs

    # -- presentation extraction --------------------------------------------------

    def presentation(self):
        """The CGL presentation; tails solved on a rank-certified module sum."""
        if self._presentation is not None:
            return self._presentation
        mods = []
        queue = list(self._fundamental_list())
        if len(queue) < 1:
            raise EngineError("no modules available")
        mods.append(queue.pop(0))
        while True:
            try:
                tails = self._solve_all_tails(mods)
                break
            except _RankDeficient:
                if not queue or len(mods) >= self.lambda_budget:
                    raise EngineError(
                        "rank certification failed: module truncation too small")
                mods.append(queue.pop(0))
        lam = {(k, j): self.lam_scalar(k, j)
               for k in range(2, self.l + 1) for j in range(1, k)}
        qself = [None] + [qpow(-self.datum.pairing(b, b)) for b in self.betas]
        pres = Presentation(self.l, lam, tails, qself=qself, degs=self.degs(),
                            name=f"U-[{self.word.element.render()}]@{self.letters}")
        self._certify_cgl(pres)
        self._presentation = pres
        self._extraction_modules = list(mods)
        return pres

    def _solve_all_tails(self, mod_keys):
        packs = [self.ops(k) for k in mod_keys]
        tails = {}
        for k in range(2, self.l + 1):
            for j in range(1, k):
                tail = self._solve_tail(packs, k, j)
                if tail:
                    tails[(k, j)] = tail
        return tails

    def element_operator(self, lam_fw, element):
        """The operator of a PBW element on V(lam): an independent check of
        engine arithmetic against the faithful module action."""
        pack = self.ops(tuple(lam_fw))
        out = {}
        for mono, c in element.items():
            mat, = self._mono_operator([pack], mono)
            accumulate(out, mat, c)
        return out

    def _mono_operator(self, packs, mono):
        mats = []
        for pack in packs:
            out = None
            for idx in range(self.l, 0, -1):
                for _ in range(mono[idx - 1]):
                    m = pack["F"][idx - 1]
                    out = m if out is None else mat_mul(out, m)
            if out is None:
                out = {(t, t): ONE for t in range(pack["module"].dim)}
            mats.append(out)
        return mats

    def _flatten(self, mats):
        out = {}
        for mi, m in enumerate(mats):
            for (r, c), v in m.items():
                out[(mi, r, c)] = v
        return out

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

    def _solve_tail(self, packs, k, j):
        lam = self.lam_scalar(k, j)
        target = []
        for pack in packs:
            mk, mj = pack["F"][k - 1], pack["F"][j - 1]
            lhs = mat_mul(mk, mj)
            rhs = mat_mul(mj, mk)
            target.append({key: v for key, v in
                           Presentation.add(lhs, rhs, -lam).items()})
        flat_target = self._flatten(target)
        candidates = self._candidate_monomials(k, j)
        if not candidates:
            if flat_target:
                raise EngineError(
                    f"pair ({k},{j}) has a tail but no admissible monomials")
            return {}
        cols = [self._flatten(self._mono_operator(packs, mono)) for mono in candidates]
        sol, unique = solve_columns(cols, flat_target)
        if sol is None:
            raise EngineError(f"tail of ({k},{j}) is outside the candidate span")
        if not unique:
            raise _RankDeficient()
        return {mono: c for mono, c in zip(candidates, sol) if not c.is_zero()}

    def _certify_cgl(self, pres):
        # torus eigenvalues q_j are nontrivial q-powers; sigma delta = q delta sigma;
        # every delta_j is nilpotent on the generators below j
        for jj in range(2, self.l + 1):
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

    # -- pairing evaluation ---------------------------------------------------------

    def phi_vectors(self, lam_fw, height):
        """{PBW exponent tuple m: prefactor * (tauE)^m u_w} for all m with
        sum m_j beta_j = height (a nonnegative root-lattice vector)."""
        pack = self.ops(lam_fw)
        out = {}

        def walk(j, remaining, mono, vec, coeff):
            if j == 0:
                if not any(remaining):
                    out[tuple(mono)] = {i: coeff * c for i, c in vec.items()}
                return
            beta = self.betas[j - 1]
            m, cur, cc = 0, vec, coeff
            while True:
                rem = tuple(r - m * b for r, b in zip(remaining, beta))
                if any(x < 0 for x in rem):
                    break
                mono[j - 1] = m
                walk(j - 1, rem, mono, cur, cc)
                nxt = mat_vec(pack["tauE"][j - 1], cur)
                if not nxt:
                    break
                m += 1
                cur = nxt
                cc = coeff * self.pair_prefactor(j, m)
            mono[j - 1] = 0

        target = tuple(int(x) for x in height)
        walk(self.l, target, [0] * self.l, dict(pack["u_w"]), ONE)
        return out

    def phi_from_dual(self, xi, vectors):
        out = {}
        for mono, vec in vectors.items():
            c = xi.pair(vec)
            if not c.is_zero():
                out[mono] = c
        return out

    def phi_element(self, lam_fw, xi):
        """phi_w(c_xi e_w^{-lam}) as a PBW element (zero if xi pairs to zero)."""
        support = xi.weight_support()
        if not support:
            return {}
        if len(support) != 1:
            raise EngineError(f"dual functional has weights {sorted(support)}; "
                              "it must be weight homogeneous")
        mu = support.pop()
        module = self.ops(lam_fw)["module"]
        wl = self.word.element.act_weight(module.lam)
        h = tuple(m - w for m, w in zip(mu, wl))
        if any(Fraction(x).denominator != 1 or x < 0 for x in h):
            return {}
        return self.phi_from_dual(xi, self.phi_vectors(lam_fw, _int_vec(h)))

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
            module = self.ops(lam_fw)["module"]
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
        module = self.ops(tuple(lam_fw))["module"]
        xi = extremal_dual(module, tuple(y_letters))
        return self.phi_element(tuple(lam_fw), xi)

    def minor_degree(self, j):
        """(w - y) applied to the fundamental weight, as an integer vector:
        the Q-degree of Delta_j in the deg F_{beta} = -beta convention."""
        lam = root_coords(self.datum, self.fundamental_fw(j))
        y = self.word.prefix(j - 1)
        w = self.word.element
        return _int_vec(tuple(a - b for a, b in
                              zip(w.act_weight(lam), y.act_weight(lam))))

    # -- structural checks ------------------------------------------------------------

    def verify_leading_term(self, j):
        """Delta_j minus its one-step factorisation lies in the subalgebra on
        indices > j; returns the support report (empty difference support)."""
        pres = self.presentation()
        minor = self.quantum_minor(j)
        coeff = self.q_alpha_diff(j)
        if self.kappa[j - 1] is not None:
            lead = pres.mul(self.quantum_minor(self.kappa[j - 1]), pres.gen(j))
        else:
            lead = pres.gen(j)
        diff = pres.add(minor, lead, -coeff)
        bad = [m for m in diff if any(m[t] for t in range(j))]
        return {"j": j, "kappa": self.kappa[j - 1], "ok": not bad, "bad": bad}

    def minor_commutation_exponent(self, j, k):
        """Delta_j Delta_k = q^n Delta_k Delta_j; returns n or raises."""
        pres = self.presentation()
        p = pres.mul(self.quantum_minor(j), self.quantum_minor(k))
        q = pres.mul(self.quantum_minor(k), self.quantum_minor(j))
        mono = next(iter(p))
        ratio = p[mono] / q[mono]
        n = ratio.as_q_power()
        if n is None or pres.add(p, q, -ratio):
            raise EngineError(f"minors {j},{k} are not q-proportional")
        return n


class _RankDeficient(Exception):
    pass


def schubert_cell(label, letters, cache={}):
    key = (label, tuple(letters))
    hit = cache.get(key)
    if hit is None:
        hit = SchubertCell(root_datum(label), tuple(letters))
        cache[key] = hit
    return hit
