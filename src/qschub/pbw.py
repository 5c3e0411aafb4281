"""PBW normal forms for iterated Ore extensions with straightening tails.

A Presentation has generators x_1, ..., x_l with relations, for k > j,

    x_k x_j = lam[(k, j)] x_j x_k + tail[(k, j)],

where the tail is supported on monomials in variables strictly between j and
k.  Equivalently sigma_k(x_j) = lam[(k, j)] x_j and delta_k(x_j) =
tail[(k, j)] for the Ore data x_k a = sigma_k(a) x_k + delta_k(a).

Elements are dicts {exponent tuple: Scalar}; the tuple slot i-1 is the
exponent of x_i and the monomial reads x_l^{n_l} ... x_1^{n_1} (descending
index left to right, the PBW convention).  At most one slot, the declared
pivot, may carry negative exponents; localisation at the pivot uses

    a x_p    = x_p sigma_p^{-1}(a) - delta_p(sigma_p^{-1}(a)),
    a x_p^-1 = sum_t x_p^{-(t+1)} sigma_p(delta_p^t(a)),

the second sum being finite because delta_p is locally nilpotent.
"""

from .qscalar import ONE, render_scalar, parse_scalar, EngineError
from .linalg import accumulate, vec_add, vec_scale

__all__ = ["Presentation", "EngineError", "NotExpressibleError"]

NILPOTENCY_CAP = 64


class NotExpressibleError(EngineError):
    """Raised when an element has no expansion within the allowed support."""


def _top_index(mono):
    for i in range(len(mono) - 1, -1, -1):
        if mono[i]:
            return i + 1
    return 0


def _min_index(mono):
    for i, n in enumerate(mono):
        if n:
            return i + 1
    return 0


def _merge(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


class Presentation:
    """Immutable relation table plus element arithmetic for one algebra."""

    def __init__(self, l, lam, tails, qself=None, degs=None, pivot=None,
                 validate=True):
        self.l = l
        self.lam = dict(lam)                   # (k, j) -> Scalar, k > j
        self.tails = {kj: dict(t) for kj, t in tails.items() if t}
        self.qself = list(qself) if qself is not None else [None] * (l + 1)
        self.degs = tuple(tuple(d) for d in degs) if degs is not None else None
        self.pivot = pivot
        self._delta_memo = {}
        self._mono_memo = {}
        if validate:
            self._validate()

    def _validate(self):
        for k in range(2, self.l + 1):
            for j in range(1, k):
                if (k, j) not in self.lam or self.lam[(k, j)].is_zero():
                    raise EngineError(f"missing or zero q-commutation scalar for ({k},{j})")
        for (k, j), tail in self.tails.items():
            for mono, c in tail.items():
                if c.is_zero():
                    raise EngineError(f"zero tail coefficient stored at ({k},{j})")
                lo, hi = _min_index(mono), _top_index(mono)
                if mono != tuple(0 for _ in mono) and not (j < lo and hi < k):
                    raise EngineError(
                        f"tail of ({k},{j}) not strictly between: monomial {mono}")
                if mono == tuple(0 for _ in mono):
                    raise EngineError(f"constant term in tail of ({k},{j})")
                if self.degs is not None:
                    if self.degree_of_mono(mono) != _merge(self.degs[j - 1], self.degs[k - 1]):
                        raise EngineError(f"tail of ({k},{j}) not degree-homogeneous")

    # -- constructors -------------------------------------------------------

    def one(self):
        return {tuple(0 for _ in range(self.l)): ONE}

    def unit_mono(self, j, power=1):
        return tuple(power if i == j - 1 else 0 for i in range(self.l))

    def gen(self, j, power=1, coeff=ONE):
        return {self.unit_mono(j, power): coeff}

    def with_pivot(self, pivot):
        return Presentation(self.l, self.lam, self.tails, self.qself, self.degs,
                            pivot=pivot, validate=False)

    def restrict(self, t):
        """Sub-presentation on x_1..x_t (tails of inner pairs are preserved)."""
        lam = {(k, j): v for (k, j), v in self.lam.items() if k <= t}
        tails = {}
        for (k, j), tail in self.tails.items():
            if k <= t:
                tails[(k, j)] = {m[:t]: c for m, c in tail.items()}
        degs = self.degs[:t] if self.degs is not None else None
        return Presentation(t, lam, tails, self.qself[:t + 1], degs, validate=False)

    # -- element helpers ------------------------------------------------------

    add = staticmethod(vec_add)
    scale = staticmethod(vec_scale)

    def degree_of_mono(self, mono):
        if self.degs is None:
            raise EngineError("presentation carries no grading")
        n = len(self.degs[0])
        out = [0] * n
        for i, e in enumerate(mono):
            if e:
                d = self.degs[i]
                for t in range(n):
                    out[t] += e * d[t]
        return tuple(out)

    def degree(self, e):
        """Common degree of a homogeneous element (error if mixed)."""
        degs = {self.degree_of_mono(m) for m in e}
        if len(degs) > 1:
            raise EngineError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop() if degs else None

    # -- sigma / delta --------------------------------------------------------

    def sigma_scalar(self, k, mono, power=1):
        """Eigenvalue of sigma_k^power on a monomial supported below k."""
        out = ONE
        for i, n in enumerate(mono):
            if n:
                if i + 1 >= k:
                    raise EngineError(f"sigma_{k} applied to monomial with x_{i+1}")
                out = out * self.lam[(k, i + 1)] ** (n * power)
        return out

    def apply_sigma(self, k, e, power=1):
        return {m: self.sigma_scalar(k, m, power) * c for m, c in e.items()}

    def delta_is_trivial(self, k):
        return not any((k, i) in self.tails for i in range(1, k))

    def delta_mono(self, k, mono):
        """delta_k on a monomial supported strictly below k (memoised)."""
        if self.delta_is_trivial(k):
            return {}
        key = (k, mono)
        hit = self._delta_memo.get(key)
        if hit is not None:
            return hit
        if _top_index(mono) == 0:
            out = {}
        else:
            i = _top_index(mono)
            if i >= k:
                raise EngineError(f"delta_{k} applied to monomial with x_{i}")
            if mono[i - 1] < 0:
                raise EngineError(f"delta_{k} applied to a Laurent monomial")
            rest = tuple(n - 1 if t == i - 1 else n for t, n in enumerate(mono))
            # delta(x_i m') = lam_{ki} x_i delta(m') + tail_{ki} m'
            out = {}
            inner = self.delta_mono(k, rest)
            if inner:
                out = self.mul(self.gen(i), inner)
                out = self.scale(out, self.lam[(k, i)])
            tail = self.tails.get((k, i))
            if tail:
                accumulate(out, {_merge(tm, rest): tc for tm, tc in tail.items()})
        self._delta_memo[key] = out
        return out

    def apply_delta(self, k, e):
        out = {}
        for m, c in e.items():
            accumulate(out, self.delta_mono(k, m), c)
        return out

    def delta_nilpotency(self, k, e):
        """Least m with delta_k^m(e) = 0; errors past NILPOTENCY_CAP."""
        m = 0
        while e:
            e = self.apply_delta(k, e)
            m += 1
            if m > NILPOTENCY_CAP:
                raise EngineError(f"delta_{k} not nilpotent within cap on element")
        return m

    def dd_term(self, k, e, m):
        """delta_k^m sigma_k^{-m}(e), the m-th deleting-derivations numerator."""
        cur = self.apply_sigma(k, e, -m) if m else dict(e)
        for _ in range(m):
            cur = self.apply_delta(k, cur)
        return cur

    # -- multiplication ---------------------------------------------------------

    def mul(self, e1, e2):
        if len(e1) == 1 and len(e2) == 1:
            # a copy of the memoised monomial product, scaled unless c1*c2 is 1
            (m1, c1), = e1.items()
            (m2, c2), = e2.items()
            return vec_scale(self._mul_mono(m1, m2), c1 * c2)
        out = {}
        for m2, c2 in e2.items():
            for m1, c1 in e1.items():
                prod = self._mul_mono(m1, m2)
                if prod:
                    accumulate(out, prod, c1 * c2)
        return out

    def _mul_mono(self, m1, m2):
        key = (m1, m2)
        hit = self._mono_memo.get(key)
        if hit is not None:
            return hit
        top2 = _top_index(m2)
        if top2 == 0:
            out = {m1: ONE}
        elif _top_index(m1) == 0:
            out = {m2: ONE}
        else:
            min1 = _min_index(m1)
            if min1 >= top2:
                out = {_merge(m1, m2): ONE}
            else:
                b = m2[top2 - 1]
                rest = tuple(0 if i == top2 - 1 else n for i, n in enumerate(m2))
                pushed = self._push_power({m1: ONE}, top2, b)
                if _top_index(rest) == 0:
                    out = pushed
                else:
                    out = self.mul(pushed, {rest: ONE})
        self._mono_memo[key] = out
        return out

    def _push_power(self, e, k, b):
        if b < 0:
            # only the pivot (Ore-localised) and tail-free twist variables
            # above it are invertible
            if k != self.pivot and not (self.delta_is_trivial(k)
                                        and self.pivot is not None and k > self.pivot):
                raise EngineError(f"negative power of non-invertible x_{k}")
            for _ in range(-b):
                e = self._push_geninv(e, k)
            return e
        for _ in range(b):
            e = self._push_gen(e, k)
        return e

    def _push_gen(self, e, k):
        # e * x_k with every monomial of e normal
        out = {}
        ek = self.unit_mono(k)
        for m, c in e.items():
            lo = tuple(n if i < k - 1 else 0 for i, n in enumerate(m))
            if _top_index(lo) == 0:
                accumulate(out, {_merge(m, ek): ONE}, c)
                continue
            hi = tuple(n if i >= k - 1 else 0 for i, n in enumerate(m))
            s = self.sigma_scalar(k, lo, -1)
            accumulate(out, {_merge(_merge(hi, ek), lo): s}, c)
            dlo = self.delta_mono(k, lo)
            if dlo:
                accumulate(out, {_merge(hi, dm): dc for dm, dc in dlo.items()},
                           -(c * s))
        return out

    def _push_geninv(self, e, p):
        # e * x_p^{-1}; pivot powers collect in the pivot slot
        out = {}
        for m, c in e.items():
            lo = tuple(n if i < p - 1 else 0 for i, n in enumerate(m))
            hi = tuple(n if i >= p - 1 else 0 for i, n in enumerate(m))
            cur = {lo: ONE}
            t = 0
            while cur:
                if t > NILPOTENCY_CAP:
                    raise EngineError(f"delta_{p} not nilpotent within cap (localisation)")
                shift = tuple(-(t + 1) if i == p - 1 else 0 for i in range(self.l))
                base = _merge(hi, shift)
                accumulate(out, {_merge(base, dm): dc
                                 for dm, dc in self.apply_sigma(p, cur).items()}, c)
                cur = self.apply_delta(p, cur)
                t += 1
        return out

    # -- localisation-facing views ----------------------------------------------

    def theta(self, e):
        """The deleting-derivations isomorphism on elements free of x_l.

        theta(a') = sum_m (1 - q_l)^{-m}/(m)_{q_l}! [delta_l^m sigma_l^{-m}(a')] x_l^{-m}
        """
        from .qscalar import cauchon_factorial
        if any(m[self.l - 1] for m in e):
            raise EngineError("theta needs an element free of the top variable")
        ql = self.qself[self.l]
        if ql is None:
            raise EngineError("presentation carries no torus eigenvalue for the top variable")
        ctx = self if self.pivot == self.l else self.with_pivot(self.l)
        one_minus = ONE - ql
        out = {}
        m = 0
        while True:
            if m > NILPOTENCY_CAP:
                raise EngineError("theta series did not terminate within cap")
            cur = ctx.dd_term(self.l, e, m)
            if not cur:
                break
            coeff = (one_minus ** (-m)) * cauchon_factorial(m, ql).inverse()
            term = ctx.mul(cur, ctx.gen(self.l, -m)) if m else cur
            accumulate(out, term, coeff)
            m += 1
        return out

    # -- serialisation ------------------------------------------------------------

    @staticmethod
    def element_to_json(e):
        return sorted([list(m), render_scalar(c)] for m, c in e.items())

    def element_from_json(self, data):
        return {tuple(m): parse_scalar(s) for m, s in data}

    def table_text(self):
        """Plain-text relation table: `rel k j : lambda | mono coeff ; ...`."""
        lines = [f"gens {self.l}"]
        for k in range(2, self.l + 1):
            for j in range(1, k):
                lam = render_scalar(self.lam[(k, j)])
                tail = self.tails.get((k, j), {})
                parts = [f"{','.join(map(str, m))} {render_scalar(c)}"
                         for m, c in sorted(tail.items())]
                suffix = " | " + " ; ".join(parts) if parts else ""
                lines.append(f"rel {k} {j} : {lam}{suffix}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_table_text(cls, text, qself=None, degs=None):
        l = None
        lam, tails = {}, {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("gens"):
                l = int(line.split()[1])
                continue
            if not line.startswith("rel "):
                raise EngineError(f"bad relation table line: {line}")
            head, _, rhs = line[4:].partition(":")
            k, j = (int(t) for t in head.split())
            lam_text, _, tail_text = rhs.partition("|")
            lam[(k, j)] = parse_scalar(lam_text.strip())
            tail = {}
            if tail_text.strip():
                for part in tail_text.split(";"):
                    mono_text, _, coeff_text = part.strip().partition(" ")
                    mono = tuple(int(t) for t in mono_text.split(","))
                    tail[mono] = parse_scalar(coeff_text.strip())
            if tail:
                tails[(k, j)] = tail
        if l is None:
            raise EngineError("table text lacks a `gens` line")
        return cls(l, lam, tails, qself=qself, degs=degs)
