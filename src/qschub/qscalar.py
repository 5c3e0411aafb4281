"""Exact arithmetic in the field Q(q) of rational functions in q over the rationals.

A Scalar is a fraction num/den of polynomials in q with rational coefficients,
kept in a canonical form:

  * num is a sparse Laurent polynomial, a tuple of (exponent, coefficient)
    pairs sorted by exponent;
  * den is an ordinary polynomial in the same form, with nonzero constant
    term and leading coefficient 1;
  * gcd(num shifted to lowest exponent 0, den) = 1;
  * zero is () / ((0, 1),).

Canonical forms are unique, so equality is structural equality and Scalars are
hashable.  All operations are pure and exact; no floating point anywhere.

The engine repeats a few scalar operations many times over (on the benchmark
campaigns, 90-98% of products and 64-97% of sums have been computed before),
so four module tables memoise it:

  * _SHARED maps a canonical form (num, den) to the one shared Scalar with
    that value.  Every Scalar this module returns (ZERO, ONE, qpow,
    from_fraction, q_bracket, products, sums, negations, inverses) passes
    through it, so equal results are one object;
  * _MUL and _ADD map an operand pair (a, b) to the shared a*b and a+b, and
    __mul__ and __add__ look the pair up before computing anything.  The
    negation -a is a*(-1), kept in _MUL under the pair (a, MINUS_ONE), so
    -a, a - b and a * MINUS_ONE share one entry;
  * _INV maps a to the shared a.inverse(), which a / b also reads.

Since equal values are one object, the dicts, tuples and == checks above this
layer mostly succeed on CPython's identity shortcut instead of comparing
tuples.  Each table is cleared once it holds MEMO_CAP entries, which bounds
its memory.  Equality and hash stay structural, so the tables are pure
caches: clearing one costs speed, never correctness, and a Scalar made
outside them (Scalar({...}) directly, or copy.deepcopy) equals and hashes
like the shared one.  For the same reason Scalar.__init__ stays the
canonicalising constructor: making it a hash-consing __new__ would make an
unshared Scalar compare unequal to its shared twin, and would hide
construction from wrappers that count and time __init__.

A coefficient is an int when it is integral and a fractions.Fraction (with
denominator > 1) only when it is not; an integral Fraction is never stored.
Since str(3) == str(Fraction(3)) and hash(3) == hash(Fraction(3)), rendering
and hashing do not depend on which of the two a value took on the way.  Every
coefficient division goes through _div, which divides ints with // when the
division is exact and through Fraction otherwise, so int / int (a float)
never runs.

The gcd that makes a form canonical runs over Z[q] and never creates a
Fraction.  _canon clears the coefficient denominators of the numerator and
the denominator once, takes their gcd in Z[q] by the primitive remainder
sequence (Knuth, TAOCP vol. 2, 4.6.1: every pseudo-remainder is reduced to
its primitive part, so the coefficients stay small and integral), and
divides both by it with exact integer trial division.  That division is the
gcd's certificate: a nonzero remainder raises EngineError instead of
returning a form that is not canonical.  Only the last step, making the
denominator monic, may give Fraction coefficients.
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Scalar", "ZERO", "ONE", "qpow", "from_fraction",
    "q_bracket", "q_integer", "q_factorial",
    "cauchon_integer", "cauchon_factorial",
    "parse_scalar", "EngineError",
]

_DEN_ONE = ((0, 1),)

# every table is cleared when it reaches this many entries
MEMO_CAP = 8192

_SHARED = {}    # (num, den) -> the shared Scalar with that canonical form
_MUL = {}       # (a, b) -> a * b
_ADD = {}       # (a, b) -> a + b
_INV = {}       # a -> a.inverse()


class EngineError(RuntimeError):
    """An exact computation failed: a certificate did not hold, a cap was
    hit, or the data have no answer of the required form."""


def _remember(table, key, value):
    if len(table) >= MEMO_CAP:
        table.clear()
    table[key] = value
    return value


def _share(s):
    """The shared Scalar equal to s; s itself becomes it if none is stored."""
    key = (s.num, s.den)
    t = _SHARED.get(key)
    return _remember(_SHARED, key, s) if t is None else t


def _norm(c):
    # an integral Fraction becomes its int; ints and other Fractions stay
    return c if c.__class__ is int or c.denominator != 1 else c.numerator


def _div(a, b):
    # the one coefficient division: exact ints by //, anything else by Fraction
    if a.__class__ is int and b.__class__ is int:
        quo, rem = divmod(a, b)
        if not rem:
            return quo
    return _norm(Fraction(a) / b)


def _trim(d):
    return {e: _norm(c) for e, c in d.items() if c}


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s if s.__class__ is int else _norm(s)
        else:
            out.pop(e, None)
    return out


def _pmul(a, b):
    if not a or not b:
        return {}
    if len(a) == 1:
        (ea, ca), = a.items()
        return dict(_scaled(b.items(), ea, ca))
    if len(b) == 1:
        (eb, cb), = b.items()
        return dict(_scaled(a.items(), eb, cb))
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s if s.__class__ is int else _norm(s)
            else:
                out.pop(e, None)
    return out


def _scaled(terms, k, c0):
    # (exponent, coefficient) pairs times c0*q^k, in the same order
    if c0 == 1:
        return tuple([(e + k, c) for e, c in terms])
    return tuple([(e + k, p if (p := c * c0).__class__ is int else _norm(p))
                  for e, c in terms])


def _pshift(a, k):
    if k == 0:
        return dict(a)
    return {e + k: c for e, c in a.items()}


def _to_dense(a):
    # ordinary polynomial dict -> dense coefficient list, constant first
    n = max(a)
    out = [0] * (n + 1)
    for e, c in a.items():
        out[e] = c
    return out


def _integral(v):
    """(w, m): the dense list v times m, the lcm of its coefficient
    denominators, so that w holds ints only."""
    m = 1
    for c in v:
        if c.__class__ is not int:
            m = lcm(m, c.denominator)
    if m == 1:
        return v, 1
    return [c * m if c.__class__ is int else c.numerator * (m // c.denominator)
            for c in v], m


def _pseudo_remainder(a, b):
    # a constant times the remainder of a by b over Q, deg a >= deg b >= 1:
    # each step cancels the top term of r by the smallest integer multiples
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:
        lr = r[-1]
        g = gcd(lr, lb)
        mr, mb = lb // g, lr // g
        if mr != 1:
            r = [mr * x for x in r]
        s = len(r) - 1 - db
        for k in range(db):
            r[s + k] -= mb * b[k]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _zgcd(a, b):
    """The gcd in Z[q] of two nonzero dense integer polynomials, with
    positive leading coefficient: the gcd of the contents times the last
    nonzero term of the primitive remainder sequence (Knuth, TAOCP vol. 2,
    4.6.1), which keeps the primitive part of every pseudo-remainder."""
    ca, cb = gcd(*a), gcd(*b)
    a = [x // ca for x in a] if ca != 1 else a
    b = [x // cb for x in b] if cb != 1 else b
    c = gcd(ca, cb)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            if b[-1] < 0:
                c = -c
            return [c * x for x in b] if c != 1 else b
        cr = gcd(*r)
        a, b = b, [x // cr for x in r] if cr != 1 else r
    # a constant primitive part is a unit
    return [c]


def _exact_quotient(a, g, which):
    """a / g for dense integer polynomials, by trial division over Z; the
    certificate that the gcd g divides a."""
    dg, lg = len(g) - 1, g[-1]
    a = list(a)
    quot = [0] * max(len(a) - dg, 0)
    for i in range(len(a) - 1, dg - 1, -1):
        if a[i]:
            f, rem = divmod(a[i], lg)
            if rem:
                break
            quot[i - dg] = f
            for k in range(dg):
                a[i - dg + k] -= f * g[k]
    else:
        if not any(a[:dg]):
            return quot
    raise EngineError(f"Z[q] gcd certificate: {g} does not divide the {which}")


def _canon(num, den):
    num = _trim(num)
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("division by zero in Q(q)")
    if not num:
        return (), _DEN_ONE
    sd = min(den)
    if sd:
        den = _pshift(den, -sd)
        num = _pshift(num, -sd)
    sn = min(num)
    p = _pshift(num, -sn) if sn else num
    if len(den) == 1 and den.get(0) is not None:
        # constant denominator: fold into numerator
        c = den[0]
        if c != 1:
            p = {e: _div(v, c) for e, v in p.items()}
        den = {0: 1}
    else:
        # p/den = (pz/mp) / (dz/md) with pz, dz over Z; cancel their gcd in
        # Z[q] and make the denominator monic
        pz, mp = _integral(_to_dense(p))
        dz, md = _integral(_to_dense(den))
        g = _zgcd(pz, dz)
        if g != [1]:
            pz = _exact_quotient(pz, g, "numerator")
            dz = _exact_quotient(dz, g, "denominator")
        lc = dz[-1]
        scale = mp * lc
        den = {e: _div(c, lc) for e, c in enumerate(dz) if c}
        p = {e: _div(c * md, scale) for e, c in enumerate(pz) if c}
    num = _pshift(p, sn) if sn else p
    return tuple(sorted(num.items())), tuple(sorted(den.items()))


class Scalar:
    """An element of Q(q) in canonical form.  Immutable and hashable."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if den is None:
            den = {0: 1}
        self.num, self.den = _canon(num, den)
        self._hash = None

    @classmethod
    def _raw(cls, num_t, den_t):
        # the shared Scalar with this already canonical form
        s = object.__new__(cls)
        s.num, s.den, s._hash = num_t, den_t, None
        return _share(s)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == ((0, 1),) and self.den == _DEN_ONE

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = from_fraction(Fraction(other))
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        key = (self, other)
        out = _ADD.get(key)
        return _remember(_ADD, key, self._sum(other)) if out is None else out

    def _sum(self, other):
        if self.den == _DEN_ONE and other.den == _DEN_ONE:
            return Scalar._raw(
                tuple(sorted(_padd(dict(self.num), dict(other.num)).items())), _DEN_ONE)
        n1, d1 = dict(self.num), dict(self.den)
        n2, d2 = dict(other.num), dict(other.den)
        return _share(Scalar(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2)))

    def __neg__(self):
        return self * MINUS_ONE

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        key = (self, other)
        out = _MUL.get(key)
        return _remember(_MUL, key, self._product(other)) if out is None else out

    def _product(self, other):
        a, b = self.num, other.num
        if not a or not b:
            return ZERO
        # A monomial c*q^k with denominator 1 scales the other numerator: the
        # shifted numerator is only multiplied by a unit, so it stays coprime
        # to the denominator and the result is already canonical.
        if len(b) == 1 and other.den == _DEN_ONE:
            return Scalar._raw(_scaled(a, *b[0]), self.den)
        if len(a) == 1 and self.den == _DEN_ONE:
            return Scalar._raw(_scaled(b, *a[0]), other.den)
        if self.den == _DEN_ONE and other.den == _DEN_ONE:
            return Scalar._raw(tuple(sorted(_pmul(dict(a), dict(b)).items())), _DEN_ONE)
        return _share(Scalar(_pmul(dict(a), dict(b)), _pmul(dict(self.den), dict(other.den))))

    def inverse(self):
        out = _INV.get(self)
        return _remember(_INV, self, self._inverse()) if out is None else out

    def _inverse(self):
        # num = c*q^s*P with P(0) != 0 and P monic, coprime to den; so the
        # inverse is (q^-s*den/c) / P, canonical without a gcd.
        num = self.num
        if not num:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        s, c = num[0][0], num[-1][1]
        return Scalar._raw(tuple([(e - s, _div(x, c)) for e, x in self.den]),
                           tuple([(e - s, _div(x, c)) for e, x in num]))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n == 0:
            return ONE
        if n < 0:
            return self.inverse() ** (-n)
        base, out = self, ONE
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- misc -------------------------------------------------------------

    def specialize(self, q0):
        """Evaluate at a rational q0 (not a pole, q0 != 0)."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ZeroDivisionError("q = 0 is not in the torus")
        n = sum(c * q0 ** e for e, c in self.num) if self.num else Fraction(0)
        d = sum(c * q0 ** e for e, c in self.den)
        return n / d

    def as_q_power(self):
        """Return e with self == q^e, or None."""
        if len(self.num) == 1 and self.den == _DEN_ONE and self.num[0][1] == 1:
            return self.num[0][0]
        return None

    def __repr__(self):
        return f"Scalar({render_scalar(self)!r})"

    def __str__(self):
        return render_scalar(self)


ZERO = _share(Scalar({}))
ONE = _share(Scalar({0: 1}))
MINUS_ONE = _share(Scalar({0: -1}))


def qpow(e):
    """The monomial q^e, e any integer."""
    return Scalar._raw(((e, 1),), _DEN_ONE)


def from_fraction(c):
    return _share(Scalar({0: Fraction(c)}))


# -- q-combinatorics -------------------------------------------------------

def q_bracket(n, d=1):
    """(q^{dn} - q^{-dn})/(q^d - q^{-d}) for any integer n; odd in n."""
    if n == 0:
        return ZERO
    if n < 0:
        return -q_bracket(-n, d)
    # q^{d(1-n)} + q^{d(3-n)} + ... + q^{d(n-1)}: distinct exponents, each
    # coefficient 1, so the ascending tuple is already canonical
    return Scalar._raw(tuple((d * e, 1) for e in range(1 - n, n, 2)), _DEN_ONE)


def q_integer(n, d=1):
    """The balanced q-integer [n] at q^d, for n >= 0."""
    if n < 0:
        raise ValueError("q_integer needs n >= 0")
    return q_bracket(n, d)


def q_factorial(n, d=1):
    """[n]! at q^d."""
    out = ONE
    for k in range(2, n + 1):
        out = out * q_bracket(k, d)
    return out


def cauchon_integer(m, qhat):
    """(m)_qhat = 1 + qhat + ... + qhat^{m-1}, as a telescoping sum."""
    out = ZERO
    p = ONE
    for _ in range(m):
        out = out + p
        p = p * qhat
    return out


def cauchon_factorial(m, qhat):
    """(m)_qhat! = (0)(1)...(m), with (0) = 1; equals m! at qhat = 1."""
    out = ONE
    for k in range(1, m + 1):
        out = out * cauchon_integer(k, qhat)
    return out


# -- text form --------------------------------------------------------------
#
# Scalars render as  p(q)  or  (p(q))/(r(q))  with exponents in brackets,
# e.g.  q^[-2] + 1  or  (q^[2])/(q^[2] - 1).  parse_scalar accepts the same
# grammar plus +, -, *, /, ^[n] and parentheses.

def _render_poly(d):
    if not d:
        return "0"
    parts = []
    for e, c in sorted(d, key=lambda t: -t[0]):
        neg = c < 0
        a = -c if neg else c
        if e == 0:
            body = str(a)
        else:
            x = "q" if e == 1 else f"q^[{e}]"
            body = x if a == 1 else f"{a}*{x}"
        parts.append(("- " if neg else "+ ") + body)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def render_scalar(s):
    if s.den == _DEN_ONE:
        return _render_poly(s.num)
    return f"({_render_poly(s.num)})/({_render_poly(s.den)})"


class _ParseError(ValueError):
    pass


def _tokenize(text):
    toks, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/()":
            toks.append(ch)
            i += 1
        elif ch == "q":
            i += 1
            if text[i:i + 2] == "^[":
                j = text.index("]", i)
                toks.append(("q", int(text[i + 2:j])))
                i = j + 1
            else:
                toks.append(("q", 1))
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                # a literal fraction like 3/2 binds tighter than division of
                # scalar expressions only when written without spaces
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                toks.append(("num", Fraction(int(text[i:j]), int(text[j + 1:k]))))
                i = k
            else:
                toks.append(("num", Fraction(int(text[i:j]))))
                i = j
        else:
            raise _ParseError(f"bad character {ch!r} in scalar text")
    return toks


def parse_scalar(text):
    """Parse the render_scalar grammar back into a Scalar."""
    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def eat():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def atom():
        t = peek()
        if t == "(":
            eat()
            v = expr()
            if peek() != ")":
                raise _ParseError("expected )")
            eat()
        elif t == "-":
            eat()
            return -atom()
        elif isinstance(t, tuple) and t[0] == "q":
            eat()
            v = qpow(t[1])
        elif isinstance(t, tuple) and t[0] == "num":
            eat()
            v = from_fraction(t[1])
        else:
            raise _ParseError(f"unexpected token {t!r}")
        return v

    def factor():
        v = atom()
        while peek() in ("*", "/"):
            op = eat()
            w = atom()
            v = v * w if op == "*" else v / w
        return v

    def expr():
        t = peek()
        neg = False
        if t == "-":
            eat()
            neg = True
        v = factor()
        if neg:
            v = -v
        while peek() in ("+", "-"):
            op = eat()
            w = factor()
            v = v + w if op == "+" else v - w
        return v

    v = expr()
    if pos[0] != len(toks):
        raise _ParseError("trailing tokens in scalar text")
    return v
