"""Exact arithmetic in the field Q(q) of rational functions in q over the rationals.

A Scalar is a fraction num/den of polynomials in q with integer coefficients,
kept in a canonical form:

  * num is a sparse Laurent polynomial over Z, a tuple of (exponent,
    coefficient) pairs sorted by exponent;
  * den is an ordinary polynomial over Z in the same form, with nonzero
    constant term and positive leading coefficient;
  * num shifted to lowest exponent 0 and den are coprime in Z[q], contents
    included: 2/(2q + 2) is stored as 1/(q + 1);
  * zero is () / ((0, 1),).

Z[q] is a unique factorisation domain whose units are +1 and -1, so the sign
rule makes canonical forms unique: equality is structural equality and
Scalars are hashable.  All operations are pure and exact; no floating point
anywhere.

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

Every stored coefficient is an int, so sums and products never leave Z and
the kernel creates no fractions.Fraction.  A rational coefficient can only
come from outside: Scalar({...}) with Fraction values, from_fraction and
parse_scalar.  _canon clears those once by the lcm of their denominators.
It then takes the gcd of the shifted numerator and the denominator in Z[q]
by the primitive remainder sequence (Knuth, TAOCP vol. 2, 4.6.1: every
pseudo-remainder is reduced to its primitive part, so the coefficients stay
small) times the gcd of their contents, divides both by it with exact
integer trial division, and makes the leading coefficient of the
denominator positive.  The trial division is the gcd's certificate: a
nonzero remainder raises EngineError instead of returning a form that is not
canonical.

The text form shows the denominator monic: render_scalar divides both parts
by the denominator's leading coefficient, so 1/(2q + 1) reads
(1/2)/(q + 1/2).  Only rendering makes those rational coefficients.
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Scalar", "ZERO", "ONE", "qpow", "from_fraction",
    "q_bracket", "q_factorial",
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


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
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
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _scaled(terms, k, c0):
    # (exponent, coefficient) pairs times c0*q^k, in the same order
    if c0 == 1:
        return tuple([(e + k, c) for e, c in terms])
    return tuple([(e + k, c * c0) for e, c in terms])


def _dense(a):
    """(s, v) with a = q^s * v(q): v is the dense coefficient list, constant
    first and nonzero, of the Laurent polynomial a; v is [] when a is 0."""
    keys = [e for e, c in a.items() if c]
    if not keys:
        return 0, []
    s = min(keys)
    v = [0] * (max(keys) - s + 1)
    for e in keys:
        v[e - s] = a[e]
    return s, v


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
    # a rational coefficient only ever comes from outside the kernel; one lcm
    # of the denominators clears them all (an int's denominator is 1)
    coeffs = [*num.values(), *den.values()]
    if any(c.__class__ is not int for c in coeffs):
        m = lcm(*[c.denominator for c in coeffs])
        num = {e: c.numerator * (m // c.denominator) for e, c in num.items()}
        den = {e: c.numerator * (m // c.denominator) for e, c in den.items()}
    sd, d = _dense(den)
    if not d:
        raise ZeroDivisionError("division by zero in Q(q)")
    sn, p = _dense(num)
    if not p:
        return (), _DEN_ONE
    # divide by the gcd, signed so that the denominator's leading
    # coefficient comes out positive
    g = _zgcd(p, d)
    if d[-1] < 0:
        g = [-x for x in g]
    if g != [1]:
        p = _exact_quotient(p, g, "numerator")
        d = _exact_quotient(d, g, "denominator")
    s = sn - sd
    return (tuple([(e + s, c) for e, c in enumerate(p) if c]),
            tuple([(e, c) for e, c in enumerate(d) if c]))


class Scalar:
    """An element of Q(q) in canonical form.  Immutable and hashable."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        self.num, self.den = _canon(num, {0: 1} if den is None else den)
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
            other = from_fraction(other)
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
        # A monomial c*q^k with denominator 1 scales the other numerator.  If
        # the other denominator is monic, it is primitive in Z[q], so c shares
        # no factor with it and the result is already canonical.
        if len(b) == 1 and other.den == _DEN_ONE and self.den[-1][1] == 1:
            return Scalar._raw(_scaled(a, *b[0]), self.den)
        if len(a) == 1 and self.den == _DEN_ONE and other.den[-1][1] == 1:
            return Scalar._raw(_scaled(b, *a[0]), other.den)
        if self.den == _DEN_ONE and other.den == _DEN_ONE:
            return Scalar._raw(tuple(sorted(_pmul(dict(a), dict(b)).items())), _DEN_ONE)
        return _share(Scalar(_pmul(dict(a), dict(b)), _pmul(dict(self.den), dict(other.den))))

    def inverse(self):
        out = _INV.get(self)
        return _remember(_INV, self, self._inverse()) if out is None else out

    def _inverse(self):
        # num = q^s*P with P(0) != 0, coprime to den; so the inverse is
        # q^-s*den / P, canonical once P's leading coefficient is positive.
        num = self.num
        if not num:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        s, sign = num[0][0], 1 if num[-1][1] > 0 else -1
        return Scalar._raw(tuple([(e - s, sign * x) for e, x in self.den]),
                           tuple([(e - s, sign * x) for e, x in num]))

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
    """The constant c, an int or a Fraction."""
    return _share(Scalar({0: c}))


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
    num, den = s.num, s.den
    lc = den[-1][1]
    if lc != 1:
        # the text shows the monic denominator
        num = [(e, Fraction(c, lc)) for e, c in num]
        den = [(e, Fraction(c, lc)) for e, c in den]
    if len(den) == 1:
        return _render_poly(num)
    return f"({_render_poly(num)})/({_render_poly(den)})"


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
                toks.append(("num", int(text[i:j])))
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
