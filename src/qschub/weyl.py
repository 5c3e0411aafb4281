"""Root systems, Weyl groups, Bruhat order, and reduced-word combinatorics.

Conventions.  Simple roots are indexed 1..rank.  Roots and weights are stored
in simple-root coordinates (roots as int tuples, weights as Fraction tuples).
The invariant form is normalised so that short roots have squared length 2;
bil[i][j] = <alpha_i, alpha_j> = d_i * cartan[i][j].  A Weyl group element is
the integer matrix of its action on the root lattice, which makes equality
and hashing cheap; elements are interned per datum.
"""

from fractions import Fraction
from functools import lru_cache

__all__ = ["RootDatum", "WeylElement", "ReducedWord", "root_datum"]

_FAMILIES = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}


def _adjacency(family, rank):
    edges = [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        edges = [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    return edges


def _symmetrizers(family, rank):
    if family == "A" or family == "D":
        return [1] * rank
    if family == "B":
        return [2] * (rank - 1) + [1]
    if family == "C":
        return [1] * (rank - 1) + [2]
    if family == "G":
        return [1, 3]
    raise ValueError(f"unsupported family {family!r}")


class RootDatum:
    """Cartan data for one of the families A, B, C, D (rank <= rank_cap), G2."""

    def __init__(self, family, rank, rank_cap=4):
        family = family.upper()
        if family not in _FAMILIES:
            raise ValueError(f"unsupported type {family!r}")
        if family == "G" and rank != 2:
            raise ValueError("G exists only in rank 2")
        if rank < _FAMILIES[family] or rank > max(rank_cap, 2):
            raise ValueError(f"rank {rank} out of range for {family} (cap {rank_cap})")
        self.family, self.rank = family, rank
        d = _symmetrizers(family, rank)
        self.d = tuple(d)
        bil = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            bil[i][i] = 2 * d[i]
        for i, j in _adjacency(family, rank):
            bil[i - 1][j - 1] = bil[j - 1][i - 1] = -max(d[i - 1], d[j - 1])
        self.bil = tuple(tuple(r) for r in bil)
        self.cartan = tuple(tuple(Fraction(bil[i][j], d[i]) for j in range(rank))
                            for i in range(rank))
        if any(c.denominator != 1 for row in self.cartan for c in row):
            raise ValueError(f"{family}{rank}: Cartan matrix {self.cartan} is not integral")
        self.cartan = tuple(tuple(int(c) for c in row) for row in self.cartan)
        self._check_cartan()
        self.fundamental_weights = self._fundamental_weights()
        self.rho = tuple(sum(col) for col in zip(*self.fundamental_weights))
        self._elements = {}
        self._intervals = {}
        self._words = {}
        id_mat = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        self.identity = self._intern(id_mat)
        self.simple_reflections = tuple(self._simple_reflection(i) for i in range(1, rank + 1))
        self.positive_roots = self._positive_roots()
        self._w0 = None

    def __repr__(self):
        return f"RootDatum({self.family}{self.rank})"

    @property
    def label(self):
        return f"{self.family}{self.rank}"

    def _check_cartan(self):
        a, b, d = self.cartan, self.bil, self.d
        if min(d) != 1:
            raise ValueError(f"{self.label}: normalisation requires a short root of "
                             "squared length 2")
        for i in range(self.rank):
            if a[i][i] != 2 or b[i][i] != 2 * d[i]:
                raise ValueError(f"{self.label}: bad diagonal at alpha_{i + 1}")
            for j in range(self.rank):
                if b[i][j] != b[j][i] or 2 * b[i][j] != a[i][j] * b[i][i]:
                    raise ValueError(f"{self.label}: form and Cartan matrix disagree "
                                     f"at (alpha_{i + 1}, alpha_{j + 1})")

    def _fundamental_weights(self):
        # varpi_i in root coordinates: columns of the inverse Cartan matrix
        n = self.rank
        rows = [[Fraction(self.cartan[i][j]) for j in range(n)] + [Fraction(int(i == k)) for k in range(n)]
                for i in range(n)]
        for j in range(n):
            p = next(i for i in range(j, n) if rows[i][j])
            rows[j], rows[p] = rows[p], rows[j]
            inv = 1 / rows[j][j]
            rows[j] = [inv * x for x in rows[j]]
            for i in range(n):
                if i != j and rows[i][j]:
                    c = rows[i][j]
                    rows[i] = [x - c * y for x, y in zip(rows[i], rows[j])]
        # fw[k] solves <fw_k, alpha_j^vee> = delta_jk: coefficients c with A c = e_k
        return tuple(tuple(rows[i][n + k] for i in range(n)) for k in range(n))

    # -- bilinear form ----------------------------------------------------

    def pairing(self, u, v):
        """<u, v> for vectors in root coordinates (Fraction-safe)."""
        return sum(ui * self.bil[i][j] * vj
                   for i, ui in enumerate(u) if ui
                   for j, vj in enumerate(v) if vj)

    def pair_coroot(self, mu, i):
        """<mu, alpha_i^vee> = 2<mu, alpha_i>/<alpha_i, alpha_i>."""
        val = sum(Fraction(self.cartan[i - 1][j]) * mu[j] for j in range(self.rank))
        return val

    def height(self, v):
        return sum(v)

    def _simple_reflection(self, i):
        n = self.rank
        mat = [[int(r == c) for c in range(n)] for r in range(n)]
        for j in range(n):
            mat[i - 1][j] -= self.cartan[i - 1][j]
        return self._intern(tuple(tuple(r) for r in mat))

    def _positive_roots(self):
        n = self.rank
        simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        roots = set(simples) | {tuple(-x for x in v) for v in simples}
        frontier = set(roots)
        while frontier:
            new = set()
            for v in frontier:
                for s in self.simple_reflections:
                    w = s.act_root(v)
                    if w not in roots:
                        new.add(w)
            roots |= new
            frontier = new
        pos = sorted(v for v in roots if sum(v) > 0)
        return tuple(pos)

    # -- elements ---------------------------------------------------------

    def _intern(self, mat):
        el = self._elements.get(mat)
        if el is None:
            el = WeylElement(self, mat)
            self._elements[mat] = el
        return el

    def simple(self, i):
        return self.simple_reflections[i - 1]

    def from_word(self, letters):
        w = self.identity
        for i in letters:
            w = w * self.simple(i)
        return w

    def longest_element(self):
        if self._w0 is None:
            w = self.identity
            while True:
                i = next((i for i in range(1, self.rank + 1)
                          if not w.sends_negative(i)), None)
                if i is None:
                    break
                w = w * self.simple(i)
            self._w0 = w
        return self._w0

    def lower_interval(self, w):
        """{y : y <= w} computed by subword closure along one reduced word."""
        cached = self._intervals.get(w)
        if cached is None:
            current = {self.identity}
            for i in w.reduced_word():
                s = self.simple(i)
                current |= {x * s for x in current
                            if (x * s).length > x.length}
            cached = frozenset(current)
            self._intervals[w] = cached
        return cached

    def bruhat_leq(self, y, w):
        if y.datum is not w.datum:
            raise ValueError("elements of different root data")
        if y.length > w.length:
            return False
        return y in self.lower_interval(w)

    def all_reduced_words(self, w):
        cached = self._words.get(w)
        if cached is None:
            if w.length == 0:
                cached = ((),)
            else:
                out = []
                for i in range(1, self.rank + 1):
                    if w.sends_negative(i):
                        for u in self.all_reduced_words(w * self.simple(i)):
                            out.append(u + (i,))
                cached = tuple(out)
            self._words[w] = cached
        return cached


class WeylElement:
    """A Weyl group element as its lattice action matrix.  Immutable."""

    __slots__ = ("datum", "mat", "_length", "_inv", "_word")

    def __init__(self, datum, mat):
        self.datum = datum
        self.mat = mat
        self._length = None
        self._inv = None
        self._word = None

    @property
    def length(self):
        # lazy: positive_roots is not yet present while the datum bootstraps
        if self._length is None:
            n = 0
            for g in self.datum.positive_roots:
                img = _apply(self.mat, g)
                if img[_first_nonzero(img)] < 0:
                    n += 1
            self._length = n
        return self._length

    def __mul__(self, other):
        n = self.datum.rank
        a, b = self.mat, other.mat
        mat = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                    for i in range(n))
        return self.datum._intern(mat)

    def inverse(self):
        # (s_{a_1} ... s_{a_k})^{-1} = s_{a_k} ... s_{a_1}
        if self._inv is None:
            w = self.datum.identity
            for i in reversed(self.reduced_word()):
                w = w * self.datum.simple(i)
            self._inv = w
        return self._inv

    def act_root(self, v):
        return _apply(self.mat, v)

    def act_weight(self, v):
        n = self.datum.rank
        return tuple(sum(Fraction(self.mat[i][k]) * v[k] for k in range(n))
                     for i in range(n))

    def sends_negative(self, i):
        """True iff w(alpha_i) < 0, i.e. ell(w s_i) < ell(w)."""
        col = tuple(self.mat[r][i - 1] for r in range(self.datum.rank))
        return col[_first_nonzero(col)] < 0

    def right_descents(self):
        return [i for i in range(1, self.datum.rank + 1) if self.sends_negative(i)]

    def reduced_word(self):
        """Canonical reduced word: smallest right descent stripped last."""
        if self._word is None:
            if self.length:
                i = self.right_descents()[0]
                self._word = (self * self.datum.simple(i)).reduced_word() + (i,)
            else:
                self._word = ()
        return self._word

    def support(self):
        """{i : s_i <= w}; equals the letter set of any reduced word."""
        return frozenset(self.reduced_word())

    def __repr__(self):
        return f"<{self.render()}>"

    def render(self):
        word = self.reduced_word()
        return ".".join(f"s{i}" for i in word) if word else "e"

    def __hash__(self):
        return hash(self.mat)

    def __eq__(self, other):
        return self is other or (isinstance(other, WeylElement)
                                 and self.mat == other.mat
                                 and self.datum is other.datum)


def _apply(mat, v):
    n = len(mat)
    return tuple(sum(mat[i][k] * v[k] for k in range(n)) for i in range(n))


def _first_nonzero(v):
    for i, x in enumerate(v):
        if x:
            return i
    raise ValueError("zero vector is not a root")


class ReducedWord:
    """A validated reduced word (alpha_1, ..., alpha_l), letters 1-based."""

    def __init__(self, datum, letters):
        letters = tuple(int(i) for i in letters)
        if any(i < 1 or i > datum.rank for i in letters):
            raise ValueError(f"letters out of range for {datum.label}: {letters}")
        w = datum.from_word(letters)
        if w.length != len(letters):
            raise ValueError(f"word {letters} is not reduced for {datum.label}")
        self.datum = datum
        self.letters = letters
        self.element = w
        self._betas = None

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"ReducedWord({self.datum.label}, {list(self.letters)})"

    def prefix(self, j):
        """w(i)_{<=j} as a group element."""
        return self.datum.from_word(self.letters[:j])

    def beta_sequence(self):
        """beta_j = (s_{a_1}...s_{a_{j-1}})(alpha_j), the inversion sequence."""
        if self._betas is None:
            n = self.datum.rank
            betas = []
            w = self.datum.identity
            for j, i in enumerate(self.letters):
                alpha = tuple(int(k == i - 1) for k in range(n))
                betas.append(w.act_root(alpha))
                w = w * self.datum.simple(i)
            self._betas = tuple(betas)
        return self._betas


@lru_cache(maxsize=None)
def root_datum(label, rank_cap=4):
    """RootDatum from a label like 'A2', 'B2', 'G2'; cached."""
    label = label.strip().upper()
    if not label[1:].isdigit():
        raise ValueError(f"bad type label {label!r}: expected a family letter and a rank")
    family, rank = label[0], int(label[1:])
    return RootDatum(family, rank, rank_cap=rank_cap)
