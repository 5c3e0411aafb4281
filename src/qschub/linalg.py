"""Sparse exact linear algebra over Q(q).

Vectors are dicts {key: Scalar} with zero entries absent.  Keys are any
sortable hashables (ints, tuples).  A matrix is a dict {column: vector} of
its nonzero columns, so it holds no zero entry and no empty column; a row
functional is a plain vector.  Every matrix product is `accumulate` over the
columns that a vector's keys name.

Every elimination is an `Echelon`: a linear solve is the echelon of its
transposed system, and an inverse is the echelon of [mat^T | 1].  Pivoting
is deterministic: a new row's pivot is its least key after reduction.

An `Echelon` keeps its rows fully reduced, so a row is zero at every pivot
but its own, where it is 1.  Reducing by a row therefore deletes its pivot
key with no Scalar arithmetic, and a unit row, a single key with
coefficient 1, does nothing else.
"""

from .qscalar import ZERO, ONE

__all__ = [
    "accumulate", "vec_add", "vec_scale", "Echelon", "solve_columns",
    "nullspace", "invert_matrix", "mat_mul", "mat_vec",
]


def vec_scale(v, c):
    if c.is_zero():
        return {}
    if c.is_one():
        return dict(v)
    return {k: c * x for k, x in v.items()}


def accumulate(out, v, c=None):
    """Add c*v (v itself when c is None) into out in place and return out.

    Entries that cancel are dropped, so out stays free of zeros.  v is only
    read: a memoised vector may be passed as v, never as out.
    """
    for k, x in v.items():
        if c is not None:
            x = c * x
        s = out.get(k)
        if s is not None:
            x = s + x
        if x.num:
            out[k] = x
        else:
            out.pop(k, None)
    return out


def vec_add(u, v, c=None):
    """u + c*v as a new vector; neither input is changed."""
    return accumulate(dict(u), v, c)


class Echelon:
    """Row echelon span accumulator with exact reduction.

    The keys within one echelon are all ints or all tuples, so a residual's
    pivot is its plain `min`.  An explicit zero entry of an argument counts
    as absent: it may survive into a residual, so `add` and `contains` test
    and normalise the residual with zeros dropped, and every stored row stays
    free of zeros."""

    def __init__(self):
        self.rows = []     # reduced rows, each with leading coeff 1 at its pivot
        self.pivots = []   # pivot column per row

    def __len__(self):
        return len(self.rows)

    def reduce(self, v):
        """Fully reduce v against the span; returns the residual vector.

        The residual may hold explicit zero entries: those of v at keys that
        are not pivots, and, when v has an explicit zero at the pivot of a
        row of two or more keys, new ones at that row's other keys."""
        v = dict(v)
        for piv, row in zip(self.pivots, self.rows):
            c = v.pop(piv, None)
            if c is None or len(row) == 1:
                continue
            # accumulate(v, row, -c) off the pivot, inlined: the row is
            # zero-free, so a zero can only come from a cancelling sum
            c = -c
            for k, x in row.items():
                if k == piv:
                    continue
                x = c * x
                s = v.get(k)
                if s is not None:
                    x = s + x
                    if not x:
                        del v[k]
                        continue
                v[k] = x
        return v

    def add(self, v):
        """Insert v if independent; returns True when the span grew."""
        # a single key off every pivot is its own residual
        single = len(v) == 1 and next(iter(v)) not in self.pivots
        r = v if single else self.reduce(v)
        if not r:
            return False
        piv = min(r)
        c = r[piv]
        if not c:
            # explicit zeros of v are left in r; drop them and look again
            r = {k: x for k, x in r.items() if x}
            if not r:
                return False
            piv = min(r)
            c = r[piv]
        # normalise to 1 at the pivot, dropping zeros: a single-key residual
        # is a unit row, with no inverse
        if len(r) == 1:
            r = {piv: ONE}
        else:
            c = c.inverse()
            r = {k: c * x for k, x in r.items() if x}
        # back-substitute into existing rows to keep them fully reduced
        for i, row in enumerate(self.rows):
            x = row.get(piv)
            if x is not None:
                self.rows[i] = vec_add(row, r, -x)
        self.rows.append(r)
        self.pivots.append(piv)
        return True

    def contains(self, v):
        return not any(self.reduce(v).values())

    def extend(self, vectors):
        grew = False
        for v in vectors:
            grew |= self.add(v)
        return grew


def solve_columns(columns, target):
    """Solve sum_i c_i * columns[i] = target exactly.

    Returns (coeffs, unique) where coeffs is a list of Scalars or None when no
    solution exists; unique is False when the columns are dependent (one valid
    solution is still returned, with free coefficients set to zero).

    Each key k gives the row {i: columns[i][k]} + {n: target[k]}, which
    pairs to zero with (c_0, ..., c_{n-1}, -1).  The echelon of these rows
    has a pivot at n exactly when no solution exists, and its row with pivot
    i < n reads c_i = row[n] once the free coefficients are zero.
    """
    n = len(columns)
    rows = {}
    for i, col in enumerate([*columns, target]):
        for k, x in col.items():
            if not x.is_zero():
                rows.setdefault(k, {})[i] = x
    ech = Echelon()
    for k in sorted(rows, key=lambda k: (k if isinstance(k, tuple) else (k,))):
        ech.add(rows[k])
    unique = sum(piv < n for piv in ech.pivots) == n
    if n in ech.pivots:
        return None, unique
    coeffs = [ZERO] * n
    for piv, row in zip(ech.pivots, ech.rows):
        x = row.get(n)
        if x is not None:
            coeffs[piv] = x
    return coeffs, unique


def nullspace(rows, columns):
    """Basis of {x : row . x = 0 for every row}, x over the given columns.

    rows are dicts over `columns`; returns a list of dict vectors.
    """
    ech = Echelon()
    for r in rows:
        ech.add(r)
    pivs = set(ech.pivots)
    free = [c for c in columns if c not in pivs]
    basis = []
    for f in free:
        v = {f: ONE}
        for piv, row in zip(ech.pivots, ech.rows):
            c = row.get(f)
            if c is not None:
                v[piv] = -c
        basis.append(v)
    return basis


def mat_vec(mat, v):
    """mat * v: the sum of v[c] * mat[c] over the keys c of v."""
    out = {}
    for c, x in v.items():
        col = mat.get(c)
        if col is not None:
            accumulate(out, col, x)
    return out


def mat_mul(m1, m2):
    """m1 * m2, one column of m2 at a time; columns that vanish are left out."""
    out = {}
    for c, col in m2.items():
        v = mat_vec(m1, col)
        if v:
            out[c] = v
    return out


def invert_matrix(mat, size):
    """Exact inverse of a size x size matrix: the fully reduced echelon of
    [mat^T | 1] is [1 | (mat^-1)^T], whose rows are the columns of mat^-1."""
    ech = Echelon()
    ech.extend({**mat.get(c, {}), size + c: ONE} for c in range(size))
    if sorted(ech.pivots) != list(range(size)):
        raise ZeroDivisionError("singular matrix")
    return {piv: {k - size: x for k, x in row.items() if k >= size}
            for piv, row in zip(ech.pivots, ech.rows)}
