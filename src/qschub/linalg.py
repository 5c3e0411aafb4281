"""Sparse exact linear algebra over Q(q).

Vectors are dicts {column_key: Scalar} with zero entries absent.  Column keys
are any sortable hashables (ints, tuples); all pivoting is deterministic:
columns are visited in sorted order, and among candidate rows the one whose
pivot entry has the fewest terms wins (ties broken by insertion order).
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
        if x.is_zero():
            out.pop(k, None)
        else:
            out[k] = x
    return out


def vec_add(u, v, c=None):
    """u + c*v as a new vector; neither input is changed."""
    return accumulate(dict(u), v, c)


def _complexity(s):
    return len(s.num) + len(s.den)


class Echelon:
    """Row echelon span accumulator with exact reduction."""

    def __init__(self):
        self.rows = []     # reduced rows, each with leading coeff 1 at its pivot
        self.pivots = []   # pivot column per row

    def __len__(self):
        return len(self.rows)

    def reduce(self, v):
        """Fully reduce v against the span; returns the residual vector."""
        v = dict(v)
        for piv, row in zip(self.pivots, self.rows):
            c = v.get(piv)
            if c is not None and not c.is_zero():
                accumulate(v, row, -c)
        return v

    def add(self, v):
        """Insert v if independent; returns True when the span grew."""
        r = self.reduce(v)
        if not r:
            return False
        piv = min(r, key=lambda k: (k if isinstance(k, tuple) else (k,)))
        c = r[piv]
        r = vec_scale(r, c.inverse())
        # back-substitute into existing rows to keep them fully reduced
        for i, row in enumerate(self.rows):
            x = row.get(piv)
            if x is not None and not x.is_zero():
                self.rows[i] = vec_add(row, r, -x)
        self.rows.append(r)
        self.pivots.append(piv)
        return True

    def contains(self, v):
        return not self.reduce(v)

    def extend(self, vectors):
        grew = False
        for v in vectors:
            grew |= self.add(v)
        return grew

    def copy(self):
        e = Echelon()
        e.rows = [dict(r) for r in self.rows]
        e.pivots = list(self.pivots)
        return e


def solve_columns(columns, target):
    """Solve sum_i c_i * columns[i] = target exactly.

    Returns (coeffs, unique) where coeffs is a list of Scalars or None when no
    solution exists; unique is False when the columns are dependent (one valid
    solution is still returned, with free coefficients set to zero).
    """
    n = len(columns)
    # augmented rows indexed by the union of row keys
    keys = set(target)
    for col in columns:
        keys.update(col)
    keys = sorted(keys, key=lambda k: (k if isinstance(k, tuple) else (k,)))
    rows = {k: [col.get(k, ZERO) for col in columns] + [target.get(k, ZERO)]
            for k in keys}
    order = list(keys)
    pivot_of_col = [None] * n
    used = set()
    for j in range(n):
        best = None
        for k in order:
            if k in used:
                continue
            e = rows[k][j]
            if not e.is_zero():
                if best is None or _complexity(e) < _complexity(rows[best][j]):
                    best = k
        if best is None:
            continue
        used.add(best)
        pivot_of_col[j] = best
        inv = rows[best][j].inverse()
        rows[best] = [inv * x for x in rows[best]]
        for k in order:
            if k is best:
                continue
            c = rows[k][j]
            if not c.is_zero():
                rows[k] = [x - c * y for x, y in zip(rows[k], rows[best])]
    coeffs = [ZERO] * n
    for j in range(n):
        k = pivot_of_col[j]
        if k is not None:
            coeffs[j] = rows[k][n]
    # residual check
    for k in order:
        if k not in used and not rows[k][n].is_zero():
            return None, all(p is not None for p in pivot_of_col)
    unique = all(p is not None for p in pivot_of_col)
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
            if c is not None and not c.is_zero():
                v[piv] = -c
        basis.append(v)
    return basis


def mat_vec(mat, v):
    """mat: dict {(r, c): Scalar}; v: dict {c: Scalar}."""
    out = {}
    for (r, c), a in mat.items():
        x = v.get(c)
        if x is None:
            continue
        s = out.get(r)
        t = a * x
        s = t if s is None else s + t
        if s.is_zero():
            out.pop(r, None)
        else:
            out[r] = s
    return out


def mat_mul(m1, m2):
    cols2 = {}
    for (r, c), a in m2.items():
        cols2.setdefault(c, {})[r] = a
    out = {}
    by_col1 = {}
    for (r, c), a in m1.items():
        by_col1.setdefault(c, {})[r] = a
    for c2, col in cols2.items():
        acc = {}
        for mid, x in col.items():
            row = by_col1.get(mid)
            if row:
                accumulate(acc, row, x)
        for r, s in acc.items():
            out[(r, c2)] = s
    return out


def invert_matrix(mat, size):
    """Exact inverse of a size x size matrix given as {(r, c): Scalar}."""
    rows = [[ZERO] * size + [ZERO] * size for _ in range(size)]
    for i in range(size):
        rows[i][size + i] = ONE
    for (r, c), a in mat.items():
        rows[r][c] = a
    for j in range(size):
        p = None
        for i in range(j, size):
            if not rows[i][j].is_zero():
                if p is None or _complexity(rows[i][j]) < _complexity(rows[p][j]):
                    p = i
        if p is None:
            raise ZeroDivisionError("singular matrix")
        rows[j], rows[p] = rows[p], rows[j]
        inv = rows[j][j].inverse()
        rows[j] = [inv * x for x in rows[j]]
        for i in range(size):
            if i != j and not rows[i][j].is_zero():
                c = rows[i][j]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[j])]
    out = {}
    for r in range(size):
        for c in range(size):
            v = rows[r][size + c]
            if not v.is_zero():
                out[(r, c)] = v
    return out
