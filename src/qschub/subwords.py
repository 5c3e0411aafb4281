"""Left-positive subwords of reduced words and the map y -> LP(y).

For a reduced word i = (a_1, ..., a_l) and an index set D in [1, l], write
w^D_{>j} for the product of the chosen reflections strictly after position j.
D is left positive when s_{a_j} w^D_{>j} > w^D_{>j} for every j in [1, l-1].
Each y <= w(i) is the total product of exactly one left positive subword;
its index set is LP(y).  Enumeration walks positions from the right so that
failed positivity checks prune whole subtrees.
"""

from .pbw import EngineError
from .weyl import ReducedWord

__all__ = [
    "successor_table", "is_left_positive", "is_right_positive",
    "enumerate_lp", "lp_index_set",
    "combinatorial_poset", "BruhatPreconditionError", "SubsetCapError",
]

SUBSET_CAP = 22


class BruhatPreconditionError(ValueError):
    pass


class SubsetCapError(EngineError):
    """A word is longer than SUBSET_CAP allows the LP enumeration."""


def successor_table(word):
    """(kappa, orbit_count): kappa[j] = next position with the same letter
    (None for none); orbit_count[j] = number of finite kappa-iterates of j.
    Positions are 1-based; tables are returned as tuples indexed from 0."""
    letters = word.letters if isinstance(word, ReducedWord) else tuple(word)
    l = len(letters)
    kappa = [None] * l
    for j in range(l):
        for k in range(j + 1, l):
            if letters[k] == letters[j]:
                kappa[j] = k + 1
                break
    orbit = [0] * l
    for j in range(l - 1, -1, -1):
        if kappa[j] is not None:
            orbit[j] = orbit[kappa[j] - 1] + 1
    return tuple(kappa), tuple(orbit)


def kappa_orbit(word, j):
    """The positions j, kappa(j), ..., kappa^{O(j)}(j), ascending."""
    kappa, _ = successor_table(word)
    out = [j]
    while kappa[out[-1] - 1] is not None:
        out.append(kappa[out[-1] - 1])
    return out


def _suffix_products(word, chosen):
    # products w^D_{>j} for j = l..0; chosen is a boolean tuple
    datum = word.datum
    l = len(word)
    suffix = [datum.identity] * (l + 1)
    for j in range(l - 1, -1, -1):
        s = datum.simple(word.letters[j]) if chosen[j] else datum.identity
        suffix[j] = s * suffix[j + 1]
    return suffix


def is_left_positive(word, D):
    """Check the positivity condition for the index set D of the word."""
    word = _as_word(word)
    D = frozenset(D)
    _check_indices(word, D)
    chosen = tuple(j + 1 in D for j in range(len(word)))
    suffix = _suffix_products(word, chosen)
    datum = word.datum
    for j in range(1, len(word)):  # j in [1, l-1]
        u = suffix[j]
        s = datum.simple(word.letters[j - 1])
        if (s * u).length <= u.length:
            return False
    return True


def is_right_positive(word, D):
    """w^D_{<=j} s_{a_{j+1}} > w^D_{<=j} for all j in [1, l-1]."""
    word = _as_word(word)
    D = frozenset(D)
    _check_indices(word, D)
    datum = word.datum
    u = datum.simple(word.letters[0]) if 1 in D else datum.identity
    for j in range(1, len(word)):  # prefix through position j, test letter j+1
        s = datum.simple(word.letters[j])
        if (u * s).length <= u.length:
            return False
        if j + 1 in D:
            u = u * s
    return True


def _check_indices(word, D):
    if any(j < 1 or j > len(word) for j in D):
        raise ValueError(f"index set {sorted(D)} out of range [1, {len(word)}]")


def _as_word(word):
    if not isinstance(word, ReducedWord):
        raise TypeError("expected a ReducedWord")
    return word


_LP_CACHE = {}


def enumerate_lp(word):
    """Map y -> LP(y) over the whole lower interval of w(i).

    DFS over positions l..1; the positivity condition at position j only
    involves choices at positions > j, so violations prune early.
    """
    word = _as_word(word)
    key = (word.datum.label, word.letters)
    cached = _LP_CACHE.get(key)
    if cached is not None:
        return cached
    l = len(word)
    if l > SUBSET_CAP:
        raise SubsetCapError(
            f"{word.datum.label} word {','.join(map(str, word.letters))} of length {l} "
            f"exceeds SUBSET_CAP = {SUBSET_CAP}")
    datum = word.datum
    found = {}

    def walk(j, suffix, chosen):
        # suffix = w^D_{>j} for the choices made so far (positions j+1..l)
        if j >= 1 and j <= l - 1:
            s = datum.simple(word.letters[j - 1])
            if (s * suffix).length <= suffix.length:
                return
        if j == 0:
            y = suffix
            if y in found:
                raise EngineError(
                    f"two left positive subwords for {y.render()}: "
                    f"{sorted(found[y])} and {sorted(chosen)}")
            found[y] = frozenset(chosen)
            return
        s = datum.simple(word.letters[j - 1])
        walk(j - 1, suffix, chosen)
        walk(j - 1, s * suffix, chosen | {j})

    walk(l, datum.identity, frozenset())
    interval = datum.lower_interval(word.element)
    if set(found) != set(interval):
        raise EngineError("left positive products do not exhaust the interval")
    _LP_CACHE[key] = found
    return found


def lp_index_set(word, y):
    """The index set of the unique left positive subword with product y."""
    word = _as_word(word)
    table = enumerate_lp(word)
    try:
        return table[y]
    except KeyError:
        raise BruhatPreconditionError(
            f"{y.render()} is not Bruhat-below {word.element.render()}") from None


def combinatorial_poset(word):
    """Bruhat covers on the lower interval, labelled by LP index sets.

    Returns {"word": [...], "nodes": [{"y", "length", "lp"}...],
             "edges": [[y_low, y_high], ...]} with deterministic ordering.
    """
    word = _as_word(word)
    datum = word.datum
    table = enumerate_lp(word)
    elements = datum.ordered_interval(word.element)
    nodes = [{"y": w.render(), "length": w.length, "lp": sorted(table[w])}
             for w in elements]
    edges = []
    for a in elements:
        for b in elements:
            if b.length == a.length + 1 and datum.bruhat_leq(a, b):
                edges.append([a.render(), b.render()])
    edges.sort()
    return {"word": list(word.letters), "nodes": nodes, "edges": edges}


def lp_table_json(word):
    """The CLI `lp` schema: {"word": [...], "pairs": [{"y": ..., "lp": [...]}]}."""
    word = _as_word(word)
    table = enumerate_lp(word)
    pairs = [{"y": y.render(), "lp": sorted(table[y])}
             for y in word.datum.ordered_interval(word.element)]
    return {"word": list(word.letters), "pairs": pairs}
