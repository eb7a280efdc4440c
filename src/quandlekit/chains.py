"""Tuple bases and boundary maps for the rack, degenerate, and quandle complexes.

Degree-n chains are integer combinations of n-tuples over the quandle's
elements.  The degenerate tuples (some adjacent pair equal) span a
subcomplex; the quandle complex is the quotient, realized here on the
complementary basis of tuples with no adjacent repeat.  Degree 0 is the
zero group, so boundaries out of degree 1 vanish identically.

Every boundary is w1*d1 + w2*d2 for a weight pair (w1, w2) in SIGNS: d1
drops an entry, d2 drops it after acting on the prefix by it.  The paper's
positive complex is d1 + d2 ("plus"); the quandle complex of Carter et al.
is d1 - d2 ("minus").  ``boundary_columns`` is the one evaluator of a
boundary, as one sparse column per generator.  Homology, cocycle bases and
the certificates eliminate those columns.  d1 and d2 alone stay in SIGNS so
that the identities d1d1 = d2d2 = d1d2 + d2d1 = 0 can be checked on the
same columns.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

FLAVORS = ("rack", "degenerate", "quandle")
SIGNS = {"d1": (1, 0), "d2": (0, 1), "minus": (1, -1), "plus": (1, 1)}


def _has_adjacent_repeat(t):
    return any(t[i] == t[i + 1] for i in range(len(t) - 1))


# Every boundary of a sweep over same-size quandles shares its bases, so
# each (size, degree, flavor) builds its basis and index once.
@lru_cache(maxsize=64)
def _basis(size, n, flavor):
    if flavor not in FLAVORS:
        raise ValueError("unknown flavor %r" % (flavor,))
    if n <= 0:
        return ()
    tuples = product(range(size), repeat=n)
    if flavor == "rack":
        return tuple(tuples)
    if flavor == "degenerate":
        return tuple(t for t in tuples if _has_adjacent_repeat(t))
    return tuple(t for t in tuples if not _has_adjacent_repeat(t))


@lru_cache(maxsize=64)
def _index(size, n, flavor):
    """Position of each tuple in _basis(size, n, flavor)."""
    return {t: i for i, t in enumerate(_basis(size, n, flavor))}


def _boundary(rows, t, weights):
    """Boundary of the generator t as {tuple: coefficient}: for i = 1..n,
    (-1)^i times w1 copies of t with entry i dropped and w2 copies with it
    dropped after acting on the prefix by it (x -> rows[x][t_i])."""
    w1, w2 = weights
    out = {}
    for i, a in enumerate(t):
        s = 1 if i % 2 else -1
        if w1:
            u = t[:i] + t[i + 1:]
            out[u] = out.get(u, 0) + s * w1
        if w2:
            u = tuple(rows[x][a] for x in t[:i]) + t[i + 1:]
            out[u] = out.get(u, 0) + s * w2
    return out


def boundary_columns(X, n, sign, flavor="rack"):
    """Degree-n boundary as (domain, codomain, sparse columns {row: coeff}),
    rows numbered by their position in the codomain basis.

    A degenerate boundary must land on the degenerate basis exactly (the
    subcomplex property) and raises ArithmeticError where it does not; the
    quandle quotient drops the stray tuples.
    """
    if n < 1:
        raise ValueError("boundary needs degree >= 1")
    if sign not in SIGNS:
        raise ValueError("unknown sign %r" % (sign,))
    weights = SIGNS[sign]
    domain = _basis(X.n, n, flavor)
    index = _index(X.n, n - 1, flavor)
    cols = []
    for t in domain:
        col = {}
        for u, c in _boundary(X.table, t, weights).items():
            if not c:
                continue
            i = index.get(u)
            if i is not None:
                col[i] = c
            elif flavor == "degenerate":
                raise ArithmeticError(
                    "boundary of %r leaves the degenerate span at %r" % (t, u)
                )
        cols.append(col)
    return domain, _basis(X.n, n - 1, flavor), cols
