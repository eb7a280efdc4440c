"""Tuple bases and boundary maps for the rack, degenerate, and quandle complexes.

Degree-n chains are integer combinations of n-tuples over the quandle's
elements.  The degenerate tuples (some adjacent pair equal) span a
subcomplex; the quandle complex is the quotient, realized here on the
complementary basis of tuples with no adjacent repeat.  Degree 0 is the
zero group, so boundaries out of degree 1 vanish identically.

Every boundary is w1*d1 + w2*d2 for a weight pair (w1, w2) in SIGNS: d1
drops an entry, d2 drops it after acting on the prefix by it.  The paper's
positive complex is d1 + d2 ("plus"); the quandle complex of Carter et al.
is d1 - d2 ("minus").  MODES names those two, the complexes that
(co)homology and the state sums use.  d1 and d2 alone stay in SIGNS so
that the identities d1d1 = d2d2 = d1d2 + d2d1 = 0 can be checked on the
same columns.

The face lists of ``_faces`` are the one boundary formula in the package.
``boundary_columns`` turns them into one sparse column per generator,
which homology, cocycle bases and the certificates eliminate;
``Cochain2.is_cocycle`` pairs a 2-cochain with the degree-3 faces; and
``verify`` checks its psi identity on the degree-2 columns, as "the plus
pair counts of each coloring have zero boundary".

No face is built as a tuple.  A tuple's rack index is its base-size
number, first entry most significant, so face i of the generator with
rack index g is hi * size**(n-1-i) + lo, where hi and lo are g's i prefix
digits and n-1-i suffix digits; d2 puts act[t_i][hi] in place of hi, the
index of the prefix acted on by t_i, from a table built per call from the
columns of the operation table.  Each column keeps the order in which a
tuple evaluator would first meet its faces (d1 then d2, for i = 0..n-1),
so eliminations pivot the same way.  Per (size, degree, flavor) the basis
and the basis position of every rack index (-1 off the basis) are cached;
the tuple evaluator itself lives in the tests, as their oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

FLAVORS = ("rack", "degenerate", "quandle")
SIGNS = {"d1": (1, 0), "d2": (0, 1), "minus": (1, -1), "plus": (1, 1)}
MODES = ("minus", "plus")


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
def _positions(size, n, flavor):
    """Position in _basis(size, n, flavor) of the tuple at each rack index,
    or -1 where that tuple is not in the basis."""
    pos = [-1] * size**n
    for i, t in enumerate(_basis(size, n, flavor)):
        g = 0
        for x in t:
            g = g * size + x
        pos[g] = i
    return pos


def _faces(X, n, sign, gens):
    """The faces of each generator in gens, ascending rack indices: one
    list per term of the boundary, with the terms' coefficients.

    Face i of the generator with rack index g keeps its prefix digits hi =
    g // size**(n - i) and suffix digits lo = g % size**(n - 1 - i); d2
    replaces hi by act[t_i][hi], the prefix acted on by the dropped digit.
    With an empty prefix the two faces at i = 0 are one term, whose
    coefficient is 0 in the minus sign.  The act table holds only the
    prefixes whose first digit some generator in gens has, so faces taken
    one first digit at a time stay small.
    """
    w1, w2 = SIGNS[sign]
    size = X.n
    low = size ** (n - 1)
    faces, coeffs = [[g % low for g in gens]], [-w1 - w2]
    first, last = (gens[0] // low, gens[-1] // low + 1) if gens else (0, 0)
    base = first * low  # act[a][(g - base) // high] is g's prefix acted on by a
    by = list(zip(*X.table))  # by[a][x] = x acted on by a
    act = [row[first:last] for row in by]
    for i in range(1, n):
        s = 1 if i % 2 else -1
        low = size ** (n - 1 - i)
        high = low * size
        if w1:
            faces.append([g // high * low + g % low for g in gens])
            coeffs.append(s * w1)
        if w2:
            if i > 1:
                act = [[q * size + x for q in act[a] for x in by[a]] for a in range(size)]
            faces.append([act[g // low % size][(g - base) // high] * low + g % low for g in gens])
            coeffs.append(s * w2)
    return faces, coeffs


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
    size = X.n
    domain = _basis(size, n, flavor)
    codomain = _basis(size, n - 1, flavor)
    if n == 1:
        return domain, codomain, [{} for _ in domain]
    if flavor == "rack":
        gens = range(size**n)
    else:
        gens = [g for g, p in enumerate(_positions(size, n, flavor)) if p >= 0]
    faces, coeffs = _faces(X, n, sign, gens)
    cols = []
    for terms in zip(*faces):
        col = dict(zip(terms, coeffs))
        if len(col) < len(coeffs):  # faces coincide: merge, drop what cancels
            col = {}
            for u, c in zip(terms, coeffs):
                col[u] = col.get(u, 0) + c
            col = {u: c for u, c in col.items() if c}
        elif not coeffs[0]:  # d1 - d2 cancels the i = 0 term
            del col[terms[0]]
        cols.append(col)
    if flavor == "rack":
        return domain, codomain, cols
    pos = _positions(size, n - 1, flavor)
    out = []
    for t, col in zip(domain, cols):
        mapped = {pos[u]: c for u, c in col.items() if pos[u] >= 0}
        if len(mapped) < len(col) and flavor == "degenerate":
            u = next(u for u in col if pos[u] < 0)
            u = tuple(u // size**k % size for k in reversed(range(n - 1)))
            raise ArithmeticError("boundary of %r leaves the degenerate span at %r" % (t, u))
        out.append(mapped)
    return domain, codomain, out
