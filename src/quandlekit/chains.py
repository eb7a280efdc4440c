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
the certificates eliminate those columns; the identity checker composes the
same columns built from raw table rows.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .quandles import QuandleTable, _check_shape

FLAVORS = ("rack", "degenerate", "quandle")
SIGNS = {"d1": (1, 0), "d2": (0, 1), "minus": (1, -1), "plus": (1, 1)}


def _has_adjacent_repeat(t):
    return any(t[i] == t[i + 1] for i in range(len(t) - 1))


def tuple_basis(X, n, flavor="rack"):
    """Ordered (lexicographic) basis of C_n for the given flavor."""
    return list(_basis(X.n, n, flavor))


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


def _columns(rows, domain, index, weights, strict):
    """Boundaries of the domain generators as sparse columns {row: coeff},
    rows numbered by ``index``, the codomain basis's positions.

    With ``strict`` every image must be supported on the codomain basis
    exactly (the degenerate subcomplex property); otherwise stray tuples are
    dropped (the quandle quotient).
    """
    cols = []
    for t in domain:
        col = {}
        for u, c in _boundary(rows, t, weights).items():
            if not c:
                continue
            i = index.get(u)
            if i is not None:
                col[i] = c
            elif strict:
                raise ArithmeticError(
                    "boundary of %r leaves the degenerate span at %r" % (t, u)
                )
        cols.append(col)
    return cols


def boundary_columns(X, n, sign, flavor="rack"):
    """Degree-n boundary as (domain, codomain, sparse columns {row: coeff})."""
    if n < 1:
        raise ValueError("boundary needs degree >= 1")
    if sign not in SIGNS:
        raise ValueError("unknown sign %r" % (sign,))
    weights = SIGNS[sign]
    domain = _basis(X.n, n, flavor)
    index = _index(X.n, n - 1, flavor)
    cols = _columns(X.table, domain, index, weights, strict=(flavor == "degenerate"))
    return domain, _basis(X.n, n - 1, flavor), cols


class IdentityFailure(namedtuple("IdentityFailure", "identity degree witness")):
    """The first failing column of one identity in one degree: the identity's
    name, the degree, and the tuple whose image does not vanish."""

    __slots__ = ()


class ComplexReport(namedtuple("ComplexReport", "order max_degree checked failures")):
    """Every (identity, degree) checked on a table of the given order, and the
    IdentityFailure of each that fails."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.failures


def _first_nonzero_column(pairs, ncols):
    """First column j where the sum of a o b over (a, b) in pairs is nonzero."""
    for j in range(ncols):
        acc = {}
        for a, b in pairs:
            for i, c in b[j].items():
                for k, x in a[i].items():
                    acc[k] = acc.get(k, 0) + c * x
        if any(acc.values()):
            return j
    return None


def verify_complex_identities(X, max_degree=4):
    """Check the defining identities d1d1 = d2d2 = d1d2 + d2d1 = 0 (hence
    also that both signed boundaries square to zero) and that d1, d2 carry
    degenerate tuples into the degenerate span.

    Accepts a QuandleTable or raw table rows; raw rows get only structural
    validation, so a non-quandle table can be fed in as a negative control
    and will show up as identity failures rather than an exception.
    """
    if max_degree > 4:
        raise ValueError("identity checks are sized for degrees <= 4")
    if isinstance(X, QuandleTable):
        table = X.table
    else:
        table = _check_shape(X)
    size = len(table)
    bases = {n: _basis(size, n, "rack") for n in range(max_degree + 1)}
    maps = {}
    for n in range(1, max_degree + 1):
        index = _index(size, n - 1, "rack")
        for sign, weights in SIGNS.items():
            maps[sign, n] = _columns(table, bases[n], index, weights, strict=False)

    checked = []
    failures = []
    identities = (
        ("d1.d1", (("d1", "d1"),)),
        ("d2.d2", (("d2", "d2"),)),
        ("d1.d2+d2.d1", (("d1", "d2"), ("d2", "d1"))),
        ("minus.minus", (("minus", "minus"),)),
        ("plus.plus", (("plus", "plus"),)),
    )
    for n in range(2, max_degree + 1):
        for name, terms in identities:
            checked.append((name, n))
            pairs = [(maps[a, n - 1], maps[b, n]) for a, b in terms]
            j = _first_nonzero_column(pairs, len(bases[n]))
            if j is not None:
                failures.append(IdentityFailure(name, n, bases[n][j]))

    for n in range(2, max_degree + 1):
        checked.append(("degenerate-closure", n))
        # the first degenerate tuple whose d1 or d2 has a non-degenerate term
        stray = (
            (which, t)
            for j, t in enumerate(bases[n])
            if _has_adjacent_repeat(t)
            for which in ("d1", "d2")
            if not all(_has_adjacent_repeat(bases[n - 1][i]) for i in maps[which, n][j])
        )
        hit = next(stray, None)
        if hit:
            failures.append(IdentityFailure("degenerate-closure-" + hit[0], n, hit[1]))

    return ComplexReport(
        order=size,
        max_degree=max_degree,
        checked=tuple(checked),
        failures=tuple(failures),
    )
