"""Reference linear algebra and (co)homology for the tests.

``smith_normal_form`` is the textbook elimination (see Cohen, GTM 138,
section 2.4) with both transforms.  It follows the pivot rule of
``linalg._smith``, so its S and V are the library's, and every call checks
U*M*V == S, the diagonal and the divisibility chain.  ``kernel_basis``
reads the kernel off the library's V.  On top of it sit an exact solver and
the kernel-lattice-plus-solve (co)homology the library used before it
switched to elementary divisors.
"""

from __future__ import annotations

from dataclasses import dataclass

from quandlekit import linalg
from quandlekit.homology import TRIVIAL_GROUP, AbelianGroupDescriptor


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def matmul(a, b, bcols=None):
    """A*B; ``bcols`` gives the width of B when B has no rows."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("dimension mismatch")
    width = len(b[0]) if b else bcols
    return [[sum(x * row[j] for x, row in zip(ai, b)) for j in range(width)] for ai in a]


def transpose(mat, ncols=None):
    m, n = linalg.shape_of(mat, ncols)
    return [[mat[i][j] for i in range(m)] for j in range(n)]


@dataclass(frozen=True)
class SNF:
    """U * M * V == S with U, V unimodular and S in Smith normal form."""

    U: list
    S: list
    V: list
    rank: int

    def diagonal(self):
        return [row[i] for i, row in enumerate(self.S) if i < len(row)]


def smith_normal_form(mat, ncols=None):
    """The library's pivots, with U kept as the right block of [M | I].

    Every call checks U*M*V == S, the diagonal and the divisibility chain.
    """
    m, n = linalg.shape_of(mat, ncols)
    w = [list(row) + unit for row, unit in zip(mat, linalg.identity(m))]
    v = linalg.identity(n)

    def add(i, k, c):  # row i += c * row k
        w[i] = [x + c * y for x, y in zip(w[i], w[k])]

    def cols(i, j, x, y, p, q):  # (col i, col j) := (x ci + y cj, p ci + q cj)
        for row in w + v:
            row[i], row[j] = x * row[i] + y * row[j], p * row[i] + q * row[j]

    t = 0
    while t < min(m, n) and (piv := linalg._min_abs_entry(w, t, m, n)):
        w[t], w[piv[0]] = w[piv[0]], w[t]
        cols(t, piv[1], 0, 1, 1, 0)
        if w[t][t] < 0:
            add(t, t, -2)  # negate the pivot row
        p = w[t][t]
        for i in range(m):
            if i != t and w[i][t]:
                add(i, t, -(w[i][t] // p))
        for j in range(n):
            if j != t and w[t][j]:
                cols(j, t, 1, -(w[t][j] // p), 0, 1)
        # leftover remainders are smaller than |p|: repick the pivot
        column = [w[i][t] for i in range(m) if i != t]
        if not any(column) and not any(x for j, x in enumerate(w[t][:n]) if j != t):
            t += 1
    for i in range(t):  # (a, b) -> (gcd, lcm) on the diagonal
        for j in range(i + 1, t):
            a, b = w[i][i], w[j][j]
            if b % a:
                add(i, j, 1)
                g, x, y = linalg._extended_gcd(a, b)
                cols(i, j, x, y, -b // g, a // g)
                add(j, i, -(y * b) // g)
    res = SNF(U=[row[n:] for row in w], S=[row[:n] for row in w], V=v, rank=t)
    if matmul(matmul(res.U, mat, bcols=n), res.V, bcols=n) != res.S:
        raise AssertionError("SNF transform check failed: U*M*V != S")
    d = res.diagonal()
    if any(x < 0 or (x != 0) != (i < t) for i, x in enumerate(d)):
        raise AssertionError("SNF diagonal is negative or disagrees with the rank")
    if any(d[i + 1] % d[i] for i in range(t - 1)):
        raise AssertionError("SNF divisibility chain broken")
    if any(x for i, row in enumerate(res.S) for j, x in enumerate(row) if i != j):
        raise AssertionError("SNF result is not diagonal")
    return res


def kernel_basis(mat, ncols=None):
    """Columns of V past the rank: a basis of the integer kernel lattice."""
    _, v, r = linalg._smith(mat, ncols, track_v=True)
    return [list(col) for col in zip(*v)][r:]


def rank(mat, ncols=None):
    """Rank over the rationals (equals the count of nonzero SNF entries)."""
    return smith_normal_form(mat, ncols).rank


def solve_matrix(a, b, ncols=None, snf=None):
    """Solve A*X == B over the integers; None when no exact solution exists.

    Pass a precomputed ``snf`` of A to amortize repeated solves.
    """
    m, n = linalg.shape_of(a, ncols)
    if len(b) != m:
        raise ValueError("right hand side has the wrong height")
    if m == 0:
        # every X works; pick zero, but width of B is unknowable from []
        raise ValueError("solve_matrix needs at least one row; height-0 systems are vacuous")
    k = len(b[0]) if b else 0
    res = snf or smith_normal_form(a, ncols)
    c = matmul(res.U, b, bcols=k)
    y = zeros(n, k)
    for col in range(k):
        for i in range(m):
            ci = c[i][col]
            if i < res.rank:
                d = res.S[i][i]
                if ci % d:
                    return None
                if i < n:
                    y[i][col] = ci // d
            elif ci:
                return None
    x = matmul(res.V, y, bcols=k)
    return x


def _presented_group(nrows, rel_cols):
    """Z^nrows modulo the lattice spanned by the given relation columns."""
    if nrows == 0:
        return TRIVIAL_GROUP
    if not rel_cols:
        return AbelianGroupDescriptor(nrows, ())
    rel = [[col[i] for col in rel_cols] for i in range(nrows)]
    # only the diagonal is read, so the transforms are not tracked
    s, _, r = linalg._smith(rel, len(rel_cols), track_v=False)
    torsion = tuple(s[i][i] for i in range(r) if s[i][i] > 1)
    return AbelianGroupDescriptor(nrows - r, torsion)


def subquotient(a, b, mid, coeff):
    """Homology at the middle of  . --b--> Z^mid --a--> .  over coeff.

    ``a`` is the map out of the middle term (any row count, mid columns) and
    ``b`` the map in (mid rows, any column count).
    """
    if mid == 0:
        return TRIVIAL_GROUP
    a = [list(r) for r in a]
    b = [list(r) for r in b]
    bcols = len(b[0]) if b else 0

    if coeff.kind == "Q":
        ra = rank(a, ncols=mid) if a else 0
        rb = rank(b, ncols=bcols) if bcols else 0
        return AbelianGroupDescriptor(mid - ra - rb, ())

    if coeff.kind == "Z":
        kernel = kernel_basis(a, ncols=mid) if a else linalg.identity(mid)
        k = len(kernel)
        if k == 0:
            return TRIVIAL_GROUP
        if bcols == 0:
            return AbelianGroupDescriptor(k, ())
        kmat = [[kernel[j][i] for j in range(k)] for i in range(mid)]
        y = solve_matrix(kmat, b, ncols=k)
        if y is None:
            raise ArithmeticError("boundaries do not lie in the cycle lattice")
        return _presented_group(k, transpose(y, bcols))

    m = coeff.modulus
    if a:
        ext = [list(a[i]) + [m * (j == i) for j in range(len(a))] for i in range(len(a))]
        lifted = kernel_basis(ext, ncols=mid + len(a))
        kernel = [col[:mid] for col in lifted]
    else:
        kernel = linalg.identity(mid)
    if len(kernel) != mid:
        raise ArithmeticError("mod-m cycle lattice has unexpected rank")
    kmat = [[kernel[j][i] for j in range(mid)] for i in range(mid)]
    rel = [list(b[i]) if bcols else [] for i in range(mid)]
    for i in range(mid):
        rel[i].extend(m * (j == i) for j in range(mid))
    y = solve_matrix(kmat, rel, ncols=mid)
    if y is None:
        raise ArithmeticError("boundaries do not lie in the mod-m cycle lattice")
    return _presented_group(mid, transpose(y, bcols + mid))


def homology_group(d_n, d_next, coeff):
    """H_n as cycles modulo boundaries, from the BoundaryMatrix of d_n and d_{n+1}."""
    return subquotient(d_n.matrix, d_next.matrix, len(d_n.domain), coeff)


def cohomology_group(d_n, d_next, coeff):
    """H^n as cocycles modulo coboundaries, from transposed boundaries."""
    mid = len(d_n.domain)
    a = transpose([list(r) for r in d_next.matrix], ncols=len(d_next.domain))
    b = transpose([list(r) for r in d_n.matrix], ncols=mid)
    return subquotient(a, b, mid, coeff)
