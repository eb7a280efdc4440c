"""Reference (co)homology by lattices: cycles modulo boundaries, solved exactly.

This is the kernel-lattice-plus-solve computation the library used before it
switched to elementary divisors.  It shares no arithmetic with that path
beyond the Smith normal form with transforms, so the tests compare the two.
"""

from __future__ import annotations

from quandlekit import linalg
from quandlekit.homology import TRIVIAL_GROUP, AbelianGroupDescriptor


def transpose(mat, ncols=None):
    m, n = linalg.shape_of(mat, ncols)
    return [[mat[i][j] for i in range(m)] for j in range(n)]


def rank(mat, ncols=None):
    """Rank over the rationals (equals the count of nonzero SNF entries)."""
    return linalg.smith_normal_form(mat, ncols).rank


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
    res = snf or linalg.smith_normal_form(a, ncols)
    c = linalg.matmul(res.U, b, bcols=k)
    y = linalg.zeros(n, k)
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
    x = linalg.matmul(res.V, y, bcols=k)
    return x


def _presented_group(nrows, rel_cols):
    """Z^nrows modulo the lattice spanned by the given relation columns."""
    if nrows == 0:
        return TRIVIAL_GROUP
    if not rel_cols:
        return AbelianGroupDescriptor(nrows, ())
    rel = [[col[i] for col in rel_cols] for i in range(nrows)]
    # only the diagonal is read, so the transforms are not tracked
    res = linalg._smith(rel, len(rel_cols), track_u=False, track_v=False)
    torsion = tuple(res.S[i][i] for i in range(res.rank) if res.S[i][i] > 1)
    return AbelianGroupDescriptor(nrows - res.rank, torsion)


def _columns(mat, ncols):
    m = len(mat)
    return [[mat[i][j] for i in range(m)] for j in range(ncols)]


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
        kernel = linalg.kernel_basis(a, ncols=mid) if a else _columns(linalg.identity(mid), mid)
        k = len(kernel)
        if k == 0:
            return TRIVIAL_GROUP
        if bcols == 0:
            return AbelianGroupDescriptor(k, ())
        kmat = [[kernel[j][i] for j in range(k)] for i in range(mid)]
        y = solve_matrix(kmat, b, ncols=k)
        if y is None:
            raise ArithmeticError("boundaries do not lie in the cycle lattice")
        return _presented_group(k, _columns(y, bcols))

    m = coeff.modulus
    if a:
        ext = [list(a[i]) + [m * (j == i) for j in range(len(a))] for i in range(len(a))]
        lifted = linalg.kernel_basis(ext, ncols=mid + len(a))
        kernel = [col[:mid] for col in lifted]
    else:
        kernel = _columns(linalg.identity(mid), mid)
    if len(kernel) != mid:
        raise ArithmeticError("mod-m cycle lattice has unexpected rank")
    kmat = [[kernel[j][i] for j in range(mid)] for i in range(mid)]
    rel = [list(b[i]) if bcols else [] for i in range(mid)]
    for i in range(mid):
        rel[i].extend(m * (j == i) for j in range(mid))
    y = solve_matrix(kmat, rel, ncols=mid)
    if y is None:
        raise ArithmeticError("boundaries do not lie in the mod-m cycle lattice")
    return _presented_group(mid, _columns(y, bcols + mid))


def homology_group(d_n, d_next, coeff):
    """H_n as cycles modulo boundaries, from the BoundaryMatrix of d_n and d_{n+1}."""
    return subquotient(d_n.matrix, d_next.matrix, len(d_n.domain), coeff)


def cohomology_group(d_n, d_next, coeff):
    """H^n as cocycles modulo coboundaries, from transposed boundaries."""
    mid = len(d_n.domain)
    a = transpose([list(r) for r in d_next.matrix], ncols=len(d_next.domain))
    b = transpose([list(r) for r in d_n.matrix], ncols=mid)
    return subquotient(a, b, mid, coeff)
