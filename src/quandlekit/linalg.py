"""Exact integer linear algebra built around Smith normal form.

Matrices are plain lists of lists of Python ints, so nothing here ever
rounds.  Zero-row and zero-column matrices come up constantly as boundary
maps in or out of an empty chain group; pass ``ncols`` explicitly whenever
a matrix has no rows to pin down its width.  ``elementary_divisors`` also
takes sparse rows (dicts of nonzero entries).
"""

from __future__ import annotations

from dataclasses import dataclass

# When set, every smith_normal_form() call re-checks U*M*V == S and the
# divisibility chain before returning.  The test suite turns this on.
VERIFY_SNF = False


def shape_of(mat, ncols=None):
    m = len(mat)
    if m == 0:
        if ncols is None:
            raise ValueError("matrix with no rows needs an explicit ncols")
        return 0, ncols
    n = len(mat[0])
    if any(len(row) != n for row in mat):
        raise ValueError("ragged matrix")
    if ncols is not None and ncols != n:
        raise ValueError("ncols disagrees with row length")
    return m, n


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def matmul(a, b, bcols=None):
    m = len(a)
    if m == 0:
        return []
    k = len(a[0])
    if k == 0:
        if bcols is None:
            raise ValueError("inner dimension 0 needs explicit bcols")
        return zeros(m, bcols)
    if len(b) != k:
        raise ValueError("dimension mismatch")
    n = len(b[0])
    out = zeros(m, n)
    for i in range(m):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(n):
                    oi[j] += c * bt[j]
    return out


@dataclass(frozen=True)
class SNFResult:
    """U * M * V == S with U, V unimodular and S in Smith normal form.

    A transform that was not tracked is None.
    """

    U: list
    S: list
    V: list
    rank: int

    def diagonal(self):
        return [row[i] for i, row in enumerate(self.S) if i < len(row)]


def _min_abs_entry(s, t, m, n):
    best = None
    best_val = 0
    for i in range(t, m):
        row = s[i]
        for j in range(t, n):
            v = row[j]
            if v and (best is None or abs(v) < best_val):
                best = (i, j)
                best_val = abs(v)
                if best_val == 1:
                    return best
    return best


def _row_add(s, u, i, k, c):
    # row i += c * row k, mirrored on U when U is tracked
    si, sk = s[i], s[k]
    for j in range(len(si)):
        si[j] += c * sk[j]
    if u is not None:
        ui, uk = u[i], u[k]
        for j in range(len(ui)):
            ui[j] += c * uk[j]


def _col_add(s, v, j, k, c):
    # col j += c * col k, mirrored on V when V is tracked
    for row in s:
        row[j] += c * row[k]
    if v is not None:
        for row in v:
            row[j] += c * row[k]


def _extended_gcd(a, b):
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def _bezout_pair(s, u, v, i, j):
    """Replace diag entries (a, b) by (gcd, lcm) via unimodular moves."""
    a, b = s[i][i], s[j][j]
    _row_add(s, u, i, j, 1)  # puts b at (i, j)
    g, x, y = _extended_gcd(a, b)
    p, q = -b // g, a // g
    # column pair transform with det x*q - p*y == 1
    for row in s if v is None else s + v:
        ci, cj = row[i], row[j]
        row[i] = x * ci + y * cj
        row[j] = p * ci + q * cj
    _row_add(s, u, j, i, -(y * b) // g)


def _smith(mat, ncols, track_u, track_v):
    """Smith normal form, accumulating only the transforms asked for.

    U and V are None when not tracked; the pivot sequence, and so S and any
    tracked transform, is the same either way.
    """
    m, n = shape_of(mat, ncols)
    s = [[int(x) for x in row] for row in mat]
    u = identity(m) if track_u else None
    v = identity(n) if track_v else None

    t = 0
    while t < min(m, n):
        piv = _min_abs_entry(s, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            if u is not None:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in s if v is None else s + v:
                row[t], row[pj] = row[pj], row[t]
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            if u is not None:
                u[t] = [-x for x in u[t]]
        p = s[t][t]
        clean = True
        for i in range(m):
            if i != t and s[i][t]:
                _row_add(s, u, i, t, -(s[i][t] // p))
                if s[i][t]:
                    clean = False
        for j in range(n):
            if j != t and s[t][j]:
                _col_add(s, v, j, t, -(s[t][j] // p))
                if s[t][j]:
                    clean = False
        if clean:
            t += 1
        # else: leftover remainders are smaller than |p|; repick the pivot

    r = t
    for i in range(r):
        for j in range(i + 1, r):
            if s[j][j] % s[i][i]:
                _bezout_pair(s, u, v, i, j)
    return SNFResult(U=u, S=s, V=v, rank=r)


def smith_normal_form(mat, ncols=None):
    m, n = shape_of(mat, ncols)
    result = _smith(mat, ncols, True, True)
    if VERIFY_SNF:
        _verify_snf(mat, result, m, n)
    return result


def _verify_snf(mat, res, m, n):
    prod = matmul(matmul(res.U, mat, bcols=n), res.V, bcols=n)
    if prod != res.S:
        raise AssertionError("SNF transform check failed: U*M*V != S")
    d = res.diagonal()
    for i, x in enumerate(d):
        if x < 0:
            raise AssertionError("SNF diagonal has a negative entry")
        if (x != 0) != (i < res.rank):
            raise AssertionError("SNF rank does not match its diagonal")
    for i in range(res.rank - 1):
        if d[i + 1] % d[i]:
            raise AssertionError("SNF divisibility chain broken")
    for i in range(m):
        for j in range(n):
            if i != j and res.S[i][j]:
                raise AssertionError("SNF result is not diagonal")


def elementary_divisors(mat):
    """Rank and nonzero invariant factors of an integer matrix; no transforms.

    ``mat`` is a sequence of rows, each a sequence of ints or a dict from
    column index to entry.  A matrix and its transpose share their divisors,
    so sparse columns may be passed as rows.  Pivots of +-1 are eliminated
    sparsely, shortest row first and within a row on the column with the
    fewest nonzeros, until none is left; a Smith normal form of the small
    dense remainder, tracking no transforms, supplies the other factors.
    """
    rows = {}
    for i, row in enumerate(mat):
        entries = row.items() if isinstance(row, dict) else enumerate(row)
        rows[i] = {j: x for j, x in entries if x}
    holders = {}  # column -> rows with a nonzero in it
    for i, row in rows.items():
        for j in row:
            holders.setdefault(j, set()).add(i)

    units = 0
    progress = True
    while progress:
        progress = False
        for i in sorted(rows, key=lambda i: len(rows[i])):
            row = rows[i]
            if not row:
                del rows[i]
                continue
            pivots = [j for j, x in row.items() if x == 1 or x == -1]
            if not pivots:
                continue
            j = min(pivots, key=lambda c: len(holders[c]))
            del rows[i]
            for c in row:
                holders[c].discard(i)
            p = row.pop(j)
            for k in holders.pop(j):
                other = rows[k]
                f = other.pop(j) * p  # p is its own inverse
                for c, x in row.items():
                    y = other.get(c, 0) - f * x
                    if y:
                        if c not in other:
                            holders[c].add(k)
                        other[c] = y
                    else:
                        del other[c]
                        holders[c].discard(k)
            units += 1
            progress = True

    left = [row for row in rows.values() if row]
    cols = sorted({j for row in left for j in row})
    where = {j: c for c, j in enumerate(cols)}
    dense = [[0] * len(cols) for _ in left]
    for d, row in zip(dense, left):
        for j, x in row.items():
            d[where[j]] = x
    rest = _smith(dense, len(cols), False, False)
    factors = (1,) * units + tuple(rest.S[i][i] for i in range(rest.rank))
    return len(factors), factors


def column_lattice_basis(mat, ncols=None):
    """Basis of the lattice spanned by the columns (integer column echelon).

    Only unimodular column operations are used, so the span is preserved
    exactly; the returned vectors are the nonzero echelon columns.
    """
    m, n = shape_of(mat, ncols)
    cols = [[mat[i][j] for i in range(m)] for j in range(n)]
    r = 0
    for row in range(m):
        pivot = next((j for j in range(r, n) if cols[j][row]), None)
        if pivot is None:
            continue
        cols[r], cols[pivot] = cols[pivot], cols[r]
        for j in range(r + 1, n):
            if not cols[j][row]:
                continue
            a, b = cols[r][row], cols[j][row]
            g, x, y = _extended_gcd(a, b)
            p, q = -b // g, a // g
            cr, cj = cols[r], cols[j]
            for i in range(m):
                vi, vj = cr[i], cj[i]
                cr[i] = x * vi + y * vj
                cj[i] = p * vi + q * vj
        if cols[r][row] < 0:
            cols[r] = [-v for v in cols[r]]
        r += 1
        if r == n:
            break
    return cols[:r]


def kernel_basis(mat, ncols=None):
    """Basis of the integer kernel lattice, as a list of column vectors.

    The columns of V past the rank span ker(M) exactly: M*V has the first
    ``rank`` columns equal to U^-1 * S columns and the rest zero.
    """
    m, n = shape_of(mat, ncols)
    res = _smith(mat, ncols, track_u=False, track_v=True)
    return [[res.V[i][j] for i in range(n)] for j in range(res.rank, n)]
