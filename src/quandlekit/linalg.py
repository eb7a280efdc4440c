"""Exact integer linear algebra: one Smith normal form elimination.

Matrices are plain lists of lists of Python ints, so nothing here ever
rounds.  Zero-row and zero-column matrices come up constantly as boundary
maps in or out of an empty chain group; pass ``ncols`` explicitly whenever
a matrix has no rows to pin down its width.  ``elementary_divisors`` gives
ranks and invariant factors from sparse rows (dicts of nonzero entries)
without any transform, pivoting on +-1 entries of whichever row is shortest
at the time; ``_smith`` is the one elimination that also yields vectors,
through the column transform V.  No row transform is ever formed:
the tests keep a Smith normal form with both transforms as their oracle.
"""

from __future__ import annotations


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


def _row_add(s, i, k, c):
    # row i += c * row k
    si, sk = s[i], s[k]
    for j in range(len(si)):
        si[j] += c * sk[j]


def _col_add(s, v, j, k, c):
    # col j += c * col k, mirrored on V when V is tracked
    for row in s if v is None else s + v:
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


def _bezout_pair(s, v, i, j):
    """Replace diag entries (a, b) by (gcd, lcm) via unimodular moves."""
    a, b = s[i][i], s[j][j]
    _row_add(s, i, j, 1)  # puts b at (i, j)
    g, x, y = _extended_gcd(a, b)
    p, q = -b // g, a // g
    # column pair transform with det x*q - p*y == 1
    for row in s if v is None else s + v:
        ci, cj = row[i], row[j]
        row[i] = x * ci + y * cj
        row[j] = p * ci + q * cj
    _row_add(s, j, i, -(y * b) // g)


def _smith(mat, ncols, track_v):
    """(S, V, rank): U*M*V == S in Smith normal form for unimodular U and V.

    U is never formed, and V is None unless tracked.  Since M*V == U^-1 * S,
    the columns of V past the rank are a basis of the kernel: the cocycle
    basis reads them.
    """
    m, n = shape_of(mat, ncols)
    s = [[int(x) for x in row] for row in mat]
    v = identity(n) if track_v else None

    t = 0
    while t < min(m, n):
        piv = _min_abs_entry(s, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        s[t], s[pi] = s[pi], s[t]
        if pj != t:
            for row in s if v is None else s + v:
                row[t], row[pj] = row[pj], row[t]
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
        p = s[t][t]
        clean = True
        for i in range(m):
            if i != t and s[i][t]:
                _row_add(s, i, t, -(s[i][t] // p))
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
                _bezout_pair(s, v, i, j)
    return s, v, r


def elementary_divisors(mat):
    """Rank and nonzero invariant factors of an integer matrix; no transforms.

    ``mat`` is a sequence of rows, each a sequence of ints or a dict from
    column index to entry.  A matrix and its transpose share their divisors,
    so sparse columns may be passed as rows.  Pivots of +-1 are eliminated
    sparsely until none is left, always on a row that is shortest at that
    moment, which keeps fill-in low (Markowitz), and within the row on the
    column with the fewest nonzero entries.  Rows are filed by length: a row
    that grew since it was filed is filed again when it comes up, and a row
    with no +-1 entry waits aside until an update changes it.  ``_smith`` of
    the small dense remainder, tracking no transform, supplies the other
    factors.
    """
    rows = {}
    for i, row in enumerate(mat):
        entries = row.items() if isinstance(row, dict) else enumerate(row)
        row = {j: x for j, x in entries if x}
        if row:
            rows[i] = row
    holders = {}  # column -> rows with a nonzero in it
    for i, row in rows.items():
        for j in row:
            holders.setdefault(j, set()).add(i)

    filed = [[] for _ in range(len(holders) + 1)]  # no row outgrows the columns
    for i in reversed(rows):  # among equal lengths, the first row comes up first
        filed[len(rows[i])].append(i)
    aside = set()
    units = 0
    size = 0
    while size < len(filed):
        if not filed[size]:
            size += 1
            continue
        i = filed[size].pop()
        row = rows[i]
        if len(row) > size:
            filed[len(row)].append(i)
            continue
        pivots = [j for j, x in row.items() if x == 1 or x == -1]
        if not pivots:
            aside.add(i)
            continue
        j = min(pivots, key=lambda c: len(holders[c]))
        del rows[i]
        for c in row:
            holders[c].discard(i)
        p = row.pop(j)
        changed = holders.pop(j)
        for k in changed:
            other = rows[k]
            f = other.pop(j) * p  # p is its own inverse
            for c, x in row.items():
                y = other.get(c)
                if y is None:
                    other[c] = -f * x
                    holders[c].add(k)
                elif y == f * x:
                    del other[c]
                    holders[c].discard(k)
                else:
                    other[c] = y - f * x
        back = aside & changed
        aside -= back
        for k in back:
            n = len(rows[k])
            filed[n].append(k)
            if n < size:
                size = n
        units += 1

    left = [row for row in rows.values() if row]
    cols = sorted({j for row in left for j in row})
    where = {j: c for c, j in enumerate(cols)}
    dense = [[0] * len(cols) for _ in left]
    for d, row in zip(dense, left):
        for j, x in row.items():
            d[where[j]] = x
    rest, _, rank = _smith(dense, len(cols), False)
    factors = (1,) * units + tuple(rest[i][i] for i in range(rank))
    return len(factors), factors
