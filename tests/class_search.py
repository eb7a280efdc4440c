"""The orderly search that produced the quandle class table.

``quandlekit.quandles.class_representatives`` reads the classes of each
order from ``src/quandlekit/quandle_classes.txt``.  This module is the
reference that made that file and that the tests hold it to: the search
finds each class's column-major least table, and ``canonical_classes``
turns each into its row-major least relabeling, the one form the file
stores.  Regenerate the file with

    PYTHONPATH=src python tests/class_search.py > src/quandlekit/quandle_classes.txt
"""

from __future__ import annotations

import functools
import itertools

from quandlekit.quandles import MAX_ENUMERATION_ORDER, QuandleTable, _inverse

HEADER = """\
# The isomorphism classes of quandles of order 1 to %d, one per line,
# sorted by table within each order: the order n, the class size
# n!/|Aut X|, and the rows of the class's row-major least table, each row
# written as its digits.
# Made by tests/class_search.py; regenerate with
#   PYTHONPATH=src python tests/class_search.py > src/quandlekit/quandle_classes.txt
"""


def _relabelings(n):
    """Every relabeling p of 0..n-1, with its inverse, one at a time."""
    return ((p, _inverse(p)) for p in itertools.permutations(range(n)))


def _least_relabeling(table, relabelings):
    """Row-major lex-least relabeling of a table.

    Relabeled row i is p(T[p^-1(i)][p^-1(j)]) for j in order; a relabeling is
    abandoned at its first row that differs from the best table so far, and
    kept only if that row is smaller.
    """
    best = table  # the identity relabeling
    for p, inv in relabelings:
        rows = (tuple(map(p.__getitem__, map(table[a].__getitem__, inv))) for a in inv)
        for i, row in enumerate(rows):
            if row != best[i]:
                if row < best[i]:
                    best = best[:i] + (row,) + tuple(rows)
                break
    return best


def cycle_type(p):
    """The cycle lengths of a permutation, sorted."""
    seen = set()
    lengths = []
    for start in range(len(p)):
        a, length = start, 0
        while a not in seen:
            seen.add(a)
            a = p[a]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def least_with_cycle_type(lengths):
    """The lex-least permutation that fixes 0 and has these cycle lengths,
    one of them the 1 of 0: the other cycles on consecutive points,
    shortest first, each as a -> a+1 -> ... -> a."""
    p = [0]
    rest = list(lengths)
    rest.remove(1)
    for length in rest:
        a = len(p)
        p += range(a + 1, a + length)
        p.append(a)
    return tuple(p)


@functools.cache
def search_representatives(n: int) -> tuple[tuple[QuandleTable, int], ...]:
    """One (column-major least table, class size) per isomorphism class of
    order n >= 1, in column-major order; searched once per order.

    An orderly search (Read 1978) over columns yields only tables that are
    column-major least in their class.  The column for b is a permutation
    sigma_b fixing b (axioms 1 and 2), and a stack of placed columns is
    pruned by every axiom 3 instance whose three columns are placed.  Axiom
    3 in column form: sigma_c . sigma_b == sigma_{sigma_c(b)} . sigma_c.  So
    when placed columns b and c have sigma_c(b) = k, column k is forced to
    sigma_c . sigma_b . sigma_c^-1 and is the only candidate tried.

    Relabeling by p turns column i into p . sigma_{p^-1(i)} . p^-1, so once
    columns 0..k are placed, the relabeled columns 0..i are known whenever
    p^-1(0..i) are all placed.  A stack is rejected when some relabeling
    gives a smaller known prefix: no completion of it is least.  The
    relabelings with p^-1(0) = k turn column k into every permutation that
    fixes 0 and has sigma_k's cycle type; when that type is not sigma_0's,
    the least such permutation decides the whole group at once: below
    sigma_0 it rejects the stack, above it none of the group can tie.  The
    other relabelings are compared one at a time.  On a full table those
    that tie are |Aut X|, so the class size is n!/|Aut X|.
    """
    relabelings = list(_relabelings(n))
    candidates = [[p for p, _ in relabelings if p[b] == b] for b in range(n)]
    kinds = {p: cycle_type(p) for p, _ in relabelings}
    least = {t: least_with_cycle_type(t) for t in set(kinds.values()) if 1 in t}
    # groups[k] holds the relabelings (p, p^-1, 0) with p^-1(0) = k, which
    # start by comparing their column 0, made from column k
    groups = [[] for _ in range(n)]
    for p, inv in relabelings:
        groups[inv[0]].append((p, inv, 0))

    cols: list[tuple[int, ...]] = []
    found = []

    def forced(k):
        # sigma_k = sigma_c . sigma_b . sigma_c^-1 for placed b, c with
        # sigma_c(b) = k, or None if no placed pair names k
        for c in range(k):
            sc = cols[c]
            for b in range(k):
                if sc[b] == k:
                    col = [0] * n
                    for a, sb in enumerate(cols[b]):
                        col[sc[a]] = sc[sb]
                    return tuple(col)
        return None

    def consistent_with(k):
        # check every axiom-3 pair (b, c) whose columns b, c, sigma_c(b) are
        # all placed and that mentions the new column k
        for b in range(k + 1):
            for c in range(k + 1):
                bc = cols[c][b]
                if bc > k:
                    continue
                if k not in (b, c, bc):
                    continue
                sc = cols[c]
                if tuple(map(sc.__getitem__, cols[b])) != tuple(map(cols[bc].__getitem__, sc)):
                    return False
        return True

    def advance(k, waiting):
        """Compare every relabeling waiting for column k as far as the placed
        columns allow.  (None, 0) if one gives a smaller prefix; otherwise the
        relabelings still tied, by the column they wait for next, and the
        number that tie on the whole table, which is nonzero only once the
        last column is placed."""
        kind = kinds[cols[k]]
        if kind == kinds[cols[0]]:
            pending = itertools.chain(groups[k], waiting[k])
        elif least[kind] < cols[0]:
            return None, 0
        else:
            pending = waiting[k]
        later = [list(w) for w in waiting]
        autos = 0
        for p, inv, i in pending:
            while True:
                image = tuple(map(p.__getitem__, map(cols[inv[i]].__getitem__, inv)))
                if image != cols[i]:
                    if image < cols[i]:
                        return None, 0
                    break
                i += 1
                if i == n:
                    autos += 1
                    break
                if inv[i] > k:
                    later[inv[i]].append((p, inv, i))
                    break
        return later, autos

    def extend(waiting):
        k = len(cols)
        only = forced(k)
        for col in candidates[k] if only is None else (only,):
            cols.append(col)
            if consistent_with(k):
                later, autos = advance(k, waiting)
                if autos:  # a full table, least in its class
                    found.append((QuandleTable(tuple(zip(*cols))), len(relabelings) // autos))
                elif later is not None:
                    extend(later)
            cols.pop()

    # waiting[c] holds the relabelings (p, p^-1, i) whose relabeled columns
    # 0..i-1 tie with the placed ones and whose column i needs column
    # c = p^-1(i); none waits before column 0 is placed
    extend([[] for _ in range(n)])
    return tuple(found)


@functools.cache
def canonical_classes(n: int) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
    """One (row-major least table, class size) per isomorphism class of
    order n >= 1, sorted by table: the search's tables, each relabeled by
    one early-exit pass over the n! relabelings; made once per order."""
    relabelings = list(_relabelings(n))
    return tuple(sorted((_least_relabeling(X.table, relabelings), size) for X, size in search_representatives(n)))


def table_text(top=MAX_ENUMERATION_ORDER):
    """The class table's text for orders 1..top, header included."""
    lines = [HEADER % top]
    for n in range(1, top + 1):
        for table, size in canonical_classes(n):
            lines.append("%d %d %s\n" % (n, size, " ".join("".join(map(str, r)) for r in table)))
    return "".join(lines)


if __name__ == "__main__":
    print(table_text(), end="")
