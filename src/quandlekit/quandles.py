"""Finite quandles as explicit right-translation tables.

A table T encodes the binary operation a*b = T[a][b] on {0, ..., n-1}.
The axioms:

  (Q1) a*a == a for every a
  (Q2) for each b the right translation a -> a*b is a bijection
  (Q3) (a*b)*c == (a*c)*(b*c)

Dropping (Q1) gives a rack.  The dual operation is the inverse of each
right translation, so (a*b) dual b == a.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple
from functools import cached_property


class MalformedTableError(ValueError):
    """Table is not a square integer array over 0..n-1 (structural defect)."""


def _check_shape(rows):
    if not isinstance(rows, (list, tuple)) or len(rows) == 0:
        raise MalformedTableError("table must be a non-empty square array")
    n = len(rows)
    out = []
    for r in rows:
        if not isinstance(r, (list, tuple)) or len(r) != n:
            raise MalformedTableError("every row must have length %d" % n)
        for v in r:
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                raise MalformedTableError("entries must be integers in 0..%d" % (n - 1))
        out.append(tuple(r))
    return tuple(out)


class AxiomViolation(namedtuple("AxiomViolation", "axiom witness")):
    """The axiom (1, 2 or 3) and the elements at which it fails."""

    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "n valid violations")):
    """The table's order, whether all three axioms hold, and every
    AxiomViolation found."""

    __slots__ = ()


def validate_quandle(rows) -> ValidationReport:
    """Check the three axioms, collecting every violation.

    Structural defects (non-square table, out-of-range entries) raise
    MalformedTableError instead, so corrupt input is distinguishable from a
    well-formed table that merely fails an axiom.
    """
    table = _check_shape(rows)
    n = len(table)
    bad = []
    for a in range(n):
        if table[a][a] != a:
            bad.append(AxiomViolation(1, (a,)))
    for b in range(n):
        seen = {}
        for a in range(n):
            c = table[a][b]
            if c in seen:
                bad.append(AxiomViolation(2, (seen[c], a, b)))
                break
            seen[c] = a
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[table[a][c]][table[b][c]]:
                    bad.append(AxiomViolation(3, (a, b, c)))
    return ValidationReport(n=n, valid=not bad, violations=tuple(bad))


class Frozen:
    """Base of the immutable records that are not named tuples, because they
    cache properties or add.  The constructor sets each field named in
    __match_args__ once, past __setattr__; the fields give equality, hashing
    and repr, as in a frozen dataclass."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def _key(self):
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ("%s=%r" % (f, getattr(self, f)) for f in self.__match_args__)
        return "%s(%s)" % (type(self).__name__, ", ".join(fields))


class QuandleTable(Frozen):
    """Operation table wrapper.

    The plain constructor does not validate the axioms (deliberately: the
    chain machinery is also exercised on non-quandles as negative controls).
    Use from_rows for checked construction.
    """

    __match_args__ = ("table",)

    def __init__(self, table: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "table", table)

    @classmethod
    def from_rows(cls, rows) -> "QuandleTable":
        report = validate_quandle(rows)
        if not report.valid:
            v = report.violations[0]
            raise ValueError("not a quandle: axiom %d fails at %s" % (v.axiom, v.witness))
        return cls(_check_shape(rows))

    @property
    def n(self) -> int:
        return len(self.table)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def dual_table(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        dual = [[0] * n for _ in range(n)]
        for b in range(n):
            for a in range(n):
                dual[self.table[a][b]][b] = a
        return tuple(tuple(r) for r in dual)

    @cached_property
    def is_involutory(self) -> bool:
        return all(self.table[self.table[a][b]][b] == a
                   for a in range(self.n) for b in range(self.n))

    def relabeled(self, perm) -> "QuandleTable":
        """Transport the table along the bijection a -> perm[a]."""
        n = self.n
        inv = _inverse(perm)
        rows = [[perm[self.table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
        return QuandleTable(tuple(tuple(r) for r in rows))


def dual(q: QuandleTable) -> QuandleTable:
    """The dual quandle: same set, operation a -> a dual b."""
    return QuandleTable(q.dual_table)


def trivial_quandle(n: int) -> QuandleTable:
    if n < 1:
        raise ValueError("order must be positive")
    return QuandleTable(tuple(tuple(a for _ in range(n)) for a in range(n)))


def dihedral_quandle(n: int) -> QuandleTable:
    """i*j = 2j - i mod n."""
    if n < 1:
        raise ValueError("order must be positive")
    return QuandleTable(tuple(tuple((2 * j - i) % n for j in range(n)) for i in range(n)))


def conjugation_quandle(group_rows, rep: int) -> tuple[QuandleTable, tuple[int, ...]]:
    """Conjugation quandle a*b = b^-1 a b on the conjugacy class of rep.

    group_rows is a full multiplication table; it is checked to be a group
    (associativity, identity, inverses).  Returns the quandle on the class,
    relabeled to 0..k-1 in increasing group-element order, together with the
    class itself as the embedding back into the group.
    """
    mul = _check_shape(group_rows)
    m = len(mul)
    e = None
    for g in range(m):
        if all(mul[g][h] == h and mul[h][g] == h for h in range(m)):
            e = g
            break
    if e is None:
        raise ValueError("no identity element: not a group table")
    inv = [None] * m
    for g in range(m):
        for h in range(m):
            if mul[g][h] == e and mul[h][g] == e:
                inv[g] = h
                break
        if inv[g] is None:
            raise ValueError("element %d has no inverse: not a group table" % g)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise ValueError("multiplication is not associative at (%d,%d,%d)" % (a, b, c))
    if not 0 <= rep < m:
        raise ValueError("class representative out of range")
    cls = sorted({mul[mul[inv[g]][rep]][g] for g in range(m)})
    index = {g: i for i, g in enumerate(cls)}
    rows = [[index[mul[mul[inv[b]][a]][b]] for b in cls] for a in cls]
    return QuandleTable.from_rows(rows), tuple(cls)


class OrbitPartition(namedtuple("OrbitPartition", "blocks orbit_of")):
    """The orbits as sorted blocks, sorted by least element, and the block
    index of each element."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def connected(self) -> bool:
        return len(self.blocks) == 1


def orbits(q: QuandleTable) -> OrbitPartition:
    """Partition into orbits of the group generated by all right translations.

    Closure under x -> x*y and x -> x dual y for every y; blocks are sorted
    by least element.
    """
    n = q.n
    orbit_of = [-1] * n
    blocks = []
    for start in range(n):
        if orbit_of[start] >= 0:
            continue
        seen = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in range(n):
                for z in (q.table[x][y], q.dual_table[x][y]):
                    if z not in seen:
                        seen.add(z)
                        frontier.append(z)
        block = tuple(sorted(seen))
        for x in block:
            orbit_of[x] = len(blocks)
        blocks.append(block)
    return OrbitPartition(blocks=tuple(blocks), orbit_of=tuple(orbit_of))


def subquandle_on_orbit(q: QuandleTable, a: int) -> tuple[QuandleTable, tuple[int, ...]]:
    """The induced quandle on the orbit of a, plus the embedding into q.

    Orbits are closed under the operation, so the restriction is a quandle.
    """
    part = orbits(q)
    block = part.blocks[part.orbit_of[a]]
    index = {x: i for i, x in enumerate(block)}
    rows = [[index[q.table[x][y]] for y in block] for x in block]
    return QuandleTable.from_rows(rows), block


def _inverse(p):
    inv = [0] * len(p)
    for a, pa in enumerate(p):
        inv[pa] = a
    return tuple(inv)


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


def are_isomorphic(q1: QuandleTable, q2: QuandleTable) -> bool:
    if q1.n != q2.n:
        return False
    n = q1.n
    return (_least_relabeling(q1.table, _relabelings(n))
            == _least_relabeling(q2.table, _relabelings(n)))


MAX_ENUMERATION_ORDER = 6


def quandle_classes(n: int) -> list[tuple[QuandleTable, int]]:
    """One (lex-least table, class size) per isomorphism class of order n,
    sorted by table.

    An orderly search (Read 1978) over columns yields only tables that are
    column-major least in their class.  The column for b is a permutation
    sigma_b fixing b (axioms 1 and 2), and a stack of placed columns is
    pruned by every axiom 3 instance whose three columns are placed.  Axiom
    3 in column form: sigma_c . sigma_b == sigma_{sigma_c(b)} . sigma_c.

    Relabeling by p turns column i into p . sigma_{p^-1(i)} . p^-1, so once
    columns 0..k are placed, the relabeled columns 0..i are known whenever
    p^-1(0..i) are all placed.  A stack is rejected when some relabeling
    gives a smaller known prefix: no completion of it is least.  On a full
    table every relabeling is compared, and those that tie are |Aut X|, so
    the class size is n!/|Aut X|.  Each table found is then turned into its
    row-major lex-least relabeling.
    """
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError("order must be between 1 and %d" % MAX_ENUMERATION_ORDER)
    relabelings = list(_relabelings(n))
    candidates = [[p for p, _ in relabelings if p[b] == b] for b in range(n)]
    # waiting[c] holds the relabelings (p, p^-1, i) whose relabeled columns
    # 0..i-1 tie with the placed ones and whose column i needs column
    # c = p^-1(i); at first each waits at i = 0 for column p^-1(0)
    waiting = [[] for _ in range(n)]
    for p, inv in relabelings:
        waiting[inv[0]].append((p, inv, 0))

    cols: list[tuple[int, ...]] = []
    found = []

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
        later = [list(w) for w in waiting]
        autos = 0
        for p, inv, i in waiting[k]:
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
        for col in candidates[k]:
            cols.append(col)
            if consistent_with(k):
                later, autos = advance(k, waiting)
                if autos:  # a full table, least in its class
                    table = tuple(zip(*cols))
                    found.append((_least_relabeling(table, relabelings), len(relabelings) // autos))
                elif later is not None:
                    extend(later)
            cols.pop()

    extend(waiting)
    return [(QuandleTable(t), size) for t, size in sorted(found)]


def isomorphic_tables(X: QuandleTable) -> list[QuandleTable]:
    """Every labelled table isomorphic to X, lexicographically sorted: the
    relabeling orbit of X, of size n!/|Aut X|."""
    tables = {X.relabeled(p).table for p in itertools.permutations(range(X.n))}
    return [QuandleTable(t) for t in sorted(tables)]


def enumerate_quandles(n: int, dedupe_iso: bool = False) -> list[QuandleTable]:
    """All quandle tables of order n <= MAX_ENUMERATION_ORDER, lexicographically
    sorted: the union of the relabeling orbits of quandle_classes(n).

    With dedupe_iso, one representative per relabeling class is kept: the
    lex-least table of each class.
    """
    classes = quandle_classes(n)
    if dedupe_iso:
        return [X for X, _ in classes]
    return sorted((Y for X, _ in classes for Y in isomorphic_tables(X)), key=lambda Y: Y.table)


# --- file format -----------------------------------------------------------
#
# {"n": 3, "table": [[0,2,1],[2,1,0],[1,0,2]], "labels": ["r0","r1","r2"]}
#
# "labels" is optional and purely cosmetic.

def table_doc(q: QuandleTable, labels=None) -> dict:
    doc = {"n": q.n, "table": [list(r) for r in q.table]}
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def rows_from_doc(doc):
    """Structural load of a table document; axiom checks are the caller's."""
    if not isinstance(doc, dict) or "table" not in doc:
        raise MalformedTableError("document must be an object with a 'table' field")
    rows = _check_shape(doc["table"])
    n = doc.get("n", len(rows))
    if isinstance(n, bool) or not isinstance(n, int):
        raise MalformedTableError("declared n=%r is not an integer" % (n,))
    if n != len(rows):
        raise MalformedTableError("declared n=%r does not match table size %d"
                                  % (n, len(rows)))
    labels = doc.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != len(rows)
                or not all(isinstance(s, str) for s in labels)):
            raise MalformedTableError("labels must be a list of %d strings" % len(rows))
        labels = tuple(labels)
    return rows, labels


def load_quandle_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedTableError("invalid JSON: %s" % exc) from exc
    return rows_from_doc(doc)
