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
from operator import itemgetter


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
    cache properties or are callable.  The constructor sets each field named in
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

    The constructor does not validate the axioms (deliberately: the chain
    machinery is also exercised on non-quandles as negative controls).
    validate_quandle checks them; the CLI's loaders run it first.
    """

    __match_args__ = ("table",)

    def __init__(self, table: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "table", table)

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
    def orbit_plan(self) -> tuple:
        """Per element c: (r, g), where g is a product of right translation maps
        with g[r] == c (the identity when c == r), and r is the least element
        that such products carry to c.

        Only a right translation that is a bijection preserving this table's
        operation is a factor, so every g is an automorphism.  In a rack each
        right translation is one (axiom 3), and the orbits are those of
        Inn(X); a table whose right translation maps are not automorphisms keeps
        singleton orbits.
        """
        n, op = self.n, self.table
        rows = [itemgetter(*row) for row in op]
        gens = []
        for a in range(n):
            t = tuple(row[a] for row in op)
            if len(set(t)) == n:
                after = itemgetter(*t)  # t(x * y) == t(x) * t(y) for every y
                if all(rows[x](t) == after(op[t[x]]) for x in range(n)):
                    gens.append(t)
        plan = [None] * n
        for r in range(n):
            if plan[r] is not None:
                continue
            plan[r] = (r, tuple(range(n)))
            reached = [plan[r]]
            for x, g in reached:
                for t in gens:
                    if plan[t[x]] is None:
                        h = tuple([t[v] for v in g])  # t after g, so h[r] == t[x]
                        plan[t[x]] = (r, h)
                        reached.append((t[x], h))
        return tuple(plan)

    @cached_property
    def is_quandle(self) -> bool:
        """Does the table pass validate_quandle?"""
        return validate_quandle(self.table).valid

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


def trivial_quandle(n: int) -> QuandleTable:
    if n < 1:
        raise ValueError("order must be positive")
    return QuandleTable(tuple(tuple(a for _ in range(n)) for a in range(n)))


def dihedral_quandle(n: int) -> QuandleTable:
    """i*j = 2j - i mod n."""
    if n < 1:
        raise ValueError("order must be positive")
    return QuandleTable(tuple(tuple((2 * j - i) % n for j in range(n)) for i in range(n)))


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
    """Partition into the orbits of q.orbit_plan: each element grouped with
    its plan representative, the least element of its block.  Blocks come
    sorted by least element, each in ascending order.

    In a quandle or rack these are the Inn(X)-orbits.  A table that is not
    a rack gets the plan's rule: only its right translation maps that are
    automorphisms act.  No command meets that case, since every command
    validates a table before it reads the orbits.
    """
    reps = [r for r, _ in q.orbit_plan]
    blocks = {}
    for c, r in enumerate(reps):
        blocks.setdefault(r, []).append(c)
    index = {r: i for i, r in enumerate(blocks)}
    return OrbitPartition(tuple(map(tuple, blocks.values())), tuple(map(index.__getitem__, reps)))


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


def _cycle_type(p):
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


def _least_with_cycle_type(lengths):
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


MAX_ENUMERATION_ORDER = 6


def class_representatives(n: int) -> list[tuple[QuandleTable, int]]:
    """One (column-major least table, class size) per isomorphism class of
    order n, in column-major order.

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
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError("order must be between 1 and %d" % MAX_ENUMERATION_ORDER)
    relabelings = list(_relabelings(n))
    candidates = [[p for p, _ in relabelings if p[b] == b] for b in range(n)]
    cycle_type = {p: _cycle_type(p) for p, _ in relabelings}
    least = {t: _least_with_cycle_type(t) for t in set(cycle_type.values()) if 1 in t}
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
        kind = cycle_type[cols[k]]
        if kind == cycle_type[cols[0]]:
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
    return found


def isomorphic_tables(X: QuandleTable) -> list[QuandleTable]:
    """Every labelled table isomorphic to X, lexicographically sorted: the
    relabeling orbit of X, of size n!/|Aut X|."""
    tables = {X.relabeled(p).table for p in itertools.permutations(range(X.n))}
    return [QuandleTable(t) for t in sorted(tables)]


def enumerate_quandles(n: int, dedupe_iso: bool = False) -> list[QuandleTable]:
    """All quandle tables of order n <= MAX_ENUMERATION_ORDER, lexicographically
    sorted: the union of the relabeling orbits of class_representatives(n).

    With dedupe_iso, one table per isomorphism class instead: each of
    class_representatives(n) turned into its row-major lex-least relabeling
    by one early-exit pass, sorted.
    """
    classes = class_representatives(n)
    if dedupe_iso:
        relabelings = list(_relabelings(n))
        forms = sorted(_least_relabeling(X.table, relabelings) for X, _ in classes)
        return [QuandleTable(t) for t in forms]
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
