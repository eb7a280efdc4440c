"""Quandle colorings of diagrams and the 2-cocycle state-sum invariants.

A coloring assigns a quandle element to every arc.  It is a plain tuple
of colors indexed by arc, and ``enumerate_colorings`` and every
ColoringTable list colorings sorted.  At a crossing the source under-arc
is the incoming one when the writhe sign is +1 and the outgoing one when
it is -1; the other under-arc must carry source * over.  Each crossing
then contributes s(tau) * phi(source, over) to its coloring's weight,
where s is the writhe sign w in minus mode and the shading sign eps in
plus mode, and the invariant is the multiset of weights.

State sums, the lemma scans, the sweep cells of ``verify`` and the CLI's
``invariant`` share one engine: DiagramEngine and coloring_table().  Each
state sum is ColoringTable.state_sum, the multiset of a table's weights.
The tests keep the one-coloring oracles (validity, translation and the weight
of a single coloring) in tests/coloring_oracle.py.

A coloring's weight under phi is the pairing of phi with the coloring's
signed pair counts W, the cycle of the colored diagram, so
``triviality_certificate`` decides "every weight is zero under every
cocycle" with one span test of the W's against the columns of the degree-3
boundary, and builds no cocycle basis.  Its answer does not change under
relabeling, so ``verify`` asks it once per isomorphism class.  The tests
hold it to the basis sweep (``sweep_entries`` on every cell) on all tables
of order <= 4, to a perturbed W, and to seeded relabelings.

Which arcs a crossing can decide depends only on which arcs are already
colored, so each DiagramEngine compiles its colorings' search plan once:
levels of a branch arc followed by the forward steps, backward steps and
checks its color makes decidable.  The branch arc is the most constrained
one (an over-arc whose crossing has a colored under-end, then an under-end
whose crossing has a colored over-arc, then the lowest uncolored arc), and
coloring_table() only runs table lookups along the plan.  A search costs
about n^branches leaves times the crossings for a quandle of order n.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from functools import cached_property

from .chains import _index, boundary_columns
from .diagrams import arcs, checkerboard, signs
from .homology import ZZ, pair_basis
from .linalg import elementary_divisors

MODES = ("minus", "plus")


def crossing_roles(d, arcset):
    """Per crossing: (source arc, over arc, target arc, w)."""
    out = []
    for i, (a, b, c, _) in enumerate(d.crossings):
        w = d.writhe_sign(i)
        under_in = arcset.arc_of[a]
        under_out = arcset.arc_of[c]
        over = arcset.arc_of[b]
        src, tgt = (under_in, under_out) if w == 1 else (under_out, under_in)
        out.append((src, over, tgt, w))
    return out


# Step kinds of a coloring schedule; each step is (kind, x, over, y).
FORWARD, BACKWARD, CHECK = 0, 1, 2


class DiagramEngine:
    """A diagram's arcs, crossing roles, coloring schedule and signs, once.

    The shading signs need the faces, which a disconnected code lacks, so
    they wait for first use in plus mode; ``outer_face`` picks the shading's
    white outer face.  Minus mode reads the writhe signs off the roles.
    """

    def __init__(self, d, outer_face=None):
        self.diagram = d
        self.outer_face = outer_face
        self.arcset = arcs(d)
        self.arc_count = len(self.arcset)
        self.roles = crossing_roles(d, self.arcset)

    @cached_property
    def crossing_signs(self):
        return signs(self.diagram, checkerboard(self.diagram, self.outer_face))

    @cached_property
    def schedule(self):
        """The coloring search plan: levels of (branch arc, steps), built
        from the roles alone.

        Coloring a level's branch arc makes its steps decidable, in order:
        (FORWARD, src, over, tgt) colors tgt = src * over, (BACKWARD, tgt,
        over, src) colors src from tgt and over, and (CHECK, src, over, tgt)
        tests src * over == tgt.  Every crossing is one step of one level.
        Branch candidates (the module docstring gives the rule) wait in
        first-in first-out queues and are dropped lazily once colored, so
        compiling is linear in crossings plus arcs.
        """
        roles, k = self.roles, self.arc_count
        touch = [[] for _ in range(k)]
        for i, (src, over, tgt, _) in enumerate(roles):
            for arc in {src, over, tgt}:
                touch[arc].append(i)
        known = [False] * k
        placed = [False] * len(roles)
        overs, unders = deque(), deque()
        levels = []
        lowest = 0
        while True:
            for pending in (overs, unders):
                while pending and known[pending[0]]:
                    pending.popleft()
                if pending:
                    branch = pending.popleft()
                    break
            else:
                while lowest < k and known[lowest]:
                    lowest += 1
                if lowest == k:
                    return tuple(levels)
                branch = lowest
            known[branch] = True
            steps = []
            reached = [branch]
            for arc in reached:
                for i in touch[arc]:
                    if placed[i]:
                        continue
                    src, over, tgt, _ = roles[i]
                    if not known[over]:
                        if known[src] or known[tgt]:
                            overs.append(over)
                        continue
                    if known[src]:
                        if known[tgt]:
                            steps.append((CHECK, src, over, tgt))
                        else:
                            steps.append((FORWARD, src, over, tgt))
                            known[tgt] = True
                            reached.append(tgt)
                    elif known[tgt]:
                        steps.append((BACKWARD, tgt, over, src))
                        known[src] = True
                        reached.append(src)
                    else:
                        unders.append(src)
                        continue
                    placed[i] = True
            levels.append((branch, tuple(steps)))


class ColoringTable:
    """The sorted colorings of one diagram by one quandle, and their weights.

    A weight is the dot product of the coloring's signed (source color, over
    color) pair counts with the cocycle's values.  The counts are built once
    per mode; each cocycle then costs one exact dot product per coloring.
    """

    def __init__(self, engine, X, colorings, nodes):
        self.engine = engine
        self.X = X
        self.colorings = colorings  # sorted tuples of arc colors
        self.branches = len(engine.schedule)  # arcs the search branched on
        self.nodes = nodes  # branch values tried
        self._pair_counts = {}

    def pair_counts(self, mode):
        """Per coloring: (((source color, over color), summed sign), ...)."""
        if mode not in MODES:
            raise ValueError("mode must be 'minus' or 'plus'")
        if mode not in self._pair_counts:
            roles = self.engine.roles
            if mode == "minus":
                crossings = [(w, src, over) for src, over, _, w in roles]
            else:
                eps = self.engine.crossing_signs.eps
                crossings = [(s, src, over) for s, (src, over, _, _) in zip(eps, roles)]
            rows = []
            for rho in self.colorings:
                counts = {}
                for s, src, over in crossings:
                    key = (rho[src], rho[over])
                    counts[key] = counts.get(key, 0) + s
                rows.append(tuple(counts.items()))
            self._pair_counts[mode] = rows
        return self._pair_counts[mode]

    def weights(self, phi, mode):
        """One weight per coloring, reduced in the cocycle's coefficient group."""
        return [
            phi.coeff.reduce(sum(m * phi.values[a][b] for (a, b), m in counts))
            for counts in self.pair_counts(mode)
        ]

    def state_sum(self, phi, mode):
        """The invariant on this table: its weights as a GroupRingValue."""
        return GroupRingValue.from_values(phi.coeff, self.weights(phi, mode))

    @cached_property
    def translations(self):
        """Per coloring and element a: the index of its translate by * a, or
        None when the translate is not a coloring."""
        index = {rho: i for i, rho in enumerate(self.colorings)}
        columns = [[row[a] for row in self.X.table] for a in range(self.X.n)]
        return [[index.get(tuple([col[c] for c in rho])) for col in columns] for rho in self.colorings]


def coloring_table(engine, X):
    """All colorings of the engine's diagram by X, sorted.

    An iterative depth-first search over the engine's schedule: each level
    tries every element on its branch arc and runs the level's steps as
    plain table lookups, stopping at the first failed check.  A level only
    reads arcs colored at or before it, so nothing is ever uncolored.  The
    cost is about n^branches leaves times the crossings, where n is the
    order of X and branches the schedule's length; a T(2, m) code compiles
    to two branch arcs whatever m is.
    """
    levels = engine.schedule
    op, n = X.table, X.n
    tables = (op, X.dual_table)  # indexed by FORWARD and BACKWARD
    colors = [0] * engine.arc_count
    found = []
    top = len(levels)
    tried = [0] * top
    depth = nodes = 0
    while depth >= 0:
        if depth == top:
            found.append(tuple(colors))
            depth -= 1
            continue
        v = tried[depth]
        if v == n:
            tried[depth] = 0
            depth -= 1
            continue
        tried[depth] = v + 1
        nodes += 1
        arc, steps = levels[depth]
        colors[arc] = v
        for kind, x, o, y in steps:
            if kind == CHECK:
                if op[colors[x]][colors[o]] != colors[y]:
                    break
            else:
                colors[y] = tables[kind][colors[x]][colors[o]]
        else:
            depth += 1
    found.sort()
    return ColoringTable(engine, X, found, nodes)


def enumerate_colorings(d, X):
    """All valid colorings, as sorted tuples of arc colors."""
    return coloring_table(DiagramEngine(d), X).colorings


class GroupRingValue(namedtuple("GroupRingValue", "coeff counts")):
    """Multiset of coefficient-group elements, one per coloring: the group,
    and the sorted ((element, multiplicity), ...)."""

    __slots__ = ()

    @classmethod
    def from_values(cls, coeff, values):
        acc = {}
        for v in values:
            v = coeff.reduce(v)
            acc[v] = acc.get(v, 0) + 1
        return cls(coeff, tuple(sorted(acc.items())))

    @property
    def total(self):
        return sum(m for _, m in self.counts)

    def support(self):
        return tuple(v for v, _ in self.counts)

    def to_doc(self):
        return [[str(v), m] for v, m in self.counts]


def is_trivial(value):
    """All weights are the identity; an empty multiset is an error, not trivial."""
    if not value.counts:
        raise ValueError("state sum over no colorings (corrupt inputs)")
    return value.support() == (0,)


def state_sum(d, X, phi, mode):
    """The invariant: one weight per coloring, collected as a multiset."""
    if phi.n != X.n:
        raise ValueError("cocycle size does not match the quandle")
    return coloring_table(DiagramEngine(d), X).state_sum(phi, mode)


class LemmaReport(namedtuple("LemmaReport", "name pairs_checked failures")):
    """One translation lemma on one coloring table: its name, the number of
    (coloring, element) pairs whose translate is a coloring, and the failures
    as ((coloring, element, value, translated value), ...)."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.failures


def translation_lemmas(table, phi):
    """Lemmas 4.1 and 4.2 on one coloring table, as two reports: translating
    a coloring negates its plus-mode weight (4.1) and preserves it (4.2)."""
    if not table.engine.diagram.is_knot():
        raise ValueError("lemma checks are stated for knot diagrams")
    if phi.coeff != ZZ:
        raise ValueError("lemma checks run over Z")
    weights = table.weights(phi, "plus")
    checked = sum(j is not None for row in table.translations for j in row)
    reports = []
    cancel, agree = (lambda u, v: u + v == 0), (lambda u, v: u == v)
    for name, holds in (("weights-cancel", cancel), ("weights-agree", agree)):
        failures = []
        for rho, u, row in zip(table.colorings, weights, table.translations):
            for a, j in enumerate(row):
                if j is None:
                    failures.append((rho, a, "not a coloring", None))
                elif not holds(u, weights[j]):
                    failures.append((rho, a, u, weights[j]))
        reports.append(LemmaReport(name=name, pairs_checked=checked, failures=tuple(failures)))
    return reports


def check_eps_alternation(engine):
    """Do the shading signs alternate along every over-passing run of the
    engine's diagram?

    A closed all-over component crosses the other components an even number
    of times, so alternation along its run closes up by itself.
    """
    eps = engine.crossing_signs.eps
    for trav in engine.arcset.traversals:
        run = [eps[i] for i in trav.overs]
        if any(u == v for u, v in zip(run, run[1:])):
            return False
    return True


class SweepEntry(namedtuple("SweepEntry", "quandle diagram cocycle colorings invariant trivial")):
    """One sweep cell: the table rows, the diagram's name, the cocycle's value
    rows, the coloring count, the GroupRingValue and whether it is trivial."""

    __slots__ = ()


def sweep_entries(table, name, basis, mode):
    """One sweep cell per basis cocycle on one coloring table."""
    entries = []
    for phi in basis:
        value = table.state_sum(phi, mode)
        entries.append(
            SweepEntry(
                quandle=table.X.table,
                diagram=name,
                cocycle=phi.values,
                colorings=len(table.colorings),
                invariant=value,
                trivial=is_trivial(value),
            )
        )
    return entries


def triviality_certificate(X, tables, mode, coeff):
    """(passes, cocycles): is every weight of every coloring in the tables
    zero under every mode-cocycle over coeff, and how many cocycles would
    ``cocycle_basis(X, mode, coeff)`` return?

    A coloring's weight under phi is the pairing of phi with its pair-count
    vector W, so all weights vanish exactly when every W lies in the span
    of the columns of the degree-3 quandle boundary: the Q-span over Z
    (equal ranks), the Z/m-span over Z/m (equal sizes, the product of
    m/gcd(d, m) over the elementary divisors d; appending vectors never
    shrinks a span).  The cocycle count is c2 - r over Z plus, over Z/m,
    one per divisor sharing a factor with m.  Neither answer changes under
    relabeling, and no basis is built.
    """
    if mode not in MODES:
        raise ValueError("mode must be 'minus' or 'plus'")
    if coeff.kind == "Q":
        raise ValueError("certificates are computed over Z or Z/m")
    pairs = pair_basis(X.n)
    cols = boundary_columns(X, 3, mode, "quandle")[2]
    rank, divisors = elementary_divisors(cols)
    cocycles = len(pairs) - rank
    if coeff.kind == "Zm":
        m = coeff.modulus
        cocycles += sum(math.gcd(d, m) > 1 for d in divisors)
    if not cocycles:
        # like a sweep over an empty basis, build no pair counts: plus mode
        # needs the faces, which a disconnected code lacks
        return True, 0
    index = _index(X.n, 2, "quandle")
    cycles = set()
    for table in tables:
        for counts in table.pair_counts(mode):
            w = tuple(sorted((index[p], c) for p, c in counts if c and p[0] != p[1]))
            if w:
                cycles.add(w)
    if not cycles:
        return True, cocycles
    rank_w, divisors_w = elementary_divisors(cols + [dict(w) for w in sorted(cycles)])
    if coeff.kind == "Z":
        return rank_w == rank, cocycles
    sizes = [math.prod(m // math.gcd(d, m) for d in ds) for ds in (divisors, divisors_w)]
    return sizes[0] == sizes[1], cocycles
