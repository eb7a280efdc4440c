"""Quandle colorings of diagrams and the 2-cocycle state-sum invariants.

A coloring assigns a quandle element to every arc.  It is a plain tuple
of colors indexed by arc, and ``enumerate_colorings`` and every
ColoringTable list colorings sorted.  At a crossing the source under-arc
is the incoming one when the writhe sign is +1 and the outgoing one when
it is -1; the other under-arc must carry source * over.  Each crossing
then contributes s(tau) * phi(source, over) to its coloring's weight,
where s is the writhe sign w in minus mode and the shading sign eps in
plus mode, and the invariant is the multiset of weights.

State sums, the certificate, the witnesses of ``verify`` and the CLI's
``invariant`` share one engine: DiagramEngine and coloring_table().  Each
state sum is ColoringTable.state_sum, the multiset of a table's weights.
The tests keep the one-coloring oracles (validity, translation and the weight
of a single coloring) in tests/coloring_oracle.py, with the translation
lemmas (4.1 and 4.2) on weights and on plus homology classes: a plus
certificate over Z makes every weight 0, so only the classes carry content.

A coloring's weight under phi is the pairing of phi with the coloring's
signed pair counts W, the cycle of the colored diagram, so
``triviality_certificate`` decides "every weight is zero under every
cocycle" at once and builds no cocycle basis: by a theorem whose premise
it checks on the W's where one applies, and otherwise with one span test
of the W's against the columns of the degree-3 boundary.  Its answer does
not change under relabeling, so ``verify`` asks it once per isomorphism
class and takes every class's cell count from it.  The tests hold it to the basis sweep
(``state_sum`` of every basis cocycle on every table) on all tables of
order <= 4, to a perturbed W, and to seeded relabelings.

Which arcs a crossing can decide depends only on which arcs are already
colored, so each DiagramEngine compiles its colorings' search plan once:
levels of a branch arc followed by the forward steps, backward steps and
checks its color makes decidable.  The branch arc is the most constrained
one (an over-arc whose crossing has a colored under-end, then an under-end
whose crossing has a colored over-arc, then the lowest uncolored arc), and
coloring_table() only runs table lookups along the plan.

Every right translation x -> x*a of a quandle is an automorphism, and an
automorphism g turns a coloring rho into the coloring g∘rho, so the
colorings fall into Inn(X)-orbits.  The search tries one color per orbit
on the first branch arc and carries what it finds to the rest of the orbit;
the pair counts and the certificate follow the same orbits.  A search costs
about representatives × n^(branches-1) leaves times the crossings for a
quandle of order n with that many orbit representatives.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from functools import cached_property

from .chains import MODES, _positions, boundary_columns
from .diagrams import arcs, checkerboard, signs
from .homology import betti, pair_basis
from .linalg import elementary_divisors
from .quandles import orbits


# Step kinds of a coloring schedule; each step is (kind, x, over, y).
FORWARD, BACKWARD, CHECK = 0, 1, 2


class DiagramEngine:
    """A diagram's coloring schedule and signs, once, over the arc count and
    crossing roles its reading found.

    The shading signs need the faces, which a disconnected code lacks, so
    they wait for first use in plus mode; ``outer_face`` picks the shading's
    white outer face.  Minus mode reads the writhe signs off the roles.
    """

    def __init__(self, d, outer_face=None):
        self.diagram = d
        self.outer_face = outer_face
        self.arc_count = d.arc_count
        self.roles = d.roles

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

    The search finds the colorings whose first branch arc carries an orbit
    representative (``QuandleTable.orbit_plan``); every other coloring is
    g∘rho for one of them and an automorphism g, and ``sources`` says which.
    A weight is the dot product of the coloring's signed (source color, over
    color) pair counts with the cocycle's values.  The counts are built once
    per mode, crossing by crossing on the searched colorings only, since
    W(g∘rho) = g·W(rho); each cocycle then costs one exact dot product per
    coloring.
    """

    def __init__(self, engine, X, colorings, nodes, searched, sources):
        self.engine = engine
        self.X = X
        self.colorings = colorings  # sorted tuples of arc colors
        self.branches = len(engine.schedule)  # arcs the search branched on
        self.nodes = nodes  # branch values tried
        self.searched = searched  # the colorings the search found
        self.sources = sources  # per coloring: (index in searched, automorphism or None)
        self._searched_counts = {}
        self._pair_counts = {}

    @property
    def first_arc_colors(self):
        """How many colors the search tried on the first branch arc."""
        return sum(r == c for c, (r, _) in enumerate(self.X.orbit_plan))

    def searched_counts(self, mode):
        """Per searched coloring: (((source color, over color), summed sign), ...)."""
        if mode not in MODES:
            raise ValueError("mode must be 'minus' or 'plus'")
        if mode not in self._searched_counts:
            roles = self.engine.roles
            if mode == "minus":
                crossings = [(w, src, over) for src, over, _, w in roles]
            else:
                eps = self.engine.crossing_signs.eps
                crossings = [(s, src, over) for s, (src, over, _, _) in zip(eps, roles)]
            rows = []
            for rho in self.searched:
                counts = {}
                for s, src, over in crossings:
                    key = (rho[src], rho[over])
                    counts[key] = counts.get(key, 0) + s
                rows.append(tuple(counts.items()))
            self._searched_counts[mode] = rows
        return self._searched_counts[mode]

    def pair_counts(self, mode):
        """Per coloring: (((source color, over color), summed sign), ...),
        each g∘rho's the image under g of its searched rho's."""
        if mode not in self._pair_counts:
            base = self.searched_counts(mode)
            self._pair_counts[mode] = [
                base[i] if g is None else tuple(((g[a], g[b]), m) for (a, b), m in base[i])
                for i, g in self.sources
            ]
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


def coloring_table(engine, X):
    """All colorings of the engine's diagram by X, sorted.

    An iterative depth-first search over the engine's schedule: each level
    tries every element on its branch arc and runs the level's steps as
    plain table lookups, stopping at the first failed check.  The first
    level tries only the representatives of X's orbit plan; a coloring g∘rho
    is a coloring for every automorphism g, so the plan's g with g[r] == c
    carries the colorings found at r to those at c.  A level only reads
    arcs colored at or before it, so nothing is ever uncolored.  The cost is
    about representatives × n^(branches-1) leaves times the crossings, where
    n is the order of X and branches the schedule's length; a T(2, m) code
    compiles to two branch arcs whatever m is.
    """
    levels = engine.schedule
    op, n = X.table, X.n
    tables = (op, X.dual_table)  # indexed by FORWARD and BACKWARD
    plan = X.orbit_plan
    first = levels[0][0]
    values = [tuple(c for c, (r, _) in enumerate(plan) if r == c)] + [range(n)] * (len(levels) - 1)
    sizes = [len(v) for v in values]
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
        if v == sizes[depth]:
            tried[depth] = 0
            depth -= 1
            continue
        tried[depth] = v + 1
        nodes += 1
        arc, steps = levels[depth]
        colors[arc] = values[depth][v]
        for kind, x, o, y in steps:
            if kind == CHECK:
                if op[colors[x]][colors[o]] != colors[y]:
                    break
            else:
                colors[y] = tables[kind][colors[x]][colors[o]]
        else:
            depth += 1
    images = [[] for _ in range(n)]  # per representative: the automorphisms to its orbit
    for r, g in plan:
        images[r].append(g)
    rows = []
    for i, rho in enumerate(found):
        for g in images[rho[first]]:
            rows.append((rho if g is None else tuple([g[c] for c in rho]), i, g))
    rows.sort(key=lambda row: row[0])
    colorings = [row[0] for row in rows]
    sources = [row[1:] for row in rows]
    return ColoringTable(engine, X, colorings, nodes, found, sources)


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


def check_eps_alternation(engine):
    """Do the shading signs alternate along every over-passing run of the
    engine's diagram?

    A closed all-over component crosses the other components an even number
    of times, so alternation along its run closes up by itself.
    """
    eps = engine.crossing_signs.eps
    for trav in arcs(engine.diagram).traversals:
        run = [eps[i] for i in trav.overs]
        if any(u == v for u, v in zip(run, run[1:])):
            return False
    return True


def _is_cycle(cols, n, counts):
    """Do the pair counts ((a, b), m) have zero boundary under the degree-2
    rack columns of an order-n table?"""
    total = [0] * n
    for (a, b), m in counts:
        for u, c in cols[a * n + b].items():
            total[u] += m * c
    return not any(total)


def _generates_connected(X, colors):
    """Do the colors generate a connected subquandle Y of X?  Y is their
    closure under the operation; it is connected when the right
    translation maps by its elements carry one element to all of Y."""
    op = X.table
    span = set(colors)
    while True:
        new = {op[a][b] for a in span for b in span} - span
        if not new:
            break
        span |= new
    reached = [min(span)]
    seen = set(reached)
    for x in reached:
        for b in span:
            if op[x][b] not in seen:
                seen.add(op[x][b])
                reached.append(op[x][b])
    return seen == span


def _premise_holds(X, mode, cols, counts):
    """Does one coloring's W meet its mode's premise in
    ``triviality_certificate``?  cols are the degree-2 rack columns."""
    if not _is_cycle(cols, X.n, counts):
        return False
    support = {c for (a, b), m in counts if m and a != b for c in (a, b)}
    return mode == "plus" or not support or _generates_connected(X, support)


def _theorem_count(X, mode, coeff):
    """The cocycle count a theorem gives for (X, mode, coeff), or None where
    no theorem decides the certificate: n - b1 + b2 from ``betti``, over Z
    in both modes and over Z/m in plus mode when m is prime to 2g, for g
    the gcd of the orbit sizes."""
    if coeff.kind == "Zm":
        if mode == "minus":
            return None
        g = math.gcd(*map(len, orbits(X).blocks))
        if math.gcd(coeff.modulus, 2 * g) > 1:
            return None
    b1 = betti(X, mode, "quandle", 1)
    if b1 is None:
        return None
    return X.n - b1 + betti(X, mode, "quandle", 2)


def triviality_certificate(X, tables, mode, coeff):
    """(passes, cocycles): is every weight of every coloring in the tables
    zero under every mode-cocycle over coeff, and how many cocycles would
    ``cocycle_basis(X, mode, coeff)`` return?

    A coloring's weight under phi is the pairing of phi with its pair-count
    vector W, so all weights vanish exactly when every W lies in the span
    of the columns of the degree-3 quandle boundary: the Q-span over Z
    (equal ranks), the Z/m-span over Z/m (equal sizes, the product of
    m/gcd(d, m) over the elementary divisors d; appending vectors never
    shrinks a span).  The cocycle count is c2 - rank d3 = rank d2 + b2, and
    over Z/m one more per divisor of d3 sharing a factor with m.

    A theorem answers first where one applies, and then no d3 is built:
    - plus mode, over Z or over Z/m with gcd(m, 2g) = 1, for g the gcd of
      the orbit sizes.  Premise: every W is a plus 2-cycle, the shading-sign
      identity that ``verify`` checks.  2g kills plus H_2 (``homology``), so
      2g W is a boundary and every weight vanishes; the count is n - 1;
    - minus mode over Z.  Premise: every W is a minus 2-cycle, and the
      colors of its off-diagonal pairs generate a connected subquandle Y.
      W is then a cycle of Y's quandle complex, where b2 = 0, so a multiple
      of W is a boundary; the count is n + o^2 - 2o for o orbits.
    A premise that fails (a link such as ``hopf`` in minus mode), or a
    table that fails the quandle axioms, falls through to the elimination,
    which gives the same answer wherever a premise holds.

    Only the searched colorings' W's are read.  The boundary commutes
    with every automorphism g, so g maps the span of its columns onto
    itself, over Q and over Z/m, and the premises are Inn(X)-invariant;
    W(g∘rho) = g·W(rho) then passes exactly when W(rho) does.  Neither
    answer changes under relabeling, and no basis is built.
    """
    if mode not in MODES:
        raise ValueError("mode must be 'minus' or 'plus'")
    if coeff.kind == "Q":
        raise ValueError("certificates are computed over Z or Z/m")
    count = _theorem_count(X, mode, coeff)
    if count == 0:
        # like a sweep over an empty basis, build no pair counts: plus mode
        # needs the faces, which a disconnected code lacks
        return True, 0
    if count is not None:
        cols = boundary_columns(X, 2, mode)[2]
        rows = (counts for table in tables for counts in table.searched_counts(mode))
        if all(_premise_holds(X, mode, cols, counts) for counts in rows):
            return True, count
    cols = boundary_columns(X, 3, mode, "quandle")[2]
    rank, divisors = elementary_divisors(cols)
    cocycles = len(pair_basis(X.n)) - rank
    if coeff.kind == "Zm":
        m = coeff.modulus
        cocycles += sum(math.gcd(d, m) > 1 for d in divisors)
    if not cocycles:
        return True, 0
    index = _positions(X.n, 2, "quandle")
    cycles = set()
    for table in tables:
        for counts in table.searched_counts(mode):
            w = tuple(sorted((index[a * X.n + b], c) for (a, b), c in counts if c and a != b))
            if w:
                cycles.add(w)
    if not cycles:
        return True, cocycles
    rank_w, divisors_w = elementary_divisors(cols + [dict(w) for w in sorted(cycles)])
    if coeff.kind == "Z":
        return rank_w == rank, cocycles
    sizes = [math.prod(m // math.gcd(d, m) for d in ds) for ds in (divisors, divisors_w)]
    return sizes[0] == sizes[1], cocycles
