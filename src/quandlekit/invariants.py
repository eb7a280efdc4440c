"""Quandle colorings of diagrams and the 2-cocycle state-sum invariants.

A coloring assigns a quandle element to every arc.  It is a plain tuple
of colors indexed by arc, and ``enumerate_colorings`` and
``ColoringTable.colorings`` list colorings sorted.  At a crossing the
source under-arc is the incoming one when the writhe sign is +1 and the
outgoing one when it is -1; the other under-arc must carry source * over.
Each crossing then contributes s(tau) * phi(source, over) to its
coloring's weight, where s is the writhe sign w in minus mode and the
shading sign eps in plus mode, and the invariant is the multiset of
weights.

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
cocycle" at once and builds no cocycle basis: by a theorem where one
applies, and otherwise with one span test of the W's against the columns
of the degree-3 boundary.  The theorems' premises are facts about the
diagram, checked once per engine and mode, arc by arc
(``DiagramEngine.premise``): every W is a 2-cycle, and in minus mode the
diagram is a knot, whose colors always generate a connected subquandle.
The certificate takes the engines and searches colorings only to
eliminate.  Its answer does not change under relabeling, so ``verify``
asks it once per isomorphism class and takes every class's cell count
from it.  The tests hold it to the basis sweep on all tables of order <= 4,
to a perturbed W, to broken signs, and to seeded relabelings.

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
on the first branch arc, and a ColoringTable keeps what it finds as
orbits: each searched coloring with the automorphisms to the rest of its
orbit.  State sums, pair counts and the certificate follow the same
orbits, and the sorted list of every coloring is built only where it is
read.  A search costs about representatives × n^(branches-1) leaves times
the crossings for a quandle of order n with that many orbit
representatives.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from functools import cached_property
from itertools import repeat

from .chains import MODES, SIGNS, _positions, boundary_columns
from .diagrams import shading_signs
from .homology import betti, pair_basis
from .linalg import elementary_divisors
from .quandles import orbits


# Step kinds of a coloring schedule; each step is (kind, x, over, y).
FORWARD, BACKWARD, CHECK = 0, 1, 2


class DiagramEngine:
    """A diagram's coloring schedule and signs, once, over the arc count and
    crossing roles its reading found.

    ``eps``, the shading signs from ``shading_signs``, needs the faces,
    which a disconnected code lacks, so it waits for first use in plus mode;
    ``outer_face`` picks the shading's white outer face.  Minus mode reads
    the writhe signs off the roles.
    """

    def __init__(self, d, outer_face=None):
        self.diagram = d
        self.outer_face = outer_face
        self.arc_count = d.arc_count
        self.roles = d.roles
        self._premises = {}

    @cached_property
    def eps(self):
        return shading_signs(self.diagram, self.outer_face)

    def signed_roles(self, mode):
        """(s, src, over, tgt) per crossing: s is w in minus mode, eps in plus mode."""
        if mode not in MODES:
            raise ValueError("mode must be 'minus' or 'plus'")
        sign = [w for *_, w in self.roles] if mode == "minus" else self.eps
        return [(s, src, over, tgt) for s, (src, over, tgt, _) in zip(sign, self.roles)]

    def premise(self, mode):
        """Does the diagram meet the premise of the triviality theorems in
        mode?  Checked once per mode, on the diagram alone.

        Every arc a must have zero sum over the crossings of s * (w1 [src =
        a] + w2 [tgt = a] - (w1 + w2) [over = a]), for (w1, w2) the mode's
        boundary weights and s its sign (``signed_roles``).  Then every
        coloring's W is a 2-cycle, its boundary being these sums paired with
        the arc colors; in plus mode this is the psi identity ``verify``
        reports.  The minus sums, w ([src = a] - [tgt = a]), vanish on every
        code ``parse_pd`` accepts, so in practice the knot test decides the
        minus premise: along a knot each arc's color is the previous one's
        translate by an over color, so the colors, and their products, lie
        in one Inn(Y)-orbit of the subquandle Y they generate: Y is connected.
        """
        if mode not in self._premises:
            w1, w2 = SIGNS[mode]
            sums = [0] * self.arc_count
            for s, src, over, tgt in self.signed_roles(mode):
                sums[src] += w1 * s
                sums[tgt] += w2 * s
                sums[over] -= (w1 + w2) * s
            self._premises[mode] = not any(sums) and (mode == "plus" or self.diagram.is_knot())
        return self._premises[mode]

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
            # a kink touches its arc twice; the second visit finds the
            # crossing placed, or queues a duplicate that is dropped lazily
            touch[src].append(i)
            touch[over].append(i)
            touch[tgt].append(i)
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
    """The colorings of one diagram by one quandle, kept as Inn(X)-orbits,
    and their state sums.

    The search finds the colorings whose first branch arc carries an orbit
    representative (``QuandleTable.orbit_plan``); every other coloring is
    g∘rho for one of them and an automorphism g.  ``searched`` keeps the
    colorings found and ``carriers``, per searched coloring, the
    automorphisms to the rest of its orbit (None for the identity), so
    ``len`` counts colorings without listing them; the sorted
    ``colorings`` are built on first read.  A weight is the dot product of
    a coloring's signed (source color, over color) pair counts with the
    cocycle's values.  The counts are built once per mode, crossing by
    crossing on the searched colorings only, since W(g∘rho) = g·W(rho);
    each cocycle then costs one exact dot product per coloring.
    """

    def __init__(self, engine, X, nodes, searched, carriers):
        self.engine = engine
        self.X = X
        self.branches = len(engine.schedule)  # arcs the search branched on
        self.nodes = nodes  # branch values tried
        self.searched = searched  # the colorings the search found
        self.carriers = carriers  # per searched coloring: automorphisms, None for the identity
        self._searched_counts = {}

    def __len__(self):
        return sum(map(len, self.carriers))

    @cached_property
    def colorings(self):
        """Every coloring, as sorted tuples of arc colors."""
        return sorted(
            rho if g is None else tuple([g[c] for c in rho])
            for rho, gs in zip(self.searched, self.carriers)
            for g in gs
        )

    @property
    def first_arc_colors(self):
        """How many colors the search tried on the first branch arc."""
        return sum(r == c for c, (r, _) in enumerate(self.X.orbit_plan))

    def searched_counts(self, mode):
        """Per searched coloring: (((source color, over color), summed sign), ...),
        in order of first occurrence.  A pair is counted on the int key
        source * n + over and turned back into a tuple once."""
        if mode not in self._searched_counts:
            n = self.X.n
            crossings = self.engine.signed_roles(mode)
            rows = []
            for rho in self.searched:
                counts = {}
                for s, src, over, _ in crossings:
                    key = rho[src] * n + rho[over]
                    counts[key] = counts.get(key, 0) + s
                rows.append(tuple(zip(map(divmod, counts, repeat(n)), counts.values())))
            self._searched_counts[mode] = rows
        return self._searched_counts[mode]

    def state_sum(self, phi, mode):
        """The invariant on this table: its weights as a GroupRingValue,
        summed orbit by orbit over the searched colorings."""
        values = phi.values
        weights = []
        for counts, gs in zip(self.searched_counts(mode), self.carriers):
            for g in gs:
                if g is None:
                    weights.append(sum(m * values[a][b] for (a, b), m in counts))
                else:
                    weights.append(sum(m * values[g[a]][g[b]] for (a, b), m in counts))
        return GroupRingValue.from_values(phi.coeff, weights)


def coloring_table(engine, X):
    """The colorings of the engine's diagram by X, as orbits.

    An iterative depth-first search over the engine's schedule: each level
    tries every element on its branch arc and runs the level's steps as
    plain lookups, each in the table its kind names, stopping at the first
    failed check.  The first level tries only the representatives of X's
    orbit plan; a coloring g∘rho is a coloring for every automorphism g, so
    the plan's g with g[r] == c carries the colorings found at r to those
    at c.  A level only reads arcs colored at or before it, so nothing is
    ever uncolored.  The cost is about representatives × n^(branches-1)
    leaves times the crossings, where n is the order of X and branches the
    schedule's length; a T(2, m) code compiles to two branch arcs whatever
    m is.
    """
    op, n = X.table, X.n
    tables = (op, X.dual_table, None)  # indexed by FORWARD, BACKWARD and CHECK
    levels = [
        (arc, [(tables[kind], x, o, y) for kind, x, o, y in steps])
        for arc, steps in engine.schedule
    ]
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
        for table, x, o, y in steps:
            if table is None:
                if op[colors[x]][colors[o]] != colors[y]:
                    break
            else:
                colors[y] = table[colors[x]][colors[o]]
        else:
            depth += 1
    images = [[] for _ in range(n)]  # per representative: the automorphisms to its orbit
    for r, g in plan:
        images[r].append(g)
    return ColoringTable(engine, X, nodes, found, [images[rho[first]] for rho in found])


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

    A strand passes over a crossing through its odd ends (numbered as in
    ``PDDiagram.partner``), so an edge whose two ends s and partner[s] are
    both odd joins consecutive crossings of one run, and their signs must
    differ.  These are the edges that the strand walk of
    ``PDDiagram.alternating``, from an arrival at t to the next arrival at
    partner[t ^ 2], crosses between two over-passages; either end of an
    edge names it, so no orientation is read.  The pair across the ends of
    a closed all-over run is one of them.  An edge joining a crossing's two
    over-ends closes a run of one crossing, and has no pair to check.
    """
    eps = engine.eps
    return not any(
        s & u & 1 and u != s ^ 2 and eps[s >> 2] == eps[u >> 2]
        for s, u in enumerate(engine.diagram.partner)
    )


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


def triviality_certificate(X, engines, mode, coeff):
    """(passes, cocycles): is every weight of every coloring of the engines'
    diagrams by X zero under every mode-cocycle over coeff, and how many
    cocycles would ``cocycle_basis(X, mode, coeff)`` return?

    A coloring's weight under phi is the pairing of phi with its pair-count
    vector W, so all weights vanish exactly when every W lies in the span
    of the columns of the degree-3 quandle boundary: the Q-span over Z
    (equal ranks), the Z/m-span over Z/m (equal sizes, the product of
    m/gcd(d, m) over the elementary divisors d; appending vectors never
    shrinks a span).  The cocycle count is c2 - rank d3 = rank d2 + b2, and
    over Z/m one more per divisor of d3 sharing a factor with m.

    A theorem answers first where one applies, and then no coloring is
    searched and no boundary is built.  Its premise is a fact about each
    engine's diagram, ``DiagramEngine.premise``: every W of every coloring
    is a 2-cycle of the mode, and in minus mode the diagram is a knot.
    - plus mode, over Z or over Z/m with gcd(m, 2g) = 1, for g the gcd of
      the orbit sizes.  2g kills plus H_2 (``homology``), so 2g W is a
      boundary and every weight vanishes; the count is n - 1;
    - minus mode over Z.  A knot's colors generate a connected subquandle
      Y, so W is a cycle of Y's quandle complex, where b2 = 0, and a
      multiple of W is a boundary; the count is n + o^2 - 2o for o orbits.
    A premise that fails (a link in minus mode, a broken sign), or a table
    that fails the quandle axioms, falls through to the elimination, which
    gives the same answer wherever a theorem applies.

    Only the elimination searches colorings, and it reads only the searched
    ones' W's.  The boundary commutes with every automorphism g, so g maps
    the span of its columns onto itself, over Q and over Z/m; W(g∘rho) =
    g·W(rho) then passes exactly when W(rho) does.  Neither answer changes
    under relabeling, and no basis is built.
    """
    if mode not in MODES:
        raise ValueError("mode must be 'minus' or 'plus'")
    if coeff.kind == "Q":
        raise ValueError("certificates are computed over Z or Z/m")
    count = _theorem_count(X, mode, coeff)
    if count == 0:
        # like a sweep over an empty basis, check no premise: plus mode
        # needs the faces, which a disconnected code lacks
        return True, 0
    if count is not None and all(engine.premise(mode) for engine in engines):
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
    for engine in engines:
        for counts in coloring_table(engine, X).searched_counts(mode):
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
