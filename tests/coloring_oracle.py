"""One-coloring oracles for the tests.

The library weighs, translates and checks colorings a whole coloring table
at a time (``invariants.coloring_table``).  These work on one coloring at a
time, straight from the crossing roles and the signs, so the tests can hold
the engine to them.  ``pair_counts`` and ``weights`` list a table's pair
counts and weights per sorted coloring, the multiset that
``ColoringTable.state_sum`` sums orbit by orbit.  ``sweep_cells`` lists every cell of a basis sweep over
a set of tables, each a ``ColoringTable.state_sum`` with no certificate in
the way, and
``all_cycles_certificate`` is the triviality certificate on the cycles of
every coloring, not only of the searched ones.  ``counts_are_cycles``
checks that the searched colorings' pair counts by one quandle are
2-cycles, against the degree-2 columns of either mode, and
``generates_connected`` that a coloring's colors generate a connected
subquandle: the premises that ``DiagramEngine.premise`` checks once per
diagram.  ``pairwise_lemma_scan``
checks the translation lemmas 4.1 and 4.2 on the plus weights of one
coloring at a time, and ``plus_class_lemmas`` on plus homology classes,
where they have content: over Z a plus certificate makes every weight 0.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from quandlekit.chains import _positions, boundary_columns
from diagram_oracle import arcs
from quandlekit.diagrams import load_diagram, shading_signs
from quandlekit.homology import cocycle_basis, pair_basis
from quandlekit.invariants import (
    MODES,
    DiagramEngine,
    coloring_table,
    enumerate_colorings,
    is_trivial,
)
from quandlekit.linalg import elementary_divisors


def is_valid_coloring(d, X, rho):
    if len(rho) != len(arcs(d).arcs):
        return False
    for src, over, tgt, _ in d.roles:
        if X.op(rho[src], rho[over]) != rho[tgt]:
            return False
    return True


def exhaustive_colorings(d, X):
    """Every arc assignment that is a coloring, in scan order."""
    combos = itertools.product(range(X.n), repeat=len(arcs(d).arcs))
    return [c for c in combos if is_valid_coloring(d, X, c)]


def act_coloring(X, rho, a):
    """Translate every arc color by * a; stays a coloring (self-distributivity)."""
    return tuple(X.op(c, a) for c in rho)


def contribution(d, rho, phi, mode, eps=None):
    """Total weight of one coloring: sum of s(tau) * phi(source, over), s
    the writhe sign in minus mode and in plus mode eps, by default the
    shading signs of the default outer face."""
    if mode not in MODES:
        raise ValueError("mode must be 'minus' or 'plus'")
    if mode == "minus":
        s = [role[3] for role in d.roles]
    else:
        s = shading_signs(d) if eps is None else eps
    total = 0
    for i, (src, over, _, _) in enumerate(d.roles):
        total += s[i] * phi(rho[src], rho[over])
    return phi.coeff.reduce(total)


def pair_counts(table, mode):
    """Per coloring of ``table.colorings``: (((source color, over color),
    summed sign), ...), each g∘rho's the image under g of its searched
    rho's, carried coloring by coloring and sorted with the colorings."""
    rows = []
    for rho, counts, gs in zip(table.searched, table.searched_counts(mode), table.carriers):
        for g in gs:
            rows.append((tuple(g[c] for c in rho), tuple(((g[a], g[b]), m) for (a, b), m in counts)))
    rows.sort(key=lambda row: row[0])
    return [counts for _, counts in rows]


def weights(table, phi, mode):
    """One weight per coloring of ``table.colorings``, reduced in the
    cocycle's coefficient group."""
    return [
        phi.coeff.reduce(sum(m * phi.values[a][b] for (a, b), m in counts))
        for counts in pair_counts(table, mode)
    ]


Cell = namedtuple("Cell", "diagram colorings invariant trivial")


def table_cells(table, name, basis, mode):
    """One cell per basis cocycle on one coloring table."""
    cells = []
    for phi in basis:
        value = table.state_sum(phi, mode)
        cells.append(Cell(name, len(table.colorings), value, is_trivial(value)))
    return cells


def sweep_cells(quandles, names, coeff, mode):
    """Every (quandle, diagram, basis cocycle) cell, quandle-major."""
    engines = [(name, DiagramEngine(load_diagram(name))) for name in names]
    cells = []
    for X in quandles:
        basis = cocycle_basis(X, mode, coeff)
        for name, engine in engines:
            cells += table_cells(coloring_table(engine, X), name, basis, mode)
    return cells


def all_cycles_certificate(X, tables, mode, coeff):
    """(passes, cocycles) as ``triviality_certificate`` gives them, from the
    span test on the pair-count cycle W of every coloring in the tables."""
    cols = boundary_columns(X, 3, mode, "quandle")[2]
    rank, divisors = elementary_divisors(cols)
    cocycles = len(pair_basis(X.n)) - rank
    if coeff.kind == "Zm":
        cocycles += sum(math.gcd(d, coeff.modulus) > 1 for d in divisors)
    if not cocycles:
        return True, 0
    index = _positions(X.n, 2, "quandle")
    cycles = set()
    for table in tables:
        for counts in pair_counts(table, mode):
            w = tuple(sorted((index[a * X.n + b], c) for (a, b), c in counts if c and a != b))
            if w:
                cycles.add(w)
    if not cycles:
        return True, cocycles
    rank_w, divisors_w = elementary_divisors(cols + [dict(w) for w in sorted(cycles)])
    if coeff.kind == "Z":
        return rank_w == rank, cocycles
    m = coeff.modulus
    sizes = [math.prod(m // math.gcd(d, m) for d in ds) for ds in (divisors, divisors_w)]
    return sizes[0] == sizes[1], cocycles


def _is_cycle(cols, n, counts):
    """Do the pair counts ((a, b), m) have zero boundary under the degree-2
    rack columns of an order-n table?"""
    total = [0] * n
    for (a, b), m in counts:
        for u, c in cols[a * n + b].items():
            total[u] += m * c
    return not any(total)


def counts_are_cycles(table, mode):
    """Is the mode pair-count chain W of every searched coloring in the
    table a 2-cycle of the mode's rack complex?  In plus mode the plus
    weight of every coboundary then vanishes on every coloring in it: that
    weight is psi paired with the boundary of W, and the other colorings
    are images of the searched ones under automorphisms, which commute with
    the boundary."""
    X = table.X
    cols = boundary_columns(X, 2, mode)[2]
    return all(_is_cycle(cols, X.n, w) for w in table.searched_counts(mode))


def generates_connected(X, colors):
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


def pairwise_lemma_scan(d, X, phi):
    """Lemmas 4.1 and 4.2 pair by pair, from act_coloring and contribution:
    (pairs whose translate is a coloring, the pairs whose plus weights fail
    to cancel, those whose weights differ).  A failure is (coloring,
    element, weight, translated weight), or (coloring, element, "not a
    coloring", None) on both lists."""
    eps = shading_signs(d)
    checked, cancel, agree = 0, [], []
    for rho in enumerate_colorings(d, X):
        base = contribution(d, rho, phi, "plus", eps)
        for a in range(X.n):
            moved = act_coloring(X, rho, a)
            if not is_valid_coloring(d, X, moved):
                cancel.append((rho, a, "not a coloring", None))
                agree.append(cancel[-1])
                continue
            other = contribution(d, moved, phi, "plus", eps)
            checked += 1
            if base + other:
                cancel.append((rho, a, base, other))
            if base != other:
                agree.append((rho, a, base, other))
    return checked, tuple(cancel), tuple(agree)


def _vector(terms):
    """A sparse integer vector from (position, value) terms: sorted
    (position, summed value) pairs, zeros dropped."""
    acc = {}
    for k, m in terms:
        acc[k] = acc.get(k, 0) + m
    return tuple(sorted((k, m) for k, m in acc.items() if m))


def plus_class_lemmas(X, tables):
    """Lemmas 4.1 and 4.2 on plus homology classes over Z, on every
    coloring of the tables: (colorings, (coloring, element) pairs,
    colorings whose class [W+] is nonzero, whether W(rho*a) + W(rho),
    W(rho*a) - W(rho) and 2 W(rho) are boundaries for every pair).

    W(rho) is the coloring's plus pair counts as a quandle 2-chain, and
    W(rho*a) is W(rho) with each pair (x, y) mapped to (x*a, y*a), the pair
    counts of the translated coloring.  The boundaries L are the Z-span of
    the degree-3 plus quandle columns.  Vectors lie in L exactly when
    appending them keeps the rank and the product of the elementary
    divisors, the index of L in its saturation; the lemma vectors of the
    class go in one elimination, and each distinct W in one more."""
    n, op = X.n, X.table
    cols = boundary_columns(X, 3, "plus", "quandle")[2]
    index = _positions(n, 2, "quandle")

    def span(vectors):
        rank, divisors = elementary_divisors(cols + [dict(v) for v in sorted(vectors)])
        return rank, math.prod(divisors)

    boundaries = span(())
    colorings = pairs = 0
    cycles, lemma = {}, set()
    for table in tables:
        for counts in pair_counts(table, "plus"):
            w = _vector((index[a * n + b], m) for (a, b), m in counts if a != b)
            colorings += 1
            cycles[w] = cycles.get(w, 0) + 1
            lemma.add(tuple((k, 2 * m) for k, m in w))
            for a in range(n):
                moved = _vector((index[op[x][a] * n + op[y][a]], m) for (x, y), m in counts if x != y)
                lemma.add(_vector(moved + w))
                lemma.add(_vector(moved + tuple((k, -m) for k, m in w)))
                pairs += 1
    lemma.discard(())
    holds = span(lemma) == boundaries
    nonzero = sum(c for w, c in cycles.items() if w and span([w]) != boundaries)
    return colorings, pairs, nonzero, holds
