"""One-coloring oracles for the tests.

The library weighs, translates and checks colorings a whole coloring table
at a time (``invariants.coloring_table``).  These work on one coloring at a
time, straight from the crossing roles and the signs, so the tests can hold
the engine to them.  ``sweep_cells`` lists every cell of a basis sweep over
a set of tables, each a ``ColoringTable.state_sum`` with no certificate in
the way, and
``all_cycles_certificate`` is the triviality certificate on the cycles of
every coloring, not only of the searched ones.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from quandlekit.chains import _positions, boundary_columns
from quandlekit.diagrams import arcs, checkerboard, load_diagram, signs
from quandlekit.homology import cocycle_basis, pair_basis
from quandlekit.invariants import MODES, DiagramEngine, coloring_table, is_trivial
from quandlekit.linalg import elementary_divisors


def is_valid_coloring(d, X, rho):
    ar = arcs(d)
    if len(rho) != len(ar):
        return False
    for src, over, tgt, _ in d.roles:
        if X.op(rho[src], rho[over]) != rho[tgt]:
            return False
    return True


def exhaustive_colorings(d, X):
    """Every arc assignment that is a coloring, in scan order."""
    combos = itertools.product(range(X.n), repeat=len(arcs(d)))
    return [c for c in combos if is_valid_coloring(d, X, c)]


def act_coloring(X, rho, a):
    """Translate every arc color by * a; stays a coloring (self-distributivity)."""
    return tuple(X.op(c, a) for c in rho)


def contribution(d, rho, phi, mode, crossing_signs=None):
    """Total weight of one coloring: sum of s(tau) * phi(source, over)."""
    if mode not in MODES:
        raise ValueError("mode must be 'minus' or 'plus'")
    sg = crossing_signs or signs(d, checkerboard(d))
    s = sg.w if mode == "minus" else sg.eps
    total = 0
    for i, (src, over, _, _) in enumerate(d.roles):
        total += s[i] * phi(rho[src], rho[over])
    return phi.coeff.reduce(total)


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
        for counts in table.pair_counts(mode):
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
