"""One-coloring oracles for the tests.

The library weighs, translates and checks colorings a whole coloring table
at a time (``invariants.coloring_table``).  These work on one coloring at a
time, straight from the crossing roles and the signs, so the tests can hold
the engine to them.  ``sweep_cells`` lists every cell of a basis sweep over
a set of tables, with no certificate in the way.
"""

from __future__ import annotations

import itertools

from quandlekit.diagrams import arcs, checkerboard, load_diagram, signs
from quandlekit.homology import cocycle_basis
from quandlekit.invariants import (
    MODES,
    Coloring,
    DiagramEngine,
    coloring_table,
    crossing_roles,
    sweep_entries,
)


def is_valid_coloring(d, X, rho):
    ar = arcs(d)
    if len(rho) != len(ar):
        return False
    for src, over, tgt, _ in crossing_roles(d, ar):
        if X.op(rho[src], rho[over]) != rho[tgt]:
            return False
    return True


def exhaustive_colorings(d, X):
    """Every arc assignment that is a coloring, in scan order."""
    combos = itertools.product(range(X.n), repeat=len(arcs(d)))
    return [Coloring(c) for c in combos if is_valid_coloring(d, X, Coloring(c))]


def act_coloring(X, rho, a):
    """Translate every arc color by * a; stays a coloring (self-distributivity)."""
    return Coloring(tuple(X.op(c, a) for c in rho.colors))


def contribution(d, rho, phi, mode, crossing_signs=None):
    """Total weight of one coloring: sum of s(tau) * phi(source, over)."""
    if mode not in MODES:
        raise ValueError("mode must be 'minus' or 'plus'")
    sg = crossing_signs or signs(d, checkerboard(d))
    s = sg.w if mode == "minus" else sg.eps
    total = 0
    for i, (src, over, _, _) in enumerate(crossing_roles(d, arcs(d))):
        total += s[i] * phi(rho[src], rho[over])
    return phi.coeff.reduce(total)


def sweep_cells(quandles, names, coeff, mode):
    """Every (quandle, diagram, basis cocycle) cell, quandle-major."""
    engines = [(name, DiagramEngine(load_diagram(name))) for name in names]
    cells = []
    for X in quandles:
        basis = cocycle_basis(X, mode, coeff)
        for name, engine in engines:
            cells += sweep_entries(coloring_table(engine, X), name, basis, mode)
    return cells
