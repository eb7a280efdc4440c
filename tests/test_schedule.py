"""The compiled coloring schedule, checked against exhaustive scans and
against link invariance on generated braid closures."""

import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braids import braid_words, closure_crossings, pd_text, torus_2
from coloring_oracle import pair_counts, weights
from quandlekit.diagrams import CORPUS_NAMES, named_diagram, parse_pd
from quandlekit.invariants import (
    BACKWARD,
    CHECK,
    FORWARD,
    DiagramEngine,
    GroupRingValue,
    coloring_table,
)
from quandlekit.homology import ZZ, Cochain2, Zm
from quandlekit.quandles import (
    QuandleTable,
    class_representatives,
    dihedral_quandle,
    enumerate_quandles,
    orbits,
)
from test_invariants import NOT_A_QUANDLE
from test_quandles import closure_orbits

ORDER_LE_4 = [X for n in range(1, 5) for X in enumerate_quandles(n)]
R3, R5 = dihedral_quandle(3), dihedral_quandle(5)
# a labelling of the tetrahedral quandle, the first connected one of order 4
Q4 = next(X for X in enumerate_quandles(4) if orbits(X).connected)
# R3 with two fixed points that act trivially: orbits {0, 1, 2}, {3}, {4}
R3_T2 = QuandleTable(((0, 2, 1, 0, 0), (2, 1, 0, 1, 1), (1, 0, 2, 2, 2), (3,) * 5, (4,) * 5))
# closures of up to six arcs, knots and links: trefoil, figure-eight, T(2, 4)
CLOSURES = ([1, 1, 1], 2), ([1, -2, 1, -2], 3), ([1, 1, 1, 1], 2), ([1, 2, 1, 2], 3), \
    ([1, 1, 2, -1, 2], 3), ([1, -2, 3, 1, 2, 3], 4)


def exhaustive_colorings(engine, X):
    """Oracle: every arc assignment, kept when each crossing's relation holds."""
    op = X.table
    return [
        combo
        for combo in itertools.product(range(X.n), repeat=engine.arc_count)
        if all(op[combo[src]][combo[over]] == combo[tgt] for src, over, tgt, _ in engine.roles)
    ]


def closure_engine(word, strands):
    return DiagramEngine(parse_pd(pd_text(closure_crossings(word, strands))))


def count(engine, X):
    return len(coloring_table(engine, X).colorings)


# --- the schedule's shape ----------------------------------------------------


def assert_well_formed(engine):
    """Each crossing is one step; each arc is colored once, before any read."""
    colored = set()
    steps = []
    for branch, level in engine.schedule:
        assert branch not in colored
        colored.add(branch)
        for kind, x, o, y in level:
            assert kind in (FORWARD, BACKWARD, CHECK)
            assert {x, o} <= colored
            if kind == CHECK:
                assert y in colored
            else:
                assert y not in colored
                colored.add(y)
            steps.append((y, o, x) if kind == BACKWARD else (x, o, y))
    assert colored == set(range(engine.arc_count))
    assert sorted(steps) == sorted((src, over, tgt) for src, over, tgt, _ in engine.roles)


def test_corpus_schedules_are_well_formed():
    for name in CORPUS_NAMES:
        assert_well_formed(DiagramEngine(named_diagram(name)))


@given(braid_words(max_strands=5, max_extra=12))
@settings(max_examples=60, deadline=None)
def test_closure_schedules_are_well_formed(sw):
    assert_well_formed(closure_engine(sw[1], sw[0]))


@given(st.integers(2, 120), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_every_torus_2n_schedule_has_two_branch_arcs(n, rnd):
    # whatever the edge numbering: one arc and a neighbour force the rest
    crossings = torus_2(n)
    perm = list(range(1, 2 * n + 1))
    rnd.shuffle(perm)
    relabeled = [tuple(perm[e - 1] for e in t) for t in crossings]
    for code in (crossings, relabeled):
        engine = DiagramEngine(parse_pd(pd_text(code)))
        assert len(engine.schedule) == 2
        assert_well_formed(engine)


def test_crossingless_components_each_take_a_level():
    engine = DiagramEngine(parse_pd(" ".join("O[%d]" % k for k in range(1, 51))))
    assert [branch for branch, _ in engine.schedule] == list(range(50))
    table = coloring_table(engine, ORDER_LE_4[0])
    assert (len(table.colorings), table.branches, table.nodes) == (1, 50, 50)


# --- against the exhaustive scan -----------------------------------------------


def test_colorings_match_the_exhaustive_scan_on_the_corpus():
    for name in CORPUS_NAMES:
        engine = DiagramEngine(named_diagram(name))
        for X in ORDER_LE_4:
            assert coloring_table(engine, X).colorings == exhaustive_colorings(engine, X)


@given(braid_words(max_strands=4, max_extra=4), st.sampled_from(ORDER_LE_4))
@settings(max_examples=80, deadline=None)
def test_closure_colorings_match_the_exhaustive_scan(sw, X):
    engine = closure_engine(sw[1], sw[0])
    assume(engine.arc_count <= 6)
    assert coloring_table(engine, X).colorings == exhaustive_colorings(engine, X)


def test_closure_colorings_match_the_exhaustive_scan_on_every_order_le_4_quandle():
    for word, strands in CLOSURES:
        engine = closure_engine(word, strands)
        for X in ORDER_LE_4 + [R3_T2]:
            assert coloring_table(engine, X).colorings == exhaustive_colorings(engine, X)


# --- colorings carried along Inn(X)-orbits ---------------------------------------


def direct_pair_counts(engine, rho, mode):
    """Oracle: one coloring's signed (source color, over color) counts, crossing
    by crossing."""
    signs = [w for *_, w in engine.roles] if mode == "minus" else engine.eps
    counts = {}
    for s, (src, over, _, _) in zip(signs, engine.roles):
        counts[rho[src], rho[over]] = counts.get((rho[src], rho[over]), 0) + s
    return counts


def test_orbit_plan_entries_are_automorphisms_onto_each_color():
    for X in ORDER_LE_4 + [R3, R5, R3_T2]:
        n, op = X.n, X.table
        blocks = closure_orbits(X)
        for c, (r, g) in enumerate(X.orbit_plan):
            assert r == next(b for b in blocks if c in b)[0]
            if g is None:
                assert c == r
                continue
            assert sorted(g) == list(range(n)) and g[r] == c
            assert all(g[op[x][y]] == op[g[x]][g[y]] for x in range(n) for y in range(n))


def test_a_table_without_inner_automorphisms_tries_every_first_arc_color():
    # every column of NOT_A_QUANDLE is a bijection, but only the identity
    # column preserves its operation
    assert NOT_A_QUANDLE.orbit_plan == tuple((c, (0, 1, 2, 3)) for c in range(4))
    # so orbits follows the plan, not the closure under every translation
    assert orbits(NOT_A_QUANDLE) == (((0,), (1,), (2,), (3,)), (0, 1, 2, 3))
    assert closure_orbits(NOT_A_QUANDLE) == ((0, 1, 2, 3),)
    for name in CORPUS_NAMES:
        engine = DiagramEngine(named_diagram(name))
        table = coloring_table(engine, NOT_A_QUANDLE)
        assert table.first_arc_colors == 4
        assert table.colorings == exhaustive_colorings(engine, NOT_A_QUANDLE)
    table = coloring_table(DiagramEngine(parse_pd("O[1]")), NOT_A_QUANDLE)
    assert (table.colorings, table.nodes) == ([(0,), (1,), (2,), (3,)], 4)


def test_every_carrier_is_an_automorphism_and_the_identity_comes_first():
    classes = [X for n in range(1, 5) for X, _ in class_representatives(n)]
    for name in CORPUS_NAMES:
        engine = DiagramEngine(named_diagram(name))
        for X in classes + [R5.relabeled((3, 0, 4, 1, 2))]:
            op, n = X.table, X.n
            table = coloring_table(engine, X)
            for gs in table.carriers:
                assert gs[0] == tuple(range(n))
                for g in gs:
                    assert all(g[op[a][b]] == op[g[a]][g[b]] for a in range(n) for b in range(n))
            assert table.colorings == exhaustive_colorings(engine, X)


def test_the_search_tries_one_color_per_orbit():
    engine = DiagramEngine(named_diagram("trefoil"))
    for X in ORDER_LE_4 + [R5, R3_T2]:
        table = coloring_table(engine, X)
        blocks = closure_orbits(X)
        assert table.first_arc_colors == len(blocks)
        assert sorted({rho[engine.schedule[0][0]] for rho in table.searched}) == [b[0] for b in blocks]


def test_transported_pair_counts_equal_the_direct_counts():
    for name in CORPUS_NAMES:
        engine = DiagramEngine(named_diagram(name))
        for X in ORDER_LE_4 + [R5, R3_T2]:
            table = coloring_table(engine, X)
            for mode in ("minus", "plus"):
                rows = pair_counts(table, mode)
                assert len(rows) == len(table.colorings)
                for rho, counts in zip(table.colorings, rows):
                    assert dict(counts) == direct_pair_counts(engine, rho, mode)


@given(braid_words(max_strands=4, max_extra=8), st.sampled_from(ORDER_LE_4 + [R5, R3_T2]))
@settings(max_examples=40, deadline=None)
def test_transported_closure_pair_counts_equal_the_direct_counts(sw, X):
    engine = closure_engine(sw[1], sw[0])
    table = coloring_table(engine, X)
    for mode in ("minus", "plus"):
        for rho, counts in zip(table.colorings, pair_counts(table, mode)):
            assert dict(counts) == direct_pair_counts(engine, rho, mode)


def random_cochain(X, rng, coeff=ZZ):
    """Seeded integer values off the diagonal, which a quandle cochain keeps 0."""
    n = X.n
    return Cochain2(coeff, [[rng.randint(-3, 3) * (a != b) for b in range(n)] for a in range(n)])


def assert_orbit_sums(table, phi, mode):
    """The state sum over the orbits is the multiset of the sorted
    colorings' weights, and the orbits count the colorings."""
    listed = weights(table, phi, mode)
    assert table.state_sum(phi, mode) == GroupRingValue.from_values(phi.coeff, listed)
    assert len(table) == len(table.colorings) == len(listed)


def test_state_sums_over_orbits_equal_the_sums_over_sorted_colorings():
    rng = random.Random(32)
    classes = [X for n in range(1, 5) for X, _ in class_representatives(n)]
    for name in CORPUS_NAMES:
        engine = DiagramEngine(named_diagram(name))
        for X in classes:
            table = coloring_table(engine, X)
            for mode in ("minus", "plus"):
                for coeff in (ZZ, Zm(3)):
                    assert_orbit_sums(table, random_cochain(X, rng, coeff), mode)


def test_state_sums_over_orbits_with_pair_keys_past_256():
    # R17 on T(2, 17): 17 * 17 colorings, pair keys a * 17 + b up to 288
    rng = random.Random(17)
    R17 = dihedral_quandle(17)
    table = coloring_table(DiagramEngine(parse_pd(pd_text(torus_2(17)))), R17)
    assert len(table) == 289 and len(table.searched) == 17
    pairs = [pair for counts in table.searched_counts("minus") for pair, _ in counts]
    assert max(a * 17 + b for a, b in pairs) > 256
    for mode in ("minus", "plus"):
        assert_orbit_sums(table, random_cochain(R17, rng), mode)


# --- link invariance -------------------------------------------------------------


@given(
    braid_words(max_strands=4, max_extra=8),
    st.integers(1, 3),
    st.sampled_from((1, -1)),
    st.sampled_from((1, -1)),
)
@settings(max_examples=40, deadline=None)
def test_counts_survive_conjugation_and_stabilization(sw, g, conj_sign, stab_sign):
    strands, word = sw
    g = min(g, strands - 1) * conj_sign
    base = closure_engine(word, strands)
    conjugated = closure_engine([g] + word + [-g], strands)
    rotated = closure_engine(word[1:] + word[:1], strands)
    stabilized = closure_engine(word + [stab_sign * strands], strands + 1)
    for X in (R3, R5, Q4):
        want = count(base, X)
        assert count(conjugated, X) == count(rotated, X) == count(stabilized, X) == want


def test_torus_knot_counts_follow_the_determinant():
    # T(2, n) has determinant n: R_p colors it nontrivially iff p divides n
    rng = random.Random(7)
    for n in rng.sample(range(3, 200, 2), 12):
        engine = DiagramEngine(parse_pd(pd_text(torus_2(n))))
        for p in (3, 5, 7):
            assert count(engine, dihedral_quandle(p)) == (p * p if n % p == 0 else p)
