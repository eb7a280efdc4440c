"""Tables, axioms, orbits, constructors, enumeration."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from class_search import (
    _least_relabeling,
    _relabelings,
    canonical_classes,
    least_with_cycle_type,
    search_representatives,
)
from quandlekit.quandles import (
    MalformedTableError,
    QuandleTable,
    class_representatives,
    dihedral_quandle,
    enumerate_quandles,
    isomorphic_tables,
    load_quandle_file,
    orbits,
    rows_from_doc,
    trivial_quandle,
    validate_quandle,
)

D3_ROWS = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def brute_force_is_quandle(rows):
    """Oracle: check the axioms straight from their statements."""
    n = len(rows)
    if any(rows[a][a] != a for a in range(n)):
        return False
    for b in range(n):
        if sorted(rows[a][b] for a in range(n)) != list(range(n)):
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[rows[a][c]][rows[b][c]]:
                    return False
    return True


def test_d3_is_a_quandle():
    report = validate_quandle(D3_ROWS)
    assert report.valid
    assert report.violations == ()


def test_dihedral_matches_frozen_d3_rows():
    assert [list(r) for r in dihedral_quandle(3).table] == D3_ROWS


def test_axiom_violations_are_reported_with_witnesses():
    rows = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]  # columns not bijective
    report = validate_quandle(rows)
    assert not report.valid
    assert any(v.axiom == 2 for v in report.violations)
    # idempotence violation
    rows = [[1, 1], [0, 0]]
    report = validate_quandle(rows)
    assert any(v.axiom == 1 for v in report.violations)


def test_structural_errors_raise_not_report():
    with pytest.raises(MalformedTableError):
        validate_quandle([[0, 1], [1]])
    with pytest.raises(MalformedTableError):
        validate_quandle([[0, 2], [2, 1]])  # entry out of range
    with pytest.raises(MalformedTableError):
        validate_quandle([])


def test_dual_undoes_the_operation():
    for q in (dihedral_quandle(5), trivial_quandle(4)):
        d = QuandleTable(q.dual_table)
        assert validate_quandle([list(r) for r in d.table]).valid
        for a in range(q.n):
            for b in range(q.n):
                assert d.op(q.op(a, b), b) == a
                assert q.op(d.op(a, b), b) == a
        assert d.dual_table == q.table


def test_trivial_and_dihedral_families_are_quandles():
    for n in range(1, 8):
        assert brute_force_is_quandle([list(r) for r in trivial_quandle(n).table])
        assert brute_force_is_quandle([list(r) for r in dihedral_quandle(n).table])


def test_orbits_dihedral_even_odd_split():
    part = orbits(dihedral_quandle(4))
    assert part.blocks == ((0, 2), (1, 3))
    assert part.orbit_of == (0, 1, 0, 1)
    assert not part.connected
    assert orbits(dihedral_quandle(3)).connected
    assert orbits(trivial_quandle(3)).count == 3


def test_orbit_subquandle_is_closed_and_valid():
    q = dihedral_quandle(6)
    part = orbits(q)
    emb = part.blocks[part.orbit_of[0]]
    assert emb == (0, 2, 4)
    index = {x: i for i, x in enumerate(emb)}  # a KeyError if not closed
    sub = QuandleTable(tuple(tuple(index[q.op(x, y)] for y in emb) for x in emb))
    assert brute_force_is_quandle([list(r) for r in sub.table])
    for i, x in enumerate(emb):
        for j, y in enumerate(emb):
            assert emb[sub.op(i, j)] == q.op(x, y)


def closure_orbits(q):
    """Oracle: the closure of each element under every right translation
    x -> x*y and its inverse, as sorted blocks sorted by least element."""
    n, op = q.n, q.table
    blocks = []
    for start in range(n):
        if any(start in block for block in blocks):
            continue
        seen, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for y in range(n):
                for z in [op[x][y]] + [a for a in range(n) if op[a][y] == x]:
                    if z not in seen:
                        seen.add(z)
                        frontier.append(z)
        blocks.append(tuple(sorted(seen)))
    return tuple(blocks)


def test_orbits_match_the_closure_on_every_quandle_of_order_le_6():
    for n in range(1, 7):
        for X in enumerate_quandles(n):
            blocks = closure_orbits(X)
            orbit_of = tuple(i for c in range(n) for i, b in enumerate(blocks) if c in b)
            assert orbits(X) == (blocks, orbit_of)


def exhaustive_quandles(n):
    """Oracle: filter every function table (only feasible for n <= 3)."""
    out = []
    for values in itertools.product(range(n), repeat=n * n):
        rows = [list(values[i * n:(i + 1) * n]) for i in range(n)]
        if brute_force_is_quandle(rows):
            out.append(tuple(tuple(r) for r in rows))
    return sorted(out)


def labelled_quandles(n):
    """Oracle: every labelled table by a plain column search, sorted.

    The column for b is a permutation fixing b, and a stack of columns is
    pruned by every axiom 3 instance, sigma_c . sigma_b ==
    sigma_{sigma_c(b)} . sigma_c, whose three columns are placed.
    """
    candidates = [[p for p in itertools.permutations(range(n)) if p[b] == b] for b in range(n)]
    cols = []
    found = []

    def consistent_with(k):
        for b in range(k + 1):
            for c in range(k + 1):
                bc = cols[c][b]
                if bc > k or k not in (b, c, bc):
                    continue
                sc, sb, sbc = cols[c], cols[b], cols[bc]
                if any(sc[sb[a]] != sbc[sc[a]] for a in range(n)):
                    return False
        return True

    def extend():
        k = len(cols)
        if k == n:
            found.append(tuple(tuple(cols[b][a] for b in range(n)) for a in range(n)))
            return
        for p in candidates[k]:
            cols.append(p)
            if consistent_with(k):
                extend()
            cols.pop()

    extend()
    return sorted(found)


def canonical_form(table):
    """Oracle: the row-major least relabeling, over every relabeling."""
    n = len(table)
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for a, pa in enumerate(perm):
            inv[pa] = a
        cand = tuple(tuple(perm[table[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
        if best is None or cand < best:
            best = cand
    return best


def test_enumeration_matches_exhaustive_scan_small_orders():
    for n in (1, 2, 3):
        assert [q.table for q in enumerate_quandles(n)] == exhaustive_quandles(n)
        assert labelled_quandles(n) == exhaustive_quandles(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_the_labelled_search(n):
    assert [q.table for q in enumerate_quandles(n)] == labelled_quandles(n)


def test_enumeration_iso_class_counts():
    assert len(enumerate_quandles(1, dedupe_iso=True)) == 1
    assert len(enumerate_quandles(2, dedupe_iso=True)) == 1
    assert len(enumerate_quandles(3, dedupe_iso=True)) == 3
    assert len(enumerate_quandles(4, dedupe_iso=True)) == 7


def test_enumeration_order_4_all_valid_and_deduped_consistently():
    raw = enumerate_quandles(4)
    assert all(brute_force_is_quandle([list(r) for r in q.table]) for q in raw)
    classes = enumerate_quandles(4, dedupe_iso=True)
    raw_forms = {canonical_form(q.table) for q in raw}
    for q in classes:
        assert canonical_form(q.table) in raw_forms
    # every raw table is isomorphic to exactly one representative
    forms = [canonical_form(rep.table) for rep in classes]
    for q in raw[:20]:
        assert forms.count(canonical_form(q.table)) == 1


def automorphism_count(X):
    return sum(X.relabeled(p).table == X.table for p in itertools.permutations(range(X.n)))


@pytest.mark.parametrize("n,classes,labelled", [(1, 1, 1), (2, 1, 1), (3, 3, 5), (4, 7, 36), (5, 22, 404)])
def test_quandle_classes_sizes_are_orbit_sizes(n, classes, labelled):
    found = class_representatives(n)
    assert len(found) == classes
    assert sum(size for _, size in found) == labelled == len(enumerate_quandles(n))
    for X, size in found:
        # orbit-stabilizer: the class has n!/|Aut X| labelled tables
        assert size * automorphism_count(X) == math.factorial(n)
        orbit = [Y.table for Y in isomorphic_tables(X)]
        assert len(orbit) == size and orbit == sorted(orbit)
        assert {canonical_form(t) for t in orbit} == {X.table}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_representatives_are_the_canonical_forms(n):
    # oracle: the least relabeling of every labelled table, by brute force;
    # each form stands for its class, and the tables that share it are the
    # orbit, so the checked-in table lists each form with its orbit size
    labelled = labelled_quandles(n)
    forms = [canonical_form(t) for t in labelled]
    orbit_sizes = collections.Counter(forms)
    assert [(X.table, size) for X, size in class_representatives(n)] == sorted(orbit_sizes.items())
    # the early-exit pass that canonicalizes the search finds the same least tables
    assert [_least_relabeling(t, _relabelings(n)) for t in labelled] == forms


def test_order_6_classes():
    found = class_representatives(6)
    assert len(found) == 73
    assert sum(size for _, size in found) == 6658 == len(enumerate_quandles(6))
    for X, _ in found:
        assert validate_quandle(X.table).valid
        # each representative is its own brute canonical form, and they are
        # distinct, so no two are isomorphic
        assert canonical_form(X.table) == X.table
    assert len({X.table for X, _ in found}) == 73
    for X, size in random.Random(6).sample(found, 8):
        assert size * automorphism_count(X) == math.factorial(6)


def cycle_lengths(p):
    """Oracle: the sorted cycle lengths of p, by following each point."""
    cycles = []
    for a in range(len(p)):
        if all(a not in cycle for cycle in cycles):
            cycle = [a]
            while p[cycle[-1]] != a:
                cycle.append(p[cycle[-1]])
            cycles.append(cycle)
    return tuple(sorted(map(len, cycles)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_least_permutation_of_each_cycle_type(n):
    # oracle: the minimum of every permutation fixing 0, type by type
    brute = {}
    for p in itertools.permutations(range(n)):
        if p[0] == 0:
            t = cycle_lengths(p)
            brute[t] = min(brute.get(t, p), p)
    for t, p in brute.items():
        assert least_with_cycle_type(t) == p


def columns(table):
    return tuple(zip(*table))


@functools.cache
def column_major_classes(n):
    """Oracle: each relabeling class of the labelled tables, as its
    column-major least table and its size, in column-major order."""
    seen, found = set(), []
    for t in labelled_quandles(n):
        if t in seen:
            continue
        orbit = {QuandleTable(t).relabeled(p).table for p in itertools.permutations(range(n))}
        seen |= orbit
        found.append((min(orbit, key=columns), len(orbit)))
    return sorted(found, key=lambda item: columns(item[0]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_search_representatives_are_the_column_major_least_tables(n):
    found = search_representatives(n)
    assert [(X.table, size) for X, size in found] == column_major_classes(n)
    for X, size in found:
        assert size * automorphism_count(X) == math.factorial(n)


def test_order_6_representatives():
    found = search_representatives(6)
    assert len(found) == 73
    assert sum(size for _, size in found) == 6658
    assert [columns(X.table) for X, _ in found] == sorted(columns(X.table) for X, _ in found)
    # the row-major pass turns them into the deduplicated tables
    forms = [table for table, _ in canonical_classes(6)]
    assert forms == [X.table for X in enumerate_quandles(6, dedupe_iso=True)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_class_table_is_the_search(n):
    # the checked-in table, line by line, against the search that made it,
    # each table turned into its row-major least relabeling, sorted
    assert [(X.table, size) for X, size in class_representatives(n)] == list(canonical_classes(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_table_matches_the_column_major_oracle(n):
    # the checked-in table lists the oracle's classes with the oracle's sizes:
    # each row-major representative, turned into the column-major least table
    # of its class, gives the oracle's entry
    def column_least(t):
        return min((QuandleTable(t).relabeled(p).table for p in itertools.permutations(range(n))), key=columns)

    found = [(column_least(X.table), size) for X, size in class_representatives(n)]
    assert sorted(found, key=lambda item: columns(item[0])) == column_major_classes(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_deduplicated_enumeration_is_the_class_table(n):
    assert enumerate_quandles(n, dedupe_iso=True) == [X for X, _ in class_representatives(n)]


def test_class_table_counts_and_sizes():
    # OEIS A181771 counts the classes; the sizes add up to the labelled tables
    tables = [class_representatives(n) for n in range(1, 7)]
    assert [len(found) for found in tables] == [1, 1, 3, 7, 22, 73]
    assert [sum(size for _, size in found) for found in tables] == [1, 1, 5, 36, 404, 6658]
    for n, found in enumerate(tables, 1):
        assert all(validate_quandle(X.table).valid and X.n == n for X, _ in found)
    for X, size in random.Random(7).sample(tables[5], 8):
        assert size * automorphism_count(X) == math.factorial(6)
    # each call builds a new list, so a caller's edit does not reach the next
    class_representatives(3).clear()
    assert len(class_representatives(3)) == 3


def test_enumeration_rejects_out_of_range_orders():
    for n in (0, 7):
        with pytest.raises(ValueError):
            enumerate_quandles(n)
        with pytest.raises(ValueError):
            enumerate_quandles(n, dedupe_iso=True)
        with pytest.raises(ValueError):
            class_representatives(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9))
def test_dihedral_odd_orders_are_connected(n):
    part = orbits(dihedral_quandle(n))
    if n % 2 == 1:
        assert part.connected
    else:
        assert part.count == 2 or n == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.randoms(use_true_random=False))
def test_relabeling_preserves_validity_and_iso_class(n, rng):
    q = dihedral_quandle(n)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = q.relabeled(perm)
    assert brute_force_is_quandle([list(r) for r in relabeled.table])
    assert canonical_form(relabeled.table) == canonical_form(q.table)


def test_table_documents_round_trip(tmp_path):
    rows, labels = rows_from_doc({"n": 3, "table": D3_ROWS, "labels": ["a", "b", "c"]})
    assert rows == tuple(tuple(r) for r in D3_ROWS)
    assert labels == ("a", "b", "c")
    with pytest.raises(MalformedTableError):
        rows_from_doc({"n": 4, "table": D3_ROWS})
    with pytest.raises(MalformedTableError):
        rows_from_doc({"table": D3_ROWS, "labels": ["a"]})
    p = tmp_path / "q.json"
    p.write_text('{"n": 3, "table": [[0,2,1],[2,1,0],[1,0,2]]}')
    rows, labels = load_quandle_file(p)
    assert rows == tuple(tuple(r) for r in D3_ROWS) and labels is None
    p.write_text("{not json")
    with pytest.raises(MalformedTableError):
        load_quandle_file(p)


def test_involutory_flag():
    assert dihedral_quandle(5).is_involutory
    assert trivial_quandle(3).is_involutory
    gf4 = QuandleTable(((0, 3, 1, 2), (2, 1, 3, 0), (3, 0, 2, 1), (1, 2, 0, 3)))
    assert validate_quandle(gf4.table).valid
    assert not gf4.is_involutory
