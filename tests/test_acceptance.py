"""The package's advertised guarantees, each pinned by one test.

Everything here runs the real pipeline end to end: full quandle enumeration,
exact integer linear algebra, diagram combinatorics, and the state-sum
sweeps.  Randomized identities use fixed seeds.
"""

import random

from cochains import coboundary_of, vector, zero
from coloring_oracle import (
    contribution,
    exhaustive_colorings,
    pairwise_lemma_scan,
    plus_class_lemmas,
    sweep_cells,
)
from test_chains import NON_QUANDLE_ROWS, identity_failures

from quandlekit.chains import boundary_columns
from quandlekit.diagrams import CORPUS_NAMES, arcs, checkerboard, named_diagram, signs
from quandlekit.homology import (
    ZZ,
    AbelianGroupDescriptor,
    Cochain2,
    Zm,
    cocycle_basis,
    homology_group,
)
from quandlekit.invariants import (
    DiagramEngine,
    check_eps_alternation,
    coloring_table,
    enumerate_colorings,
    is_trivial,
    state_sum,
)
from quandlekit.linalg import elementary_divisors
from quandlekit.quandles import (
    QuandleTable,
    class_representatives,
    dihedral_quandle,
    enumerate_quandles,
    orbits,
)

ALL_ORDER_LE_4 = [X for n in range(1, 5) for X in enumerate_quandles(n)]
KNOTS = ("trefoil", "figure8", "5_1", "5_2", "trefoil_kinked")
KNOT_CORPUS = KNOTS + ("figure8_kinked",)


def test_full_enumeration_size():
    # 1 + 1 + 5 + 36 labeled tables; everything below sweeps all of them
    assert len(ALL_ORDER_LE_4) == 43


def test_boundary_identities_for_every_small_quandle():
    # d1d1 = d2d2 = d1d2 + d2d1 = 0 on every generator of degrees 2..4, and
    # every degenerate boundary stays in the degenerate span
    for X in ALL_ORDER_LE_4:
        assert identity_failures(X, 4) == {}
    # a table satisfying only the first two axioms; the complex must detect it
    assert identity_failures(QuandleTable(NON_QUANDLE_ROWS), 3)


def test_rack_betti_numbers_are_orbit_count_powers():
    # ranks straight from the boundary columns: cohomology_group over Q
    # reads the Betti numbers from the orbit count itself
    for X in ALL_ORDER_LE_4 + [dihedral_quandle(5), dihedral_quandle(6)]:
        r = orbits(X).count
        ranks = [elementary_divisors(boundary_columns(X, n, "minus")[2])[0] for n in (1, 2, 3)]
        for n in (1, 2):
            assert X.n**n - ranks[n - 1] - ranks[n] == r**n


def test_degenerate_h2_is_free_on_the_orbits():
    for X in ALL_ORDER_LE_4 + [dihedral_quandle(5), dihedral_quandle(6)]:
        got = homology_group(X, "degenerate", "minus", 2, ZZ)
        assert got == AbelianGroupDescriptor(orbits(X).count, ())


def test_connected_quandles_have_no_rational_h2():
    connected = [X for X in ALL_ORDER_LE_4 if orbits(X).connected]
    assert len(connected) == 4  # orders 1, 3, and two of order 4
    for X in connected:
        # ranks straight from the boundary columns, as above
        built = [boundary_columns(X, n, "minus", "quandle") for n in (2, 3)]
        r2, r3 = (elementary_divisors(cols)[0] for _, _, cols in built)
        assert len(built[0][0]) - r2 - r3 == 0


def test_minus_state_sums_trivial_on_all_knots():
    cells = sweep_cells(ALL_ORDER_LE_4, KNOTS, ZZ, "minus")
    assert all(e.trivial for e in cells)
    for e in cells:
        # not just trivial in aggregate: every single coloring contributes 0
        assert e.invariant.counts == ((0, e.colorings),)


def test_plus_state_sums_trivial_on_all_knots():
    cells = sweep_cells(ALL_ORDER_LE_4, KNOTS, ZZ, "plus")
    assert all(e.trivial for e in cells)
    for e in cells:
        assert e.invariant.counts == ((0, e.colorings),)


def test_translation_identities_across_the_plus_sweep():
    # over Z every plus weight is 0, so both lemmas hold on values; the test
    # below checks them where they have content, on homology classes
    for X in ALL_ORDER_LE_4:
        basis = cocycle_basis(X, "plus", ZZ)
        for name in KNOTS:
            d = named_diagram(name)
            expected_pairs = len(enumerate_colorings(d, X)) * X.n
            for phi in basis:
                assert pairwise_lemma_scan(d, X, phi) == (expected_pairs, (), ())


def test_translation_lemmas_hold_on_plus_homology_classes():
    # Lemmas 4.1 and 4.2 on classes: W(rho*a) + W(rho) and W(rho*a) - W(rho)
    # are integral plus boundaries, so 2[W+] = 0, on every class of order
    # <= 6 with the corpus knots.  The pinned counts keep the check from
    # going vacuous: 240 colorings have [W+] != 0
    engines = [DiagramEngine(named_diagram(name)) for name in KNOT_CORPUS]
    totals = [0, 0, 0]
    for order in range(1, 7):
        for X, _ in class_representatives(order):
            *counts, holds = plus_class_lemmas(X, [coloring_table(e, X) for e in engines])
            assert holds, X.table
            totals = [t + c for t, c in zip(totals, counts)]
    assert totals == [4128, 23232, 240]


def test_shading_sign_structure_on_the_corpus():
    rng = random.Random(8141)
    X = dihedral_quandle(3)
    for name in CORPUS_NAMES:
        d = named_diagram(name)
        assert check_eps_alternation(DiagramEngine(d))
        sg = signs(d, checkerboard(d))
        if d.alternating and d.n_crossings:
            assert len(set(sg.eps)) == 1
        # eps * (psi(source) + psi(target) - 2 psi(over)) summed over the
        # crossings is the plus weight of the coboundary of psi
        for rho in enumerate_colorings(d, X):
            for _ in range(100):
                psi = [rng.randrange(-20, 21) for _ in range(X.n)]
                assert contribution(d, rho, coboundary_of(X, psi, "plus"), "plus", sg) == 0


def test_cohomologous_cocycles_give_equal_state_sums():
    rng = random.Random(90210)
    small = [X for n in range(1, 4) for X in enumerate_quandles(n)]
    assert len(small) == 7
    for X in small:
        for mode in ("minus", "plus"):
            base = list(cocycle_basis(X, mode, ZZ)) or [zero(X.n)]
            for _ in range(20):
                psi = [rng.randrange(-6, 7) for _ in range(X.n)]
                delta = coboundary_of(X, psi, mode)
                for phi in base:
                    shifted = Cochain2.from_vector(X.n, map(sum, zip(vector(phi), vector(delta))))
                    for name in ("trefoil", "figure8"):
                        d = named_diagram(name)
                        assert state_sum(d, X, shifted, mode) == state_sum(d, X, phi, mode)


def test_kinked_codes_give_identical_values():
    pairs = [("trefoil", "trefoil_kinked"), ("figure8", "figure8_kinked")]
    seen_nontrivial = False
    for coeff in (ZZ, Zm(2)):
        for mode in ("minus", "plus"):
            for X in ALL_ORDER_LE_4:
                for phi in cocycle_basis(X, mode, coeff):
                    for plain, kinked in pairs:
                        a = state_sum(named_diagram(plain), X, phi, mode)
                        b = state_sum(named_diagram(kinked), X, phi, mode)
                        assert a == b
                        if not is_trivial(a):
                            seen_nontrivial = True
    # the mod-2 rounds must have exercised genuinely nonzero values
    assert seen_nontrivial


def test_mod2_minus_sweep_finds_a_nontrivial_value():
    cells = sweep_cells(ALL_ORDER_LE_4, ["trefoil"], Zm(2), "minus")
    bad = [e for e in cells if not e.trivial]
    assert bad
    for e in bad:
        assert not is_trivial(e.invariant)
        assert any(v for v, _ in e.invariant.counts)


def test_links_are_separated_from_unlinks():
    from quandlekit.quandles import trivial_quandle

    T2 = trivial_quandle(2)
    hopf = named_diagram("hopf")
    un2 = named_diagram("unlink2")
    separating = [
        phi
        for phi in cocycle_basis(T2, "minus", ZZ)
        if state_sum(hopf, T2, phi, "minus") != state_sum(un2, T2, phi, "minus")
    ]
    assert separating

    bor = named_diagram("borromean")
    un3 = named_diagram("unlink3")
    found = any(
        state_sum(bor, X, phi, "plus") != state_sum(un3, X, phi, "plus")
        for X in ALL_ORDER_LE_4
        for phi in cocycle_basis(X, "plus", Zm(2))
    )
    assert found


def test_odd_modulus_plus_sweep_is_fully_trivial():
    cells = sweep_cells(ALL_ORDER_LE_4, KNOT_CORPUS, Zm(3), "plus")
    assert all(e.trivial for e in cells)
    assert cells


def test_backtracking_matches_the_exhaustive_scan():
    small_diagrams = [n for n in CORPUS_NAMES if len(arcs(named_diagram(n))) <= 4]
    assert sorted(small_diagrams) == [
        "figure8",
        "hopf",
        "trefoil",
        "trefoil_kinked",
        "unlink2",
        "unlink3",
    ]
    for name in small_diagrams:
        d = named_diagram(name)
        for X in ALL_ORDER_LE_4:
            assert enumerate_colorings(d, X) == exhaustive_colorings(d, X)
