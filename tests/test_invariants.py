"""Colorings, contributions, state sums, and the translation lemmas."""

import random

import pytest
from braids import closure_crossings, pd_text
from cochains import coboundary_of, indicator, zero
from coloring_oracle import (
    act_coloring,
    all_cycles_certificate,
    contribution,
    exhaustive_colorings,
    is_valid_coloring,
    sweep_cells,
    table_cells,
)

from quandlekit.chains import boundary_columns
from quandlekit.diagrams import (
    CORPUS_NAMES,
    PDStructureError,
    arcs,
    checkerboard,
    faces,
    named_diagram,
    parse_pd,
    signs,
)
from quandlekit.homology import QQ, ZZ, Cochain2, Zm, cocycle_basis, pair_basis
from quandlekit.invariants import (
    MODES,
    DiagramEngine,
    GroupRingValue,
    check_eps_alternation,
    coloring_table,
    enumerate_colorings,
    is_trivial,
    state_sum,
    translation_lemmas,
    triviality_certificate,
)
from quandlekit.linalg import elementary_divisors
from quandlekit.quandles import (
    QuandleTable,
    class_representatives,
    dihedral_quandle,
    enumerate_quandles,
    orbits,
    trivial_quandle,
)

D3 = dihedral_quandle(3)
D4 = dihedral_quandle(4)
D5 = dihedral_quandle(5)
T2 = trivial_quandle(2)
ORDER_LE_3 = [X for n in (1, 2, 3) for X in enumerate_quandles(n)]
# Columns are permutations, so colorings propagate, but the operation is not
# self-distributive: some translated trefoil colorings are not colorings.
NOT_A_QUANDLE = QuandleTable(((0, 0, 0, 1), (1, 1, 3, 2), (2, 3, 2, 0), (3, 2, 1, 3)))


# --- coloring counts --------------------------------------------------------


@pytest.mark.parametrize(
    "name,X,count",
    [
        ("trefoil", D3, 9),
        ("figure8", D3, 3),
        ("5_1", D5, 25),
        ("5_2", D3, 3),
        ("hopf", T2, 4),
        ("trefoil_kinked", D3, 9),
        ("figure8_kinked", D3, 3),
    ],
)
def test_known_coloring_counts(name, X, count):
    assert len(enumerate_colorings(named_diagram(name), X)) == count


def test_trivial_quandle_counts_components():
    # constraints collapse to "constant on each component"
    for name in ("trefoil", "hopf", "borromean", "unlink3"):
        d = named_diagram(name)
        for n in (2, 3):
            X = trivial_quandle(n)
            assert len(enumerate_colorings(d, X)) == n ** len(d.components)


@pytest.mark.parametrize("name", ["trefoil", "hopf", "unlink2", "trefoil_kinked"])
@pytest.mark.parametrize("X", [T2, D3, D4], ids=["T2", "D3", "D4"])
def test_backtracking_matches_brute_force(name, X):
    d = named_diagram(name)
    assert enumerate_colorings(d, X) == exhaustive_colorings(d, X)


def test_colorings_are_valid_and_sorted():
    d = named_diagram("figure8")
    cols = enumerate_colorings(d, D5)
    assert all(is_valid_coloring(d, D5, rho) for rho in cols)
    assert all(type(rho) is tuple for rho in cols)
    assert cols == sorted(cols)


def test_act_coloring_permutes_coloring_set():
    d = named_diagram("trefoil")
    cols = enumerate_colorings(d, D3)
    for a in range(3):
        moved = {act_coloring(D3, rho, a) for rho in cols}
        assert moved == set(cols)


# --- contributions and state sums -------------------------------------------


def test_hopf_indicator_state_sum():
    # T2 with the (0,1) indicator separates the hopf link from the unlink
    phi = indicator(2, 0, 1)
    hopf = state_sum(named_diagram("hopf"), T2, phi, "minus")
    assert hopf.counts == ((-1, 2), (0, 2))
    assert not is_trivial(hopf)
    unlink = state_sum(named_diagram("unlink2"), T2, phi, "minus")
    assert unlink.counts == ((0, 4),)
    assert is_trivial(unlink)


def test_contribution_additive_in_cocycle():
    d = named_diagram("hopf")
    sg = signs(d, checkerboard(d))
    phis = [indicator(3, a, b) for a, b in [(0, 1), (1, 2), (2, 0)]]
    total = Cochain2(ZZ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for rho in enumerate_colorings(d, D3):
        parts = [contribution(d, rho, p, "minus", crossing_signs=sg) for p in phis]
        assert contribution(d, rho, total, "minus", crossing_signs=sg) == sum(parts)


def _random_cochain(rng, n):
    """A cochain that is almost never a cocycle, with entries past 64 bits."""
    rows = [[0 if a == b else rng.randrange(-(10**30), 10**30) for b in range(n)] for a in range(n)]
    return Cochain2(ZZ, rows)


def test_engine_weights_match_contribution():
    rng = random.Random(31337)
    for name in CORPUS_NAMES:
        d = named_diagram(name)
        engine = DiagramEngine(d)
        sg = signs(d, checkerboard(d))
        for X in ORDER_LE_3:
            table = coloring_table(engine, X)
            assert table.colorings == enumerate_colorings(d, X)
            for mode in MODES:
                cochains = cocycle_basis(X, mode, ZZ) + cocycle_basis(X, mode, Zm(2))
                cochains += [_random_cochain(rng, X.n) for _ in range(2)]
                for phi in cochains:
                    want = [
                        contribution(d, rho, phi, mode, crossing_signs=sg)
                        for rho in table.colorings
                    ]
                    assert table.weights(phi, mode) == want


def test_engine_weights_follow_the_outer_face():
    d = named_diagram("figure8")
    X = dihedral_quandle(5)
    phi = _random_cochain(random.Random(5), X.n)
    for face in range(len(faces(d))):
        sg = signs(d, checkerboard(d, outer_face=face))
        table = coloring_table(DiagramEngine(d, outer_face=face), X)
        for mode in MODES:
            assert table.weights(phi, mode) == [
                contribution(d, rho, phi, mode, crossing_signs=sg)
                for rho in table.colorings
            ]


def _pairwise_lemma_scan(d, X, phi, holds):
    """Lemmas 4.1 and 4.2 pair by pair, from act_coloring and contribution."""
    checked, failures = 0, []
    for rho in enumerate_colorings(d, X):
        base = contribution(d, rho, phi, "plus")
        for a in range(X.n):
            moved = act_coloring(X, rho, a)
            if not is_valid_coloring(d, X, moved):
                failures.append((rho, a, "not a coloring", None))
                continue
            other = contribution(d, moved, phi, "plus")
            checked += 1
            if not holds(base, other):
                failures.append((rho, a, base, other))
    return checked, tuple(failures)


def test_translation_lemmas_match_the_pairwise_scan():
    rng = random.Random(2718)
    relations = (lambda u, v: u + v == 0, lambda u, v: u == v)
    for name in ("trefoil", "figure8", "5_2", "trefoil_kinked"):
        d = named_diagram(name)
        engine = DiagramEngine(d)
        for X in ORDER_LE_3 + [D4, NOT_A_QUANDLE]:
            table = coloring_table(engine, X)
            cochains = [_random_cochain(rng, X.n)]
            if X is not NOT_A_QUANDLE:
                cochains += cocycle_basis(X, "plus", ZZ)
            for phi in cochains:
                reports = translation_lemmas(table, phi)
                assert [r.name for r in reports] == ["weights-cancel", "weights-agree"]
                for rep, holds in zip(reports, relations):
                    assert (rep.pairs_checked, rep.failures) == _pairwise_lemma_scan(
                        d, X, phi, holds
                    )
    missing = translation_lemmas(
        coloring_table(DiagramEngine(named_diagram("trefoil")), NOT_A_QUANDLE), zero(4)
    )
    assert all(r.failures and r.failures[0][2] == "not a coloring" for r in missing)


def test_contribution_mode_uses_matching_sign():
    d = named_diagram("trefoil")
    phi = indicator(3, 0, 1)
    rho = enumerate_colorings(d, D3)[1]
    sg = signs(d, checkerboard(d))
    roles = d.roles
    by_hand_minus = sum(
        sg.w[i] * phi(rho[src], rho[over]) for i, (src, over, _, _) in enumerate(roles)
    )
    by_hand_plus = sum(
        sg.eps[i] * phi(rho[src], rho[over]) for i, (src, over, _, _) in enumerate(roles)
    )
    assert contribution(d, rho, phi, "minus") == by_hand_minus
    assert contribution(d, rho, phi, "plus") == by_hand_plus
    with pytest.raises(ValueError):
        contribution(d, rho, phi, "neg")


def test_state_sum_total_is_coloring_count():
    d = named_diagram("figure8")
    phi = indicator(3, 0, 1)
    v = state_sum(d, D3, phi, "minus")
    assert v.total == len(enumerate_colorings(d, D3))


def test_state_sum_rejects_mismatches():
    d = named_diagram("trefoil")
    with pytest.raises(ValueError):
        state_sum(d, D3, indicator(2, 0, 1), "minus")


def test_empty_multiset_is_an_error_not_trivial():
    with pytest.raises(ValueError):
        is_trivial(GroupRingValue(ZZ, ()))


def test_group_ring_value_doc():
    v = GroupRingValue.from_values(ZZ, [0, -1, 0, -1])
    assert v.to_doc() == [["-1", 2], ["0", 2]]
    assert v.support() == (-1, 0)


def test_minus_mode_needs_no_faces():
    # two trefoils side by side: a split code has no sphere faces, but the
    # writhe signs, and so the minus state sum, do not need them
    d = parse_pd(
        "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] X[7,11,8,10] X[9,7,10,12] X[11,9,12,8]"
    )
    phi = indicator(3, 0, 1)
    roles = d.roles
    table = coloring_table(DiagramEngine(d), D3)
    assert len(table.colorings) == 81
    assert table.weights(phi, "minus") == [
        sum(w * phi(rho[src], rho[over]) for src, over, _, w in roles)
        for rho in table.colorings
    ]
    assert state_sum(d, D3, phi, "minus").total == 81
    with pytest.raises(PDStructureError):
        state_sum(d, D3, phi, "plus")


def test_state_sums_read_the_roles_and_cut_no_arc_set():
    # the ArcSet is cut from the parse's walk only when asked for; a state
    # sum in either mode reads the arc count and the crossing roles
    d = parse_pd(pd_text(closure_crossings([1, -2, 1, -2, 1], 3)))
    for mode in MODES:
        state_sum(d, D3, indicator(3, 0, 1), mode)
    assert "arcset" not in vars(d)
    assert len(arcs(d)) == d.arc_count


def test_state_sum_mod_m_reduces_weights():
    phi = indicator(2, 0, 1, coeff=Zm(2))
    v = state_sum(named_diagram("hopf"), T2, phi, "minus")
    assert v.counts == ((0, 2), (1, 2))


# --- translation lemmas -----------------------------------------------------


def test_lemma_checks_on_knots():
    for Xq in (D3, D4):
        basis = cocycle_basis(Xq, "plus", ZZ)
        for name in ("trefoil", "figure8", "trefoil_kinked"):
            d = named_diagram(name)
            table = coloring_table(DiagramEngine(d), Xq)
            for phi in basis:
                r1, r2 = translation_lemmas(table, phi)
                assert r1.ok and r2.ok
                assert r1.pairs_checked == r2.pairs_checked > 0


def test_lemma_checks_reject_links_and_mod_m():
    def lemmas(name, phi):
        return translation_lemmas(coloring_table(DiagramEngine(named_diagram(name)), T2), phi)

    phi = indicator(2, 0, 1)
    with pytest.raises(ValueError):
        lemmas("hopf", phi)
    with pytest.raises(ValueError):
        lemmas("unlink2", phi)
    with pytest.raises(ValueError):
        lemmas("trefoil", indicator(2, 0, 1, coeff=Zm(2)))


def test_lemma_scan_detects_violations():
    # the hopf-separating indicator is not a plus cocycle; over the trefoil
    # its weights are not translation-stable, and the scan must say so
    d = named_diagram("trefoil")
    phi = indicator(3, 0, 1)
    assert not phi.is_cocycle(D3, "plus")
    r1, r2 = translation_lemmas(coloring_table(DiagramEngine(d), D3), phi)
    assert not (r1.ok and r2.ok)


# --- the shading-sign structure ---------------------------------------------


def _seeded_braid_closures(seed, count):
    """Closures of seeded braid words on 2 to 4 strands, every generator
    used, so each closure is a connected diagram (a knot or a link)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(2, 4)
        gens = list(range(1, strands)) + [rng.randint(1, strands - 1) for _ in range(rng.randint(0, 5))]
        rng.shuffle(gens)
        word = [g * rng.choice((1, -1)) for g in gens]
        out.append(parse_pd(pd_text(closure_crossings(word, strands))))
    return out


def test_pair_counts_are_cycles_of_their_mode():
    # W- of every searched coloring is a minus 2-cycle and W+ a plus 2-cycle
    # of the rack complex: the certificate and verify's psi check rest on it
    diagrams = [named_diagram(name) for name in CORPUS_NAMES] + _seeded_braid_closures(22, 8)
    assert any(not d.is_knot() for d in diagrams[len(CORPUS_NAMES):])
    classes = [X for n in (1, 2, 3, 4) for X, _ in class_representatives(n)]
    for d in diagrams:
        engine = DiagramEngine(d)
        for X in classes:
            table = coloring_table(engine, X)
            for mode in MODES:
                cols = boundary_columns(X, 2, mode)[2]
                for counts in table.searched_counts(mode):
                    total = [0] * X.n
                    for (a, b), m in counts:
                        for u, c in cols[a * X.n + b].items():
                            total[u] += m * c
                    assert not any(total), (d.crossings, X.table, mode, counts)


def test_arc_traversals_cover_each_arc():
    for name in ("trefoil", "figure8", "borromean", "trefoil_kinked", "unlink2"):
        d = named_diagram(name)
        ar = arcs(d)
        travs = ar.traversals
        assert len(travs) == len(ar)
        # every crossing is passed over exactly once in total
        overs = sorted(i for t in travs for i in t.overs)
        assert overs == list(range(d.n_crossings))
        for block, t in zip(ar.arcs, travs):
            # each traversal belongs to its own arc
            assert all(d.crossings[i][1] in block and d.crossings[i][3] in block for i in t.overs)
            if not t.closed:
                assert t.start is not None and t.end is not None
                assert d.crossings[t.start][2] in block and d.crossings[t.end][0] in block


def test_kink_passes_over_its_own_crossing():
    d = named_diagram("trefoil_kinked")
    travs = arcs(d).traversals
    kink = [t for t in travs if t.start == 3]
    assert len(kink) == 1 and kink[0].overs[0] == 3


def test_eps_alternates_along_every_corpus_arc():
    from quandlekit.diagrams import CORPUS_NAMES

    for name in CORPUS_NAMES:
        assert check_eps_alternation(DiagramEngine(named_diagram(name)))


@pytest.mark.parametrize(
    "code, crossing",
    [
        ("trefoil_kinked", 1),  # the kinked arc passes over crossings 3 and 1
        ("X[3,1,4,2] X[4,1,3,2]", 0),  # a closed circle lying over another
    ],
)
def test_a_flipped_shading_sign_breaks_the_alternation(code, crossing, monkeypatch):
    from quandlekit import invariants

    d = named_diagram(code) if code == "trefoil_kinked" else parse_pd(code)
    assert check_eps_alternation(DiagramEngine(d))

    def flipped(d, shading):
        sg = signs(d, shading)
        return sg._replace(eps=sg.eps[:crossing] + (-sg.eps[crossing],) + sg.eps[crossing + 1:])

    monkeypatch.setattr(invariants, "signs", flipped)
    assert not check_eps_alternation(DiagramEngine(d))


def test_eps_psi_sum_vanishes():
    rng = random.Random(20240814)
    for name in ("trefoil", "figure8", "hopf", "borromean", "5_2", "figure8_kinked"):
        d = named_diagram(name)
        sg = signs(d, checkerboard(d))
        for X in (D3, D4):
            cols = enumerate_colorings(d, X)
            for _ in range(10):
                # the plus weight of a coboundary is the eps-psi sum
                phi = coboundary_of(X, [rng.randrange(-5, 6) for _ in range(X.n)], "plus")
                for rho in cols:
                    assert contribution(d, rho, phi, "plus", sg) == 0


def test_arc_endpoint_eps_relation():
    # an arc with over-passages: the first matches the start undercrossing's
    # eps, the signs alternate, and for writhe-balanced enumeration the check
    # above is what the weighted sum relies on; here just pin alternation
    d = named_diagram("figure8")
    sg = signs(d, checkerboard(d))
    for t in arcs(d).traversals:
        run = [sg.eps[i] for i in t.overs]
        assert all(run[j] != run[j + 1] for j in range(len(run) - 1))


# --- orbit restriction consistency ------------------------------------------


def test_contribution_respects_orbit_restriction():
    from quandlekit.quandles import orbits, validate_quandle

    d = named_diagram("trefoil")
    part = orbits(D4)
    assert part.count == 2
    # the orbit of 0 and the quandle and cocycles it restricts to
    emb = part.blocks[part.orbit_of[0]]
    index = {x: i for i, x in enumerate(emb)}
    sub = QuandleTable(tuple(tuple(index[D4.op(x, y)] for y in emb) for x in emb))
    assert validate_quandle(sub.table).valid
    for phi in cocycle_basis(D4, "minus", ZZ):
        small = Cochain2(phi.coeff, [[phi(a, b) for b in emb] for a in emb])
        for rho in enumerate_colorings(d, D4):
            if not all(c in emb for c in rho):
                continue
            translated = tuple(emb.index(c) for c in rho)
            assert is_valid_coloring(d, sub, translated)
            assert contribution(d, rho, phi, "minus") == contribution(
                d, translated, small, "minus"
            )


# --- sweeps -------------------------------------------------------------------


def test_theorem_sweep_minus_trivial_on_knots():
    cells = sweep_cells([D3, T2], ["trefoil", "figure8"], ZZ, "minus")
    assert all(e.trivial for e in cells)
    basis_sizes = len(cocycle_basis(D3, "minus", ZZ)) + len(
        cocycle_basis(T2, "minus", ZZ)
    )
    assert len(cells) == 2 * basis_sizes
    for e in cells:
        assert e.invariant.counts == ((0, e.colorings),)


def test_theorem_sweep_finds_hopf_witness():
    cells = sweep_cells([T2], ["hopf", "unlink2"], ZZ, "minus")
    bad = [e for e in cells if not e.trivial]
    assert bad
    assert all(e.diagram == "hopf" for e in bad)
    assert all(any(v for v, _ in e.invariant.counts) for e in bad)


def test_coboundary_state_sum_is_trivial_both_modes():
    # weights from a coboundary die: minus mode by telescoping along each
    # component, plus mode by the shading-sign cancellation
    rng = random.Random(99)
    for name in ("trefoil", "figure8"):
        d = named_diagram(name)
        for X in (D3, T2):
            for _ in range(5):
                psi = [rng.randrange(-4, 5) for _ in range(X.n)]
                for mode in ("minus", "plus"):
                    v = state_sum(d, X, coboundary_of(X, psi, mode), mode)
                    assert is_trivial(v)


# --- triviality certificate -----------------------------------------------------

KNOTS = ("trefoil", "figure8", "5_1", "5_2", "trefoil_kinked", "figure8_kinked")
ORDER_LE_4 = [X for n in (1, 2, 3, 4) for X in enumerate_quandles(n)]


@pytest.mark.parametrize("coeff", [ZZ, Zm(2), Zm(3), Zm(4), Zm(6)], ids=str)
def test_certificate_matches_the_basis_sweep(coeff):
    # oracle: every cell of the labelled basis sweep; the Hopf link and the
    # mod-2 trefoil make some verdicts fail
    engines = {
        key: [DiagramEngine(named_diagram(name)) for name in names]
        for key, names in (("knots", KNOTS), ("trefoil", ("trefoil",)), ("hopf", ("hopf",)))
    }
    verdicts = set()
    for X in ORDER_LE_4:
        for mode in MODES:
            basis = cocycle_basis(X, mode, coeff)
            for key, group in engines.items():
                tables = [coloring_table(engine, X) for engine in group]
                passes, cocycles = triviality_certificate(X, tables, mode, coeff)
                assert cocycles == len(basis)
                cells = [e for t in tables for e in table_cells(t, key, basis, mode)]
                assert passes == all(e.trivial for e in cells), (X.table, mode, key)
                verdicts.add((key, passes))
    assert ("hopf", False) in verdicts and ("knots", True) in verdicts
    assert (("trefoil", False) in verdicts) == (coeff.kind == "Zm" and coeff.modulus % 2 == 0)


class _Mutated:
    """A coloring table whose first searched coloring, an orbit
    representative's, gains 1 at one pair of its counts."""

    def __init__(self, table, pair):
        self.table, self.pair = table, pair

    def searched_counts(self, mode):
        rows = [dict(counts) for counts in self.table.searched_counts(mode)]
        rows[0][self.pair] = rows[0].get(self.pair, 0) + 1
        return [tuple(row.items()) for row in rows]


@pytest.mark.parametrize("mode", MODES)
def test_certificate_sees_a_perturbed_cycle(mode):
    table = coloring_table(DiagramEngine(named_diagram("trefoil")), D3)
    assert triviality_certificate(D3, [table], mode, ZZ) == (True, len(cocycle_basis(D3, mode, ZZ)))
    passes, _ = triviality_certificate(D3, [_Mutated(table, (0, 1))], mode, ZZ)
    assert not passes
    # a diagonal pair carries no weight, so perturbing it changes nothing
    assert triviality_certificate(D3, [_Mutated(table, (1, 1))], mode, ZZ)[0]


@pytest.mark.parametrize("coeff", [ZZ, Zm(2), Zm(3), Zm(4)], ids=str)
def test_representative_cycles_certify_as_all_cycles_do(coeff):
    # oracle: the span test on every coloring's cycle; the Hopf link and the
    # Borromean rings make some minus-mode verdicts fail
    groups = [
        [DiagramEngine(named_diagram(name)) for name in names]
        for names in (KNOTS, ("hopf",), ("borromean",))
    ]
    verdicts = set()
    for n in range(1, 6):
        for X, _ in class_representatives(n):
            for group in groups:
                tables = [coloring_table(engine, X) for engine in group]
                for mode in MODES:
                    answer = triviality_certificate(X, tables, mode, coeff)
                    assert answer == all_cycles_certificate(X, tables, mode, coeff), (X.table, mode)
                    verdicts.add(answer[0])
    assert verdicts == {True, False}


def test_certificate_is_invariant_under_relabeling():
    rng = random.Random(5)
    engines = [DiagramEngine(named_diagram(name)) for name in KNOTS]
    for X in enumerate_quandles(5, dedupe_iso=True):
        perm = list(range(5))
        rng.shuffle(perm)
        Y = X.relabeled(perm)
        for coeff in (ZZ, Zm(2), Zm(3)):
            for mode in MODES:
                answers = [
                    triviality_certificate(Q, [coloring_table(e, Q) for e in engines], mode, coeff)
                    for Q in (X, Y)
                ]
                assert answers[0] == answers[1]


def test_minus_certificate_counts_the_cocycles_of_the_eliminated_boundary():
    # oracle: c2 - rank d3 from the eliminated columns; over Z the minus
    # certificate takes the rank from the orbit count, n + o^2 - 2o cocycles
    for order in range(1, 7):
        for X, _ in class_representatives(order):
            rank = elementary_divisors(boundary_columns(X, 3, "minus", "quandle")[2])[0]
            o = orbits(X).count
            want = len(pair_basis(X.n)) - rank
            assert want == X.n + o * o - 2 * o
            assert triviality_certificate(X, [], "minus", ZZ) == (True, want), X.table
    # a table that fails the axioms keeps the elimination
    rank = elementary_divisors(boundary_columns(NOT_A_QUANDLE, 3, "minus", "quandle")[2])[0]
    assert triviality_certificate(NOT_A_QUANDLE, [], "minus", ZZ) == (True, len(pair_basis(4)) - rank)


def test_certificate_rejects_rational_coefficients():
    with pytest.raises(ValueError):
        triviality_certificate(D3, [], "minus", QQ)
