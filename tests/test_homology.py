"""Homology groups, cocycle bases, coboundaries, restrictions."""

from __future__ import annotations

import itertools
import math
import random

import lattice_oracle
import pytest
from cochains import coboundary_of, indicator, triple_condition, vector, zero
from lattice_oracle import solve_matrix, transpose
from test_chains import NON_QUANDLE_ROWS, tuple_boundary

from quandlekit import homology
from quandlekit.chains import FLAVORS, SIGNS, boundary_columns
from quandlekit.homology import (
    QQ,
    ZZ,
    AbelianGroupDescriptor,
    Cochain2,
    CoefficientGroup,
    Zm,
    cocycle_basis,
    cohomology_group,
    betti,
    homology_group,
    pair_basis,
)
from quandlekit.linalg import elementary_divisors
from quandlekit.quandles import (
    QuandleTable,
    class_representatives,
    dihedral_quandle,
    enumerate_quandles,
    orbits,
    trivial_quandle,
    validate_quandle,
)

SMALL = [q for n in (1, 2, 3) for q in enumerate_quandles(n)]


def unit_coboundaries(q, sign, coeff=ZZ):
    """The coboundaries of the unit 1-cochains e_a, which span the image of
    delta1."""
    return [coboundary_of(q, [int(b == a) for b in range(q.n)], sign, coeff) for a in range(q.n)]


def test_coefficient_group_parse():
    assert CoefficientGroup.parse("Z") == ZZ
    assert CoefficientGroup.parse("Q") == QQ
    assert CoefficientGroup.parse("Z5") == Zm(5)
    assert CoefficientGroup.parse("Z/12") == Zm(12)
    assert str(Zm(5)) == "Z5" and str(ZZ) == "Z"
    assert Zm(3).reduce(-1) == 2 and ZZ.reduce(-1) == -1
    for bad in ("Zx", "GF4", "Z1", "Z0"):
        with pytest.raises(ValueError):
            CoefficientGroup.parse(bad)
    # a modulus is ASCII digits only: int() would read Arabic-Indic three as
    # 3, and str.isdigit() passes a superscript two that int() rejects
    for bad in ("Z\u0663", "Z\u00b2", "Z/\u00b2", "Z\uff15"):
        with pytest.raises(ValueError, match="cannot parse coefficient group"):
            CoefficientGroup.parse(bad)


def test_descriptor_canonical_form():
    d = AbelianGroupDescriptor(2, (2, 6))
    assert str(d) == "Z^2 + Z/2 + Z/6"
    assert str(AbelianGroupDescriptor(0, ())) == "0"
    assert str(AbelianGroupDescriptor(1, ())) == "Z"
    with pytest.raises(ValueError):
        AbelianGroupDescriptor(0, (2, 3))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroupDescriptor(0, (1,))


def test_reference_groups():
    d3 = dihedral_quandle(3)
    assert homology_group(d3, "degenerate", "minus", 2, ZZ) == AbelianGroupDescriptor(1, ())
    assert cohomology_group(d3, "rack", "minus", 2, QQ).free_rank == 1
    assert cohomology_group(d3, "quandle", "minus", 2, QQ).is_trivial
    t2 = trivial_quandle(2)
    assert cohomology_group(t2, "rack", "minus", 1, QQ).free_rank == 2
    assert cohomology_group(t2, "rack", "minus", 2, QQ).free_rank == 4
    assert homology_group(trivial_quandle(3), "degenerate", "minus", 2, ZZ) == AbelianGroupDescriptor(3, ())
    assert homology_group(d3, "rack", "minus", 0, ZZ).is_trivial


def test_rational_rank_formula_on_small_quandles():
    # ranks straight from the boundary columns: cohomology_group over Q
    # reads the Betti numbers from the orbit count itself
    for q in SMALL:
        k = orbits(q).count
        ranks = [elementary_divisors(boundary_columns(q, n, "minus")[2])[0] for n in (1, 2, 3)]
        for n in (1, 2):
            assert q.n ** n - ranks[n - 1] - ranks[n] == k ** n


def _betti_formula(o, sign, flavor, n):
    """The Betti numbers for o orbits, written out here: minus from the
    orbit count, plus 1 in degree 1 (0 degenerate) and 0 above."""
    if sign == "plus":
        return int(n == 1 and flavor != "degenerate")
    rack, quandle = o**n, o * (o - 1) ** (n - 1)
    return {"rack": rack, "quandle": quandle, "degenerate": rack - quandle}[flavor]


def test_minus_betti_numbers_match_the_boundary_ranks():
    # oracle: c_n - r_n - r_{n+1} from the eliminated boundary columns, on
    # every class of order <= 6 (963 cases); the groups over Q read the
    # formulas instead of these ranks
    cases = 0
    for order in range(1, 7):
        for X, _ in class_representatives(order):
            o = orbits(X).count
            for flavor in FLAVORS:
                built = [boundary_columns(X, n, "minus", flavor) for n in (1, 2, 3, 4)]
                ranks = [elementary_divisors(cols)[0] for _, _, cols in built]
                for n in (1, 2, 3):
                    want = _betti_formula(o, "minus", flavor, n)
                    assert len(built[n - 1][0]) - ranks[n - 1] - ranks[n] == want, (X.table, flavor, n)
                    assert betti(X, "minus", flavor, n) == want
                    cases += 1
    assert cases == 963


def test_plus_betti_numbers_match_the_boundary_ranks():
    # the same oracle in degrees 1 and 2 on every class of order <= 6, and
    # in degree 3 up to order 5 (d4 of order 6 takes ~20 s): 744 cases
    cases = 0
    for order in range(1, 7):
        top = 2 if order == 6 else 3
        for X, _ in class_representatives(order):
            for flavor in FLAVORS:
                built = [boundary_columns(X, n, "plus", flavor) for n in range(1, top + 2)]
                ranks = [elementary_divisors(cols)[0] for _, _, cols in built]
                for n in range(1, top + 1):
                    want = _betti_formula(orbits(X).count, "plus", flavor, n)
                    assert len(built[n - 1][0]) - ranks[n - 1] - ranks[n] == want, (X.table, flavor, n)
                    assert betti(X, "plus", flavor, n) == want
                    cases += 1
    assert cases == 744


def _plus_homotopy_failures(X, orbit, n, flavor):
    """The degree-n generators x with dh(x) + hd(x) != -2|O| x for the plus
    boundary and h(x) = sum over a in the orbit O of (a, x), by exact
    arithmetic on tuples.  The quandle flavor drops degenerate tuples after
    each map: d and h keep the degenerate chains, so this is the quotient."""

    def keep(t):
        return flavor == "rack" or all(u != v for u, v in zip(t, t[1:]))

    def d(chain):
        out = {}
        for t, c in chain.items():
            for u, k in tuple_boundary(X.table, t, SIGNS["plus"]).items():
                if keep(u):
                    out[u] = out.get(u, 0) + c * k
        return out

    def h(chain):
        out = {}
        for t, c in chain.items():
            for a in orbit:
                if keep((a,) + t):
                    out[(a,) + t] = out.get((a,) + t, 0) + c
        return out

    failures = []
    for t in filter(keep, itertools.product(range(X.n), repeat=n)):
        total = d(h({t: 1}))
        for u, c in h(d({t: 1})).items():
            total[u] = total.get(u, 0) + c
        total[t] = total.get(t, 0) + 2 * len(orbit)
        if any(total.values()):
            failures.append(t)
    return failures


def test_the_averaging_homotopy_of_the_plus_complex():
    # the proof behind the plus Betti numbers, on one orbit of every class
    # of order <= 4 in degrees 2 and 3
    checked = 0
    for order in range(1, 5):
        for X, _ in class_representatives(order):
            orbit = orbits(X).blocks[-1]
            for flavor in ("rack", "quandle"):
                for n in (2, 3):
                    assert _plus_homotopy_failures(X, orbit, n, flavor) == [], (X.table, flavor, n)
                    checked += 1
    assert checked == 48
    # a set that is not an orbit breaks the cancellation
    assert _plus_homotopy_failures(dihedral_quandle(3), (0,), 2, "rack")


def test_twice_the_orbit_gcd_kills_plus_torsion():
    # 2g kills plus H_2 over Z, for g the gcd of the orbit sizes, on every
    # class of order <= 6; 2g itself is a torsion factor in 268 of the 321
    # cases, among them R3's rack H_2 = Z/6
    met = 0
    for order in range(1, 7):
        for X, _ in class_representatives(order):
            g = math.gcd(*map(len, orbits(X).blocks))
            for flavor in FLAVORS:
                torsion = homology_group(X, flavor, "plus", 2, ZZ).torsion
                assert all(2 * g % t == 0 for t in torsion), (X.table, flavor)
                met += 2 * g in torsion
    assert met == 268
    assert homology_group(dihedral_quandle(3), "rack", "plus", 2, ZZ).torsion == (6,)


def _two_eliminations(X, flavor, sign, n, coeff, cohomology):
    """The group over Z or Q from the divisors of d_n and d_{n+1}, the way
    every table got it before the Betti numbers, or the type of the error
    that raises: on a table that is not a quandle these maps need not form
    a complex."""
    try:
        domain, _, cols = boundary_columns(X, n, sign, flavor)
        r_n, div_n = elementary_divisors(cols)
        r_next, div_next = elementary_divisors(boundary_columns(X, n + 1, sign, flavor)[2])
        divisors = () if coeff == QQ else div_n if cohomology else div_next
        return AbelianGroupDescriptor(len(domain) - r_n - r_next, tuple(d for d in divisors if d > 1))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def test_a_negative_rank_names_the_broken_complex():
    # on NON_QUANDLE_ROWS, c_2 - r_2 - r_3 = -1 for the rack complex
    X = QuandleTable(NON_QUANDLE_ROWS)
    message = (
        "^negative rank in degree 2: the boundaries do not compose to zero, "
        "so the table fails the quandle axioms$"
    )
    for group in (cohomology_group, homology_group):
        for coeff in (ZZ, QQ, Zm(3)):
            with pytest.raises(ValueError, match=message):
                group(X, "rack", "minus", 2, coeff)


# a rack that is not a quandle: x * y = sigma(x) for the transposition (0 1)
PERMUTATION_RACK = QuandleTable(((1, 1, 1), (0, 0, 0), (2, 2, 2)))


def test_tables_that_are_not_quandles_keep_both_eliminations():
    differs = set()
    for X in (QuandleTable(NON_QUANDLE_ROWS), PERMUTATION_RACK):
        assert not validate_quandle(X.table).valid
        o = orbits(X).count
        for sign in ("minus", "plus"):
            assert betti(X, sign, "rack", 1) is None
            for flavor in FLAVORS:
                for n in (1, 2, 3):
                    for coeff in (ZZ, QQ):
                        for cohomology, group in ((True, cohomology_group), (False, homology_group)):
                            want = _two_eliminations(X, flavor, sign, n, coeff, cohomology)
                            try:
                                got = group(X, flavor, sign, n, coeff)
                            except (ArithmeticError, ValueError) as exc:
                                got = type(exc)
                            assert got == want, (X.table, flavor, sign, n, str(coeff), cohomology)
                    formula = AbelianGroupDescriptor(_betti_formula(o, sign, flavor, n), ())
                    if _two_eliminations(X, flavor, sign, n, QQ, True) != formula:
                        differs.add(sign)
    assert differs == {"minus", "plus"}  # the formulas would give other answers on these tables


R4 = dihedral_quandle(4)  # two orbits


def _boundaries_built(monkeypatch, X, flavor, sign, coeff, cohomology):
    """The degrees of the boundaries a group builds, after checking the
    group against the lattice oracle."""
    degrees = []

    def counted(X, n, sign, flavor="rack"):
        degrees.append(n)
        return boundary_columns(X, n, sign, flavor)

    monkeypatch.setattr(homology, "boundary_columns", counted)
    group = (cohomology_group if cohomology else homology_group)(X, flavor, sign, 2, coeff)
    d_n = lattice_oracle.dense_boundary(X, 2, sign, flavor)
    d_next = lattice_oracle.dense_boundary(X, 3, sign, flavor)
    oracle = lattice_oracle.cohomology_group if cohomology else lattice_oracle.homology_group
    assert group == oracle(d_n, d_next, coeff)
    return degrees


@pytest.mark.parametrize(
    "X,sign,coeff,cohomology,built",
    [
        (R4, "minus", QQ, True, []),
        (R4, "minus", QQ, False, []),
        (R4, "minus", ZZ, True, [2]),
        (R4, "minus", ZZ, False, [2, 3]),
        (R4, "minus", Zm(4), True, [2, 3]),
        (R4, "plus", QQ, True, []),
        (R4, "plus", ZZ, True, [2]),
        (PERMUTATION_RACK, "minus", QQ, True, [2, 3]),
        (PERMUTATION_RACK, "minus", ZZ, True, [2, 3]),
        (R4, "plus", ZZ, False, [2, 3]),
        (R4, "plus", Zm(4), True, [2, 3]),
        (PERMUTATION_RACK, "plus", QQ, True, [2, 3]),
    ],
)
def test_which_boundaries_a_group_builds(monkeypatch, X, sign, coeff, cohomology, built):
    # only a quandle's groups over Q, and its H^n over Z, skip d_{n+1}; a
    # rack keeps both, though the rack formulas hold for it
    assert _boundaries_built(monkeypatch, X, "rack", sign, coeff, cohomology) == built


@pytest.mark.parametrize(
    "sign,coeff,built", [("plus", QQ, []), ("plus", ZZ, [2]), ("minus", ZZ, [2])], ids=str
)
def test_which_boundaries_a_degenerate_group_builds(monkeypatch, sign, coeff, built):
    assert _boundaries_built(monkeypatch, R4, "degenerate", sign, coeff, True) == built


def test_t2_minus_cocycles_are_all_off_diagonal_tables():
    t2 = trivial_quandle(2)
    basis = cocycle_basis(t2, "minus", ZZ)
    assert len(basis) == 2
    mat = [vector(c) for c in basis]
    for a, b in ((0, 1), (1, 0)):
        target = vector(indicator(2, a, b))
        assert solve_matrix(transpose(mat, ncols=2), [[v] for v in target]) is not None


def test_t2_plus_cocycles_are_antisymmetric():
    basis = cocycle_basis(trivial_quandle(2), "plus", ZZ)
    assert len(basis) == 1
    phi = basis[0]
    assert phi(0, 1) == -phi(1, 0) != 0


def test_basis_elements_satisfy_the_printed_condition():
    quandles = SMALL + [dihedral_quandle(4)]
    for q in quandles:
        for sign in ("minus", "plus"):
            for coeff in (ZZ, Zm(2), Zm(3)):
                for phi in cocycle_basis(q, sign, coeff):
                    assert phi.is_cocycle(q, sign)
                for phi in unit_coboundaries(q, sign, coeff):
                    assert phi.is_cocycle(q, sign)


def test_direct_condition_agrees_with_hand_written_check():
    d3 = dihedral_quandle(3)
    for phi in cocycle_basis(d3, "minus", ZZ):
        f = phi
        for x, y, z in itertools.product(range(3), repeat=3):
            assert (
                f(x, z) - f(d3.op(x, y), z) - f(x, y) + f(d3.op(x, z), d3.op(y, z)) == 0
            )


def test_coboundaries_lie_in_the_cocycle_lattice():
    for q in SMALL:
        for sign in ("minus", "plus"):
            cocycles = cocycle_basis(q, sign, ZZ)
            if not cocycles:
                for phi in unit_coboundaries(q, sign):
                    assert not any(any(row) for row in phi.values)
                continue
            span = transpose([vector(c) for c in cocycles], ncols=len(pair_basis(q.n)))
            for phi in unit_coboundaries(q, sign):
                assert solve_matrix(span, [[v] for v in vector(phi)]) is not None


def test_coboundary_formulas():
    # the tests' hand-written coboundary is psi paired with the faces of the
    # degree-2 rack boundary, and it is a cocycle
    d3 = dihedral_quandle(3)
    psi = [5, -2, 7]
    for sign in ("minus", "plus"):
        delta = coboundary_of(d3, psi, sign)
        _, _, cols = boundary_columns(d3, 2, sign)
        for x in range(3):
            for y in range(3):
                assert delta(x, y) == sum(c * psi[u] for u, c in cols[3 * x + y].items())
        assert delta.is_cocycle(d3, sign)
    minus, plus = coboundary_of(d3, psi, "minus"), coboundary_of(d3, psi, "plus")
    assert minus(0, 1) == psi[0] - psi[d3.op(0, 1)]
    assert plus(0, 1) == psi[0] + psi[d3.op(0, 1)] - 2 * psi[1]


def _oracle_cochains(q, coeff, rng):
    """Cocycle bases, unit coboundaries, indicators and seeded random
    cochains on q over coeff."""
    out = []
    if validate_quandle(q.table).valid:
        out += [phi for sign in ("minus", "plus") for phi in cocycle_basis(q, sign, coeff)]
    if all(q.op(a, a) == a for a in range(q.n)):
        out += [phi for sign in ("minus", "plus") for phi in unit_coboundaries(q, sign, coeff)]
    out += [indicator(q.n, a, b, coeff) for a, b in pair_basis(q.n)]
    top = coeff.modulus or 4
    for _ in range(6):
        out.append(Cochain2.from_vector(q.n, [rng.randrange(-top, top + 1) for _ in pair_basis(q.n)], coeff))
    return out


def test_is_cocycle_matches_the_triple_formulas():
    rng = random.Random(2203)
    perm = list(range(5))
    random.Random(5).shuffle(perm)
    tables = SMALL + [dihedral_quandle(4), dihedral_quandle(5).relabeled(tuple(perm))]
    tables += [QuandleTable(NON_QUANDLE_ROWS), QuandleTable(((1, 1), (0, 0)))]
    seen = set()
    for q in tables:
        for coeff in (ZZ, Zm(2), Zm(3)):
            for phi in _oracle_cochains(q, coeff, rng):
                for sign in ("minus", "plus"):
                    want = triple_condition(phi, q, sign)
                    assert phi.is_cocycle(q, sign) == want, (q.table, phi, sign)
                    seen.add(want)
    assert seen == {True, False}


def test_is_cocycle_rejects_a_cochain_of_the_wrong_size():
    # an order-2 cochain: the trivial T3 never leaves its elements, R3 does
    for q in (trivial_quandle(3), dihedral_quandle(3)):
        for sign in ("minus", "plus"):
            with pytest.raises(ValueError, match="cocycle size does not match the quandle"):
                indicator(2, 0, 1).is_cocycle(q, sign)


@pytest.mark.parametrize("sign", ["d1", "bogus"])
@pytest.mark.parametrize(
    "call",
    [
        lambda X, sign: zero(X.n).is_cocycle(X, sign),
        lambda X, sign: cocycle_basis(X, sign),
        lambda X, sign: cohomology_group(X, "quandle", sign, 2, ZZ),
    ],
    ids=["is_cocycle", "cocycle_basis", "cohomology_group"],
)
def test_cochain_functions_take_only_minus_or_plus(call, sign):
    with pytest.raises(ValueError, match="sign must be 'minus' or 'plus'"):
        call(dihedral_quandle(3), sign)


def test_class_orders():
    d3 = dihedral_quandle(3)
    assert coboundary_of(d3, [0, 0, 0], "minus") == zero(3)
    # T2 has no nonzero minus-coboundaries, so no multiple of a nonzero
    # cocycle such as an indicator is one: its classes have infinite order
    t2 = trivial_quandle(2)
    assert all(phi == zero(2) for phi in unit_coboundaries(t2, "minus"))
    assert indicator(2, 0, 1).is_cocycle(t2, "minus")
    assert cohomology_group(t2, "quandle", "minus", 2, ZZ) == AbelianGroupDescriptor(2, ())
    # order 3 has genuine 2-torsion classes in the plus theory
    torsions = {cohomology_group(q, "quandle", "plus", 2, ZZ).torsion for q in enumerate_quandles(3)}
    assert torsions == {(2,), (2, 2), (3,)}


def test_restriction_to_an_orbit():
    d4 = dihedral_quandle(4)
    part = orbits(d4)
    emb = part.blocks[part.orbit_of[0]]
    assert emb == (0, 2)
    index = {x: i for i, x in enumerate(emb)}
    sub = QuandleTable(tuple(tuple(index[d4.op(x, y)] for y in emb) for x in emb))
    assert validate_quandle(sub.table).valid

    def restrict(phi):
        return Cochain2(phi.coeff, [[phi(a, b) for b in emb] for a in emb])

    assert restrict(zero(4)) == zero(2)
    for sign in ("minus", "plus"):
        for phi in cocycle_basis(d4, sign, ZZ):
            assert restrict(phi).is_cocycle(sub, sign)
        for psi in ([1, 2, 3, 4], [0, -1, 5, 2]):
            whole = restrict(coboundary_of(d4, psi, sign))
            part = coboundary_of(sub, [psi[e] for e in emb], sign)
            assert whole == part


def test_rank_split_check_small_orders():
    # H_n of the rack complex is the sum of its degenerate and quandle parts
    for q in SMALL:
        for n in (1, 2):
            rack, deg, qu = (homology_group(q, f, "minus", n, ZZ) for f in ("rack", "degenerate", "quandle"))
            orders = deg.torsion + qu.torsion
            torsion = elementary_divisors([{i: t} for i, t in enumerate(orders)])[1]
            assert rack == AbelianGroupDescriptor(
                deg.free_rank + qu.free_rank, tuple(t for t in torsion if t > 1)
            )


def _brute_zm_quotient_size(a_rows, b_rows, mid, m):
    """|kernel| / |image| over Z/m by explicit enumeration."""
    if mid == 0:
        return 1
    kernel = 0
    for v in itertools.product(range(m), repeat=mid):
        if all(sum(r * x for r, x in zip(row, v)) % m == 0 for row in a_rows):
            kernel += 1
    bcols = len(b_rows[0]) if b_rows else 0
    gens = [tuple(b_rows[i][c] % m for i in range(mid)) for c in range(bcols)]
    zero = tuple([0] * mid)
    sub = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((p + q) % m for p, q in zip(x, g))
            if y not in sub:
                sub.add(y)
                frontier.append(y)
    assert kernel % len(sub) == 0
    return kernel // len(sub)


def test_zm_groups_match_brute_force_enumeration():
    cases = []
    for q in SMALL:
        for flavor in ("rack", "degenerate", "quandle"):
            for n in (1, 2):
                for m in (2, 3, 4):
                    if flavor == "rack" and n == 2 and m ** (q.n ** 2) > 100_000:
                        continue
                    cases.append((q, flavor, n, m))
    for q, flavor, n, m in cases:
        got = homology_group(q, flavor, "minus", n, Zm(m))
        assert got.free_rank == 0
        size = 1
        for t in got.torsion:
            assert m % t == 0
            size *= t
        out, width = lattice_oracle.dense_boundary(q, n, "minus", flavor)
        into, _ = lattice_oracle.dense_boundary(q, n + 1, "minus", flavor)
        brute = _brute_zm_quotient_size(out, into, width, m)
        assert size == brute, (q.table, flavor, n, m)


def test_zm_sizes_satisfy_universal_coefficients():
    for q in SMALL:
        for flavor in ("rack", "degenerate", "quandle"):
            groups = {n: homology_group(q, flavor, "minus", n, ZZ) for n in (0, 1, 2)}
            for n in (1, 2):
                for m in (2, 3, 4):
                    hz = groups[n]
                    prev = groups[n - 1]
                    want = m ** hz.free_rank
                    for t in hz.torsion:
                        want *= math.gcd(t, m)
                    for t in prev.torsion:
                        want *= math.gcd(t, m)
                    got = 1
                    for t in homology_group(q, flavor, "minus", n, Zm(m)).torsion:
                        got *= t
                    assert got == want


def test_zm_cocycle_spanning_sets_span_exactly():
    targets = [
        (dihedral_quandle(3), 2, "minus"),
        (dihedral_quandle(3), 2, "plus"),
        (trivial_quandle(2), 3, "minus"),
    ]
    targets += [
        (q, 2, "plus")
        for q in enumerate_quandles(4, dedupe_iso=True)
        if orbits(q).connected
    ]
    for q, m, sign in targets:
        coeff = Zm(m)
        c2 = len(pair_basis(q.n))
        everything = {
            vec
            for vec in itertools.product(range(m), repeat=c2)
            if Cochain2.from_vector(q.n, list(vec), coeff).is_cocycle(q, sign)
        }
        gens = [tuple(vector(phi)) for phi in cocycle_basis(q, sign, coeff)]
        zero = tuple([0] * c2)
        span = {zero}
        frontier = [zero]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple((p + r) % m for p, r in zip(x, g))
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        assert span == everything


def test_cochain_serialization():
    phi = indicator(3, 0, 2, Zm(5))
    doc = phi.to_doc()
    assert doc == {"coeff": "Z5", "values": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]}
    assert Cochain2.from_doc(doc) == phi
    with pytest.raises(ValueError):
        Cochain2.from_doc({"coeff": "Z", "values": [[1, 0], [0, 0]]})
    with pytest.raises(ValueError):
        Cochain2.from_doc({"coeff": "Z", "values": [[0, "x"], [0, 0]]})
    with pytest.raises(ValueError):
        Cochain2(ZZ, [[0, 1], [1, 0], [0, 0]])
    with pytest.raises(ValueError, match="diagonal must vanish"):
        Cochain2(ZZ, [[1]])
    assert Cochain2(Zm(3), [[0, 4], [-1, 0]]).values == ((0, 1), (2, 0))
    with pytest.raises(AttributeError):
        phi.values = ()


def test_cohomology_matches_homology_rank_over_q():
    for q in SMALL:
        for flavor in ("rack", "degenerate", "quandle"):
            for sign in ("minus", "plus"):
                for n in (1, 2):
                    hn = homology_group(q, flavor, sign, n, QQ).free_rank
                    hn_co = cohomology_group(q, flavor, sign, n, QQ).free_rank
                    assert hn == hn_co


ORACLE_COEFFS = (ZZ, QQ, Zm(2), Zm(3), Zm(4), Zm(6))


def test_groups_match_the_lattice_oracle():
    cases = [(q, 3) for k in (1, 2, 3) for q in enumerate_quandles(k, dedupe_iso=True)]
    cases += [(q, 2) for q in enumerate_quandles(4, dedupe_iso=True)]
    for q, top in cases:
        for flavor in ("rack", "degenerate", "quandle"):
            for sign in ("minus", "plus"):
                for n in range(1, top + 1):
                    d_n = lattice_oracle.dense_boundary(q, n, sign, flavor)
                    d_next = lattice_oracle.dense_boundary(q, n + 1, sign, flavor)
                    for coeff in ORACLE_COEFFS:
                        case = (q.table, flavor, sign, n, str(coeff))
                        want = lattice_oracle.homology_group(d_n, d_next, coeff)
                        assert homology_group(q, flavor, sign, n, coeff) == want, case
                        want = lattice_oracle.cohomology_group(d_n, d_next, coeff)
                        assert cohomology_group(q, flavor, sign, n, coeff) == want, case


def test_r5_groups_do_not_depend_on_the_labelling():
    r5 = dihedral_quandle(5)
    moved = r5.relabeled((3, 0, 4, 1, 2))
    for flavor in ("rack", "degenerate", "quandle"):
        for sign in ("minus", "plus"):
            for group in (homology_group, cohomology_group):
                assert group(moved, flavor, sign, 3, ZZ) == group(r5, flavor, sign, 3, ZZ)


def test_known_third_cohomology_values():
    # Mochizuki, JPAA 179 (2003): H^3_Q(R_p; Z_p) = Z_p for p = 3, 5
    for p in (3, 5):
        got = cohomology_group(dihedral_quandle(p), "quandle", "minus", 3, Zm(p))
        assert got == AbelianGroupDescriptor(0, (p,))
    # regression values of the lattice computation this replaced
    r6, r7 = dihedral_quandle(6), dihedral_quandle(7)
    assert cohomology_group(r6, "rack", "minus", 3, ZZ) == AbelianGroupDescriptor(8, ())
    assert cohomology_group(r6, "quandle", "plus", 3, ZZ) == AbelianGroupDescriptor(0, (3, 6))
    assert cohomology_group(r7, "rack", "minus", 3, ZZ) == AbelianGroupDescriptor(1, ())
    assert cohomology_group(r7, "rack", "plus", 3, ZZ) == AbelianGroupDescriptor(0, (14,))
    assert cohomology_group(r7, "quandle", "plus", 3, ZZ) == AbelianGroupDescriptor(0, (7,))
