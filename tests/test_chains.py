"""Boundary maps and complex identities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.chains import (
    BoundaryMatrix,
    IntChain,
    boundary_apply,
    boundary_columns,
    boundary_matrix,
    d1_apply,
    d2_apply,
    tuple_basis,
    verify_complex_identities,
)
from quandlekit.quandles import QuandleTable, dihedral_quandle, enumerate_quandles, trivial_quandle

# structurally fine (idempotent, bijective columns) but self-distributivity fails
NON_QUANDLE_ROWS = [[0, 2, 0], [2, 1, 1], [1, 0, 2]]


def gen(*t):
    return IntChain.generator(t)


def test_basis_sizes_and_partition():
    q = dihedral_quandle(3)
    for n in range(5):
        rack = tuple_basis(q, n, "rack")
        deg = tuple_basis(q, n, "degenerate")
        qu = tuple_basis(q, n, "quandle")
        assert len(rack) == (3 ** n if n > 0 else 0)
        assert sorted(deg + qu) == rack
        assert rack == sorted(rack)  # lexicographic
    assert tuple_basis(q, 1, "degenerate") == []
    assert len(tuple_basis(q, 2, "quandle")) == 6
    with pytest.raises(ValueError):
        tuple_basis(q, 2, "nope")


def test_low_degree_boundaries_vanish():
    q = dihedral_quandle(5)
    for a in range(5):
        assert d1_apply(gen(a)).is_zero()
        assert d2_apply(q, gen(a)).is_zero()
        assert boundary_apply(q, gen(a, a), "minus").is_zero()


def test_degree_two_minus_boundary_formula():
    # the signed boundary sends (a,b) to (a) - (a*b)
    for q in (dihedral_quandle(3), trivial_quandle(2), dihedral_quandle(4)):
        for a in range(q.n):
            for b in range(q.n):
                got = boundary_apply(q, gen(a, b), "minus")
                want = {}
                want[(a,)] = want.get((a,), 0) + 1
                ab = (q.op(a, b),)
                want[ab] = want.get(ab, 0) - 1
                assert got == IntChain.from_dict(1, want)


def test_degree_three_minus_boundary_on_repeats():
    q = dihedral_quandle(3)
    for a in range(3):
        for b in range(3):
            # (a,a,b) maps to -(a,a) + (a*b,a*b)
            got = boundary_apply(q, gen(a, a, b), "minus")
            c = q.op(a, b)
            want = {}
            want[(a, a)] = want.get((a, a), 0) - 1
            want[(c, c)] = want.get((c, c), 0) + 1
            assert got == IntChain.from_dict(2, want)
            # (a,b,b) dies
            assert boundary_apply(q, gen(a, b, b), "minus").is_zero()


def test_chain_arithmetic():
    c = gen(0, 1) + gen(0, 1) + gen(1, 2).scaled(-1)
    assert c.as_dict() == {(0, 1): 2, (1, 2): -1}
    assert (c + c.scaled(-1)).is_zero()
    with pytest.raises(ValueError):
        gen(0, 1) + gen(0, 1, 2)
    with pytest.raises(ValueError):
        IntChain.from_dict(2, {(0, 1, 2): 1})


def test_boundary_matrix_agrees_with_apply():
    # every library path against d1 and d2 written out from the definitions:
    # drop entry i with sign (-1)^i, and act on the prefix by the dropped entry.
    # The order-4 quandle is not involutory, so acting by the wrong side shows.
    r3 = dihedral_quandle(3)
    q4 = next(q for q in enumerate_quandles(4) if q.table != q.dual_table)
    for q in (r3, q4):
        for sign, (e1, e2) in {"d1": (1, 0), "d2": (0, 1), "minus": (1, -1), "plus": (1, 1)}.items():
            for n in range(1, 5):
                rack_codomain = tuple_basis(q, n - 1, "rack")
                for flavor in ("rack", "degenerate", "quandle"):
                    bm = boundary_matrix(q, n, sign, flavor)
                    domain, codomain, cols = boundary_columns(q, n, sign, flavor)
                    assert (bm.domain, bm.codomain) == (domain, codomain)
                    assert list(domain) == tuple_basis(q, n, flavor)
                    assert list(codomain) == tuple_basis(q, n - 1, flavor)
                    for j, t in enumerate(domain):
                        rack = dict.fromkeys(rack_codomain, 0)  # degree 0 is the zero group
                        for i in range(n):
                            for u, e in (
                                (t[:i] + t[i + 1:], e1),
                                (tuple(q.op(x, t[i]) for x in t[:i]) + t[i + 1:], e2),
                            ):
                                if u in rack:
                                    rack[u] += e * (-1) ** (i + 1)
                        if flavor == "degenerate":
                            assert all(u in codomain for u, c in rack.items() if c)
                        want = [rack[u] for u in codomain]
                        assert [row[j] for row in bm.matrix] == want
                        assert [cols[j].get(i, 0) for i in range(len(codomain))] == want
                        got = boundary_apply(q, IntChain.generator(t), sign)
                        assert got == IntChain.from_dict(max(n - 1, 0), rack)


def test_quandle_flavor_is_the_projected_rack_matrix():
    for q in (dihedral_quandle(3), trivial_quandle(3), dihedral_quandle(4)):
        for n in (2, 3):
            for sign in ("minus", "plus"):
                rack = boundary_matrix(q, n, sign, "rack")
                quot = boundary_matrix(q, n, sign, "quandle")
                rk_cols = {t: j for j, t in enumerate(rack.domain)}
                rk_rows = {t: i for i, t in enumerate(rack.codomain)}
                for j, t in enumerate(quot.domain):
                    for i, u in enumerate(quot.codomain):
                        assert quot.matrix[i][j] == rack.matrix[rk_rows[u]][rk_cols[t]]


def test_degenerate_flavor_closure_holds_for_valid_quandles():
    for q in enumerate_quandles(3):
        for n in (2, 3, 4):
            bm = boundary_matrix(q, n, "minus", "degenerate")
            assert bm.shape == (len(bm.codomain), len(bm.domain))


def test_identities_hold_for_reference_quandles():
    for q in (dihedral_quandle(3), trivial_quandle(2)):
        report = verify_complex_identities(q, 4)
        assert report.ok
        assert report.first_failure() is None
        assert ("d1.d1", 4) in report.checked
        assert ("degenerate-closure", 3) in report.checked


def test_non_quandle_table_fails_some_identity():
    from quandlekit.quandles import validate_quandle

    report = validate_quandle(NON_QUANDLE_ROWS)
    assert not report.valid and all(v.axiom == 3 for v in report.violations)
    chain_report = verify_complex_identities(NON_QUANDLE_ROWS, 3)
    assert not chain_report.ok
    bad = chain_report.first_failure()
    assert bad is not None and len(bad.witness) == bad.degree
    # the first failing column of each composed boundary, in identity order
    assert [(f.identity, f.degree, f.witness) for f in chain_report.failures] == [
        ("d2.d2", 3, (0, 1, 0)),
        ("minus.minus", 3, (0, 1, 0)),
        ("plus.plus", 3, (0, 1, 0)),
    ]


def test_boundary_matrix_rejects_bad_arguments():
    q = dihedral_quandle(3)
    with pytest.raises(ValueError):
        boundary_matrix(q, 0, "minus")
    with pytest.raises(ValueError):
        boundary_matrix(q, 2, "upside")
    for degree in (1, 2):
        with pytest.raises(ValueError, match="unknown sign"):
            boundary_apply(q, IntChain.generator((0,) * degree), "upside")
    # 0*0 = 1 is not idempotent, so d2 of the degenerate generator (0, 0)
    # leaves the degenerate span; d1 alone keeps it there on any table
    not_idempotent = QuandleTable(((1, 1), (0, 0)))
    for sign in ("d2", "minus", "plus"):
        with pytest.raises(ArithmeticError, match=r"of \(0, 0\) leaves the degenerate span"):
            boundary_columns(not_idempotent, 2, sign, "degenerate")
    assert boundary_columns(not_idempotent, 2, "d1", "degenerate")[2] == [{}, {}]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([t for n in (2, 3) for t in enumerate_quandles(n)]),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(["minus", "plus"]),
    st.data(),
)
def test_signed_boundaries_square_to_zero_on_random_chains(q, degree, sign, data):
    basis = tuple_basis(q, degree, "rack")
    coeffs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(basis), st.integers(min_value=-3, max_value=3)),
            max_size=5,
        )
    )
    d = {}
    for t, c in coeffs:
        d[t] = d.get(t, 0) + c
    chain = IntChain.from_dict(degree, d)
    once = boundary_apply(q, chain, sign)
    twice = boundary_apply(q, once, sign)
    assert twice.is_zero()
