"""Boundary maps and complex identities."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.chains import FLAVORS, SIGNS, _basis, boundary_columns
from quandlekit.quandles import QuandleTable, dihedral_quandle, enumerate_quandles, trivial_quandle

# structurally fine (idempotent, bijective columns) but self-distributivity fails
NON_QUANDLE_ROWS = ((0, 2, 0), (2, 1, 1), (1, 0, 2))

# each identity is a sum of composed boundaries (outer, inner) that vanishes
IDENTITIES = {
    "d1.d1": (("d1", "d1"),),
    "d2.d2": (("d2", "d2"),),
    "d1.d2+d2.d1": (("d1", "d2"), ("d2", "d1")),
    "minus.minus": (("minus", "minus"),),
    "plus.plus": (("plus", "plus"),),
}


def tuple_boundary(rows, t, weights):
    """Boundary of the generator t as {tuple: coefficient}: for i = 1..n,
    (-1)^i times w1 copies of t with entry i dropped and w2 copies with it
    dropped after acting on the prefix by it (x -> rows[x][t_i])."""
    w1, w2 = weights
    out = {}
    for i, a in enumerate(t):
        s = 1 if i % 2 else -1
        if w1:
            u = t[:i] + t[i + 1:]
            out[u] = out.get(u, 0) + s * w1
        if w2:
            u = tuple(rows[x][a] for x in t[:i]) + t[i + 1:]
            out[u] = out.get(u, 0) + s * w2
    return out


def tuple_columns(X, n, sign, flavor):
    """Oracle for boundary_columns: each face built as a tuple and looked up
    in the codomain by hashing, the stray tuples of the quandle flavor
    dropped, those of the degenerate flavor an error."""
    domain = _basis(X.n, n, flavor)
    codomain = _basis(X.n, n - 1, flavor)
    index = {u: i for i, u in enumerate(codomain)}
    cols = []
    for t in domain:
        col = {}
        for u, c in tuple_boundary(X.table, t, SIGNS[sign]).items():
            if not c:
                continue
            i = index.get(u)
            if i is not None:
                col[i] = c
            elif flavor == "degenerate":
                raise ArithmeticError("boundary of %r leaves the degenerate span at %r" % (t, u))
        cols.append(col)
    return domain, codomain, cols


def columns_or_error(build, X, n, sign, flavor):
    """Domain, codomain and each column's items in order, or the error raised."""
    try:
        domain, codomain, cols = build(X, n, sign, flavor)
    except ArithmeticError as exc:
        return "ArithmeticError", str(exc)
    return domain, codomain, [list(col.items()) for col in cols]


def basis(q, n, flavor):
    """The degree-n basis of a flavor: the codomain of the degree-(n + 1) d1."""
    return list(boundary_columns(q, n + 1, "d1", flavor)[1])


@lru_cache(maxsize=32)
def _rack_boundaries(q, n, sign):
    """Each degree-n generator's rack boundary as {tuple: coefficient}."""
    domain, codomain, cols = boundary_columns(q, n, sign)
    return {t: {codomain[i]: k for i, k in col.items()} for t, col in zip(domain, cols)}


def boundary_of(q, chain, sign):
    """The boundary of a chain {tuple: coefficient}, read off the rack columns."""
    out = {}
    for t, c in chain.items():
        for u, k in _rack_boundaries(q, len(t), sign)[t].items():
            out[u] = out.get(u, 0) + k * c
    return {u: c for u, c in out.items() if c}


def gen(*t):
    return {t: 1}


def identity_failures(q, max_degree):
    """What fails on q in degrees 2..max_degree, by (name, degree): for each
    identity, its first generator in lexicographic order whose image does
    not vanish; for each sign, the message of a degenerate boundary that
    leaves the degenerate span."""
    failures = {}
    for n in range(2, max_degree + 1):
        for name, terms in IDENTITIES.items():
            for t in product(range(q.n), repeat=n):
                total = {}
                for outer, inner in terms:
                    for u, c in boundary_of(q, boundary_of(q, gen(*t), inner), outer).items():
                        total[u] = total.get(u, 0) + c
                if any(total.values()):
                    failures[name, n] = t
                    break
        for sign in SIGNS:
            try:
                boundary_columns(q, n, sign, "degenerate")
            except ArithmeticError as exc:
                failures["degenerate-closure-" + sign, n] = str(exc)
    return failures


def test_basis_sizes_and_partition():
    q = dihedral_quandle(3)
    for n in range(5):
        rack = basis(q, n, "rack")
        deg = basis(q, n, "degenerate")
        qu = basis(q, n, "quandle")
        assert len(rack) == (3 ** n if n > 0 else 0)
        assert sorted(deg + qu) == rack
        assert rack == sorted(rack)  # lexicographic
    assert basis(q, 1, "degenerate") == []
    assert len(basis(q, 2, "quandle")) == 6
    with pytest.raises(ValueError):
        basis(q, 2, "nope")


def test_low_degree_boundaries_vanish():
    q = dihedral_quandle(5)
    for a in range(5):
        assert boundary_of(q, gen(a), "d1") == {}
        assert boundary_of(q, gen(a), "d2") == {}
        assert boundary_of(q, gen(a, a), "minus") == {}


def test_degree_two_minus_boundary_formula():
    # the signed boundary sends (a,b) to (a) - (a*b)
    for q in (dihedral_quandle(3), trivial_quandle(2), dihedral_quandle(4)):
        for a in range(q.n):
            for b in range(q.n):
                got = boundary_of(q, gen(a, b), "minus")
                want = {}
                want[(a,)] = want.get((a,), 0) + 1
                ab = (q.op(a, b),)
                want[ab] = want.get(ab, 0) - 1
                assert got == {u: c for u, c in want.items() if c}


def test_degree_three_minus_boundary_on_repeats():
    q = dihedral_quandle(3)
    for a in range(3):
        for b in range(3):
            # (a,a,b) maps to -(a,a) + (a*b,a*b)
            got = boundary_of(q, gen(a, a, b), "minus")
            c = q.op(a, b)
            want = {}
            want[(a, a)] = want.get((a, a), 0) - 1
            want[(c, c)] = want.get((c, c), 0) + 1
            assert got == {u: k for u, k in want.items() if k}
            # (a,b,b) dies
            assert boundary_of(q, gen(a, b, b), "minus") == {}


def test_boundary_matrix_agrees_with_apply():
    # the boundary columns against d1 and d2 written out from the definitions:
    # drop entry i with sign (-1)^i, and act on the prefix by the dropped entry.
    # The order-4 quandle is not involutory, so acting by the wrong side shows.
    r3 = dihedral_quandle(3)
    q4 = next(q for q in enumerate_quandles(4) if q.table != q.dual_table)
    for q in (r3, q4):
        for sign, (e1, e2) in {"d1": (1, 0), "d2": (0, 1), "minus": (1, -1), "plus": (1, 1)}.items():
            for n in range(1, 5):
                rack_codomain = basis(q, n - 1, "rack")
                for flavor in ("rack", "degenerate", "quandle"):
                    domain, codomain, cols = boundary_columns(q, n, sign, flavor)
                    assert len(cols) == len(domain)
                    assert list(domain) == basis(q, n, flavor)
                    assert list(codomain) == basis(q, n - 1, flavor)
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
                        assert [cols[j].get(i, 0) for i in range(len(codomain))] == want
                        assert all(0 <= i < len(codomain) for i in cols[j])


def test_columns_match_the_tuple_oracle_on_small_classes():
    # key order included: the elimination's pivot choices follow it
    tables = [q for order in range(1, 5) for q in enumerate_quandles(order, dedupe_iso=True)]
    tables += [QuandleTable(NON_QUANDLE_ROWS), QuandleTable(((1, 1), (0, 0)))]
    for q in tables:
        for n in range(1, 5):
            for sign in SIGNS:
                for flavor in FLAVORS:
                    want = columns_or_error(tuple_columns, q, n, sign, flavor)
                    assert columns_or_error(boundary_columns, q, n, sign, flavor) == want


@pytest.mark.parametrize("order", [5, 6, 7])
def test_columns_match_the_tuple_oracle_on_relabeled_dihedral_quandles(order):
    perm = list(range(order))
    random.Random(order).shuffle(perm)
    q = dihedral_quandle(order).relabeled(tuple(perm))
    assert q.table != dihedral_quandle(order).table
    for n in range(1, 5):
        for sign in SIGNS:
            for flavor in ("rack", "quandle"):
                want = columns_or_error(tuple_columns, q, n, sign, flavor)
                assert columns_or_error(boundary_columns, q, n, sign, flavor) == want


def test_quandle_flavor_is_the_projected_rack_matrix():
    for q in (dihedral_quandle(3), trivial_quandle(3), dihedral_quandle(4)):
        for n in (2, 3):
            for sign in ("minus", "plus"):
                r_domain, r_codomain, r_cols = boundary_columns(q, n, sign, "rack")
                q_domain, q_codomain, q_cols = boundary_columns(q, n, sign, "quandle")
                rk_cols = {t: j for j, t in enumerate(r_domain)}
                rk_rows = {t: i for i, t in enumerate(r_codomain)}
                for j, t in enumerate(q_domain):
                    for i, u in enumerate(q_codomain):
                        assert q_cols[j].get(i, 0) == r_cols[rk_cols[t]].get(rk_rows[u], 0)


def test_degenerate_flavor_closure_holds_for_valid_quandles():
    for q in enumerate_quandles(3):
        for n in (2, 3, 4):
            domain, codomain, cols = boundary_columns(q, n, "minus", "degenerate")
            assert len(cols) == len(domain)
            assert all(0 <= i < len(codomain) for col in cols for i in col)


def test_identities_hold_for_reference_quandles():
    for q in (dihedral_quandle(3), trivial_quandle(2)):
        assert identity_failures(q, 4) == {}


def test_non_quandle_table_fails_some_identity():
    from quandlekit.quandles import validate_quandle

    report = validate_quandle(NON_QUANDLE_ROWS)
    assert not report.valid and all(v.axiom == 3 for v in report.violations)
    # the first failing generator of each composed boundary, in identity
    # order; the degenerate span stays closed, as the table is idempotent
    assert list(identity_failures(QuandleTable(NON_QUANDLE_ROWS), 3).items()) == [
        (("d2.d2", 3), (0, 1, 0)),
        (("minus.minus", 3), (0, 1, 0)),
        (("plus.plus", 3), (0, 1, 0)),
    ]


def test_boundary_matrix_rejects_bad_arguments():
    q = dihedral_quandle(3)
    with pytest.raises(ValueError):
        boundary_columns(q, 0, "minus")
    for degree in (1, 2):
        with pytest.raises(ValueError, match="unknown sign"):
            boundary_columns(q, degree, "upside")
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
    coeffs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(basis(q, degree, "rack")), st.integers(min_value=-3, max_value=3)),
            max_size=5,
        )
    )
    d = {}
    for t, c in coeffs:
        d[t] = d.get(t, 0) + c
    once = boundary_of(q, d, sign)
    twice = boundary_of(q, once, sign)
    assert twice == {}
