"""Small 2-cochains for the tests, built with Cochain2's own constructors,
and the hand-written minus and plus formulas the tests hold the package's
boundary faces to."""

from quandlekit.homology import ZZ, Cochain2, pair_basis


def zero(n, coeff=ZZ):
    return Cochain2(coeff, [[0] * n] * n)


def indicator(n, a, b, coeff=ZZ):
    """1 on the off-diagonal pair (a, b) and 0 elsewhere."""
    return Cochain2.from_vector(n, [int(p == (a, b)) for p in pair_basis(n)], coeff)


def vector(phi):
    """phi's values in pair_basis order, the coordinates from_vector reads."""
    return [phi(a, b) for a, b in pair_basis(phi.n)]


def coboundary_of(X, psi, sign, coeff=ZZ):
    """Coboundary of a 1-cochain psi (a sequence over the quandle elements):
    psi(x) - psi(x*y) in minus mode, psi(x) + psi(x*y) - 2 psi(y) in plus."""
    if sign == "minus":
        rows = [[psi[x] - psi[X.op(x, y)] for y in range(X.n)] for x in range(X.n)]
    else:
        rows = [[psi[x] + psi[X.op(x, y)] - 2 * psi[y] for y in range(X.n)] for x in range(X.n)]
    return Cochain2(coeff, rows)


def triple_condition(phi, X, sign):
    """The degree-2 cocycle condition written out for every triple (x, y, z),
    reduced in phi's coefficient group: True when it holds everywhere."""
    f, op = phi, X.op
    for x in range(X.n):
        for y in range(X.n):
            for z in range(X.n):
                if sign == "minus":
                    v = f(x, z) - f(op(x, y), z) - f(x, y) + f(op(x, z), op(y, z))
                else:
                    v = -2 * f(y, z) + f(x, z) + f(op(x, y), z) - f(x, y) - f(op(x, z), op(y, z))
                if phi.coeff.reduce(v):
                    return False
    return True
