"""Small 2-cochains for the tests, built with Cochain2's own constructors."""

from quandlekit.homology import ZZ, Cochain2, pair_basis


def zero(n, coeff=ZZ):
    return Cochain2(coeff, [[0] * n] * n)


def indicator(n, a, b, coeff=ZZ):
    """1 on the off-diagonal pair (a, b) and 0 elsewhere."""
    return Cochain2.from_vector(n, [int(p == (a, b)) for p in pair_basis(n)], coeff)


def vector(phi):
    """phi's values in pair_basis order, the coordinates from_vector reads."""
    return [phi(a, b) for a, b in pair_basis(phi.n)]
