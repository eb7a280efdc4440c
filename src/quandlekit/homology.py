"""(Co)homology of the tuple complexes over Z, Q, and Z/m, plus 2-cochain tools.

Everything is exact.  The chain groups are free of finite rank, so every
group follows from the ranks and elementary divisors of two boundary maps:
H_n = Z^(c_n - r_n - r_{n+1}) plus the torsion of d_{n+1}, and the
universal coefficient theorem gives H^n and the Q and Z/m groups from the
same numbers.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import linalg
from .chains import FLAVORS, _basis, boundary_columns
from .quandles import Frozen


class CoefficientGroup(namedtuple("CoefficientGroup", "kind modulus")):
    """Z, Q or Z/m: kind is "Z", "Q", or "Zm", and only Zm has a modulus."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, kind, modulus=None):
        if kind not in ("Z", "Q", "Zm"):
            raise ValueError("unknown coefficient kind %r" % (kind,))
        if kind == "Zm":
            if not isinstance(modulus, int) or modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif modulus is not None:
            raise ValueError("modulus only makes sense for Zm")
        return super().__new__(cls, kind, modulus)

    @classmethod
    def parse(cls, text):
        t = str(text).strip()
        if t == "Z":
            return cls("Z")
        if t == "Q":
            return cls("Q")
        if t.startswith("Z/"):
            t = "Z" + t[2:]
        if t.startswith("Z") and t[1:].isdigit():
            return cls("Zm", int(t[1:]))
        raise ValueError("cannot parse coefficient group %r" % (text,))

    def __str__(self):
        return "Z%d" % self.modulus if self.kind == "Zm" else self.kind

    def reduce(self, v):
        return v % self.modulus if self.kind == "Zm" else int(v)


ZZ = CoefficientGroup("Z")
QQ = CoefficientGroup("Q")


def Zm(m):
    return CoefficientGroup("Zm", m)


def _factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class AbelianGroupDescriptor(namedtuple("AbelianGroupDescriptor", "free_rank torsion")):
    """Finitely generated abelian group in invariant-factor form: the torsion
    is a tuple of invariant factors > 1, each dividing the next."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, free_rank, torsion):
        if free_rank < 0:
            raise ValueError("negative rank")
        for i, t in enumerate(torsion):
            if t < 2:
                raise ValueError("torsion coefficients must exceed 1")
            if i and t % torsion[i - 1]:
                raise ValueError("torsion list is not a divisibility chain")
        return super().__new__(cls, free_rank, torsion)

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_doc(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


TRIVIAL_GROUP = AbelianGroupDescriptor(0, ())


def _invariant_factors(orders):
    """Invariant factors (ascending, all > 1) of the sum of Z/k over orders."""
    powers = {}
    for k in orders:
        for p, e in _factor(k).items():
            powers.setdefault(p, []).append(p ** e)
    factors = []
    for qs in powers.values():
        qs.sort(reverse=True)
        factors.extend([1] * (len(qs) - len(factors)))
        for i, q in enumerate(qs):
            factors[i] *= q
    return tuple(reversed(factors))


def _check_sign(sign):
    """Reject every sign but the two complexes, "minus" and "plus": the
    operators "d1" and "d2" of ``boundary_columns`` are not complexes."""
    if sign not in ("minus", "plus"):
        raise ValueError("sign must be 'minus' or 'plus'")


def _check_args(flavor, sign, n, coeff):
    if flavor not in FLAVORS:
        raise ValueError("unknown flavor %r" % (flavor,))
    _check_sign(sign)
    if n > 3:
        raise ValueError("degree capped at 3")
    if not isinstance(coeff, CoefficientGroup):
        raise TypeError("coeff must be a CoefficientGroup")


def _group(X, flavor, sign, n, coeff, cohomology):
    """H^n (cohomology) or H_n over coeff, from the divisors of d_n and d_{n+1}.

    Over Z the torsion is that of d_{n+1} for H_n and of d_n for H^n.  Over
    Z/m each divisor d of either map adds Z/gcd(d, m) to (Z/m)^free, in
    homology and cohomology alike.
    """
    _check_args(flavor, sign, n, coeff)
    if n <= 0:
        return TRIVIAL_GROUP
    domain, _, cols = boundary_columns(X, n, sign, flavor)
    r_n, div_n = linalg.elementary_divisors(cols)
    r_next, div_next = linalg.elementary_divisors(boundary_columns(X, n + 1, sign, flavor)[2])
    free = len(domain) - r_n - r_next
    if coeff.kind == "Q":
        return AbelianGroupDescriptor(free, ())
    if coeff.kind == "Z":
        torsion = div_n if cohomology else div_next
        return AbelianGroupDescriptor(free, tuple(d for d in torsion if d > 1))
    m = coeff.modulus
    orders = [m] * free + [math.gcd(d, m) for d in div_n + div_next]
    return AbelianGroupDescriptor(0, _invariant_factors(orders))


def homology_group(X, flavor, sign, n, coeff):
    """H_n of the chosen complex with the chosen coefficients."""
    return _group(X, flavor, sign, n, coeff, cohomology=False)


def cohomology_group(X, flavor, sign, n, coeff):
    """H^n of the chosen complex with the chosen coefficients."""
    return _group(X, flavor, sign, n, coeff, cohomology=True)


def pair_basis(n):
    """Off-diagonal pairs in lexicographic order: the degree-2 quandle basis."""
    return _basis(n, 2, "quandle")


class Cochain2(Frozen):
    """A 2-cochain on a quandle: square table of values with a zero diagonal."""

    __slots__ = __match_args__ = ("coeff", "values")

    def __init__(self, coeff, values):
        values = tuple(tuple(coeff.reduce(v) for v in row) for row in values)
        n = len(values)
        if any(len(row) != n for row in values):
            raise ValueError("values must form a square table")
        if any(values[a][a] for a in range(n)):
            raise ValueError("diagonal must vanish")
        if coeff.kind == "Q":
            raise ValueError("cochains are kept over Z or Z/m")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return len(self.values)

    def __call__(self, a, b):
        return self.values[a][b]

    def __repr__(self):
        return "Cochain2(%s, %r)" % (self.coeff, [list(r) for r in self.values])

    @classmethod
    def zero(cls, n, coeff=ZZ):
        return cls(coeff, [[0] * n for _ in range(n)])

    @classmethod
    def indicator(cls, n, a, b, coeff=ZZ):
        if a == b:
            raise ValueError("indicator must sit off the diagonal")
        rows = [[0] * n for _ in range(n)]
        rows[a][b] = 1
        return cls(coeff, rows)

    @classmethod
    def from_vector(cls, n, vec, coeff=ZZ):
        rows = [[0] * n for _ in range(n)]
        for (a, b), v in zip(pair_basis(n), vec):
            rows[a][b] = v
        return cls(coeff, rows)

    def vector(self):
        return [self.values[a][b] for a, b in pair_basis(self.n)]

    def add(self, other):
        if self.coeff != other.coeff or self.n != other.n:
            raise ValueError("mismatched cochains")
        return Cochain2(
            self.coeff,
            [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.values, other.values)],
        )

    def is_cocycle(self, X, sign):
        """Direct all-triples check of the degree-2 cocycle condition."""
        _check_sign(sign)
        red = self.coeff.reduce
        op = X.op
        f = self.__call__
        for x in range(self.n):
            for y in range(self.n):
                for z in range(self.n):
                    if sign == "minus":
                        v = f(x, z) - f(op(x, y), z) - f(x, y) + f(op(x, z), op(y, z))
                    else:
                        v = (
                            -2 * f(y, z)
                            + f(x, z)
                            + f(op(x, y), z)
                            - f(x, y)
                            - f(op(x, z), op(y, z))
                        )
                    if red(v):
                        return False
        return True

    def to_doc(self):
        return {"coeff": str(self.coeff), "values": [list(r) for r in self.values]}

    @classmethod
    def from_doc(cls, doc):
        if not isinstance(doc, dict) or "values" not in doc:
            raise ValueError("cochain document needs a 'values' table")
        coeff = CoefficientGroup.parse(doc.get("coeff", "Z"))
        values = doc["values"]
        if not (
            isinstance(values, list)
            and all(
                isinstance(r, list)
                and all(isinstance(v, int) and not isinstance(v, bool) for v in r)
                for r in values
            )
        ):
            raise ValueError("cochain values must be integer rows")
        if any(len(r) != len(values) for r in values):
            raise ValueError("cochain values must form a square table")
        if any(r[a] for a, r in enumerate(values)):
            raise ValueError("cochain diagonal must be zero")
        return cls(coeff, values)


def cocycle_basis(X, sign, coeff=ZZ):
    """Degree-2 cocycles, as Cochain2 values.

    One Smith normal form of delta2, the dense transpose of the degree-3
    quandle boundary, with its column transform V serves both cases.  Over
    Z the columns of V past the rank are a lattice basis of the kernel;
    over Z/m a spanning set keeps those reduced and adds the m-torsion
    lifts of the columns at the nonzero elementary divisors.
    """
    _check_sign(sign)
    if coeff.kind == "Q":
        raise ValueError("cocycle bases are computed over Z or Z/m")
    _, pairs, cols = boundary_columns(X, 3, sign, "quandle")
    c2 = len(pairs)
    delta2 = [[col.get(i, 0) for i in range(c2)] for col in cols]
    s, v, rank = linalg._smith(delta2, c2, track_v=True)
    if coeff.kind == "Z":
        return [Cochain2.from_vector(X.n, [row[j] for row in v], coeff) for j in range(rank, c2)]
    m = coeff.modulus
    out = []
    for j in range(c2):
        if j < rank:
            g = math.gcd(s[j][j], m)
            if g == 1:
                continue
            mult = m // g
        else:
            mult = 1
        vec = [(mult * row[j]) % m for row in v]
        if any(vec):
            out.append(Cochain2.from_vector(X.n, vec, coeff))
    return out


def coboundary_of(X, psi, sign, coeff=ZZ):
    """Coboundary of a 1-cochain psi (a sequence over the quandle elements)."""
    _check_sign(sign)
    n = X.n
    if len(psi) != n:
        raise ValueError("psi must assign a value to every element")
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            if sign == "minus":
                v = psi[x] - psi[X.op(x, y)]
            else:
                v = psi[x] + psi[X.op(x, y)] - 2 * psi[y]
            row.append(v)
        rows.append(row)
    return Cochain2(coeff, rows)
