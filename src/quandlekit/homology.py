"""(Co)homology of the tuple complexes over Z, Q, and Z/m, plus 2-cochain tools.

Everything is exact.  The chain groups are free of finite rank, so every
group follows from the ranks and elementary divisors of two boundary maps:
H_n = Z^(c_n - r_n - r_{n+1}) plus the torsion of d_{n+1}, and the
universal coefficient theorem gives H^n and the Q and Z/m groups from the
same numbers.

Quandles need fewer of them, since their Betti numbers are known
(``betti``).  Those of the minus complex follow from the number o of
Inn(X)-orbits: o^n for the rack complex (Etingof and Graña, JPAA 177,
2003), o(o-1)^(n-1) for the quandle complex, and their difference for the
degenerate one (Litherland and Nelson, JPAA 178, 2003).  The plus complex
is rationally acyclic above degree 1.  For an Inn(X)-orbit O let h(x) be
the sum over a in O of (a, x).  Face 0 of (a, x) is x in both d1 and d2,
and the other faces of (a, x) are (a, d1 face of x) and (a * x_j, d2 face
of x); right translation by x_j permutes O, so summed over O those cancel
the faces of h(dx), and dh + hd = -2|O| id on chains of degree >= 2.  h
keeps degenerate chains degenerate, so this holds in all three flavors.
Hence b_n = 0 for n >= 2, and 2g kills the torsion of H_n, for g the gcd
of the orbit sizes.  In degree 1, dh(x) = 2 sum(O) - 2|O| x, so every
1-chain is rationally homologous to a multiple of sum(O), which the sum of
coefficients keeps nonzero: b_1 = 1 (0 for the degenerate complex, which
is zero in degree 1).  So a quandle's groups over Q eliminate nothing, and
its H^n over Z eliminates d_n alone.  H_n over Z and every group over Z/m
need the divisors of d_{n+1} too, and tables that fail the quandle axioms
keep both eliminations.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import linalg
from .chains import FLAVORS, MODES, _basis, _faces, boundary_columns
from .quandles import Frozen, orbits


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


def _check_sign(sign):
    """Reject every sign but the two complexes, "minus" and "plus": the
    operators "d1" and "d2" of ``boundary_columns`` are not complexes."""
    if sign not in MODES:
        raise ValueError("sign must be 'minus' or 'plus'")


def _check_args(flavor, sign, n, coeff):
    if flavor not in FLAVORS:
        raise ValueError("unknown flavor %r" % (flavor,))
    _check_sign(sign)
    if n > 3:
        raise ValueError("degree capped at 3")
    if not isinstance(coeff, CoefficientGroup):
        raise TypeError("coeff must be a CoefficientGroup")


def betti(X, sign, flavor, n):
    """Rank of H_n(X; Q) for the complex of the given sign and flavor, n >= 1.

    Minus: o^n (rack), o(o-1)^(n-1) (quandle) or their difference
    (degenerate), for o Inn(X)-orbits.  Plus: 1 in degree 1 (0 for the
    degenerate complex) and 0 above, by the averaging homotopy of the
    module docstring.  None when X fails the quandle axioms, where the
    theorems say nothing.
    """
    _check_sign(sign)
    if not X.is_quandle:
        return None
    if sign == "plus":
        return int(n == 1 and flavor != "degenerate")
    o = orbits(X).count
    rack, quandle = o**n, o * (o - 1) ** (n - 1)
    return {"rack": rack, "quandle": quandle, "degenerate": rack - quandle}[flavor]


def _group(X, flavor, sign, n, coeff, cohomology):
    """H^n (cohomology) or H_n over coeff, from the divisors of d_n and d_{n+1}.

    Over Z the torsion is that of d_{n+1} for H_n and of d_n for H^n.  Over
    Z/m each divisor d of either map adds Z/gcd(d, m) to (Z/m)^free, in
    homology and cohomology alike.  A quandle reads its free rank from
    ``betti`` wherever it needs no divisors of d_{n+1}: over Q, and for H^n
    over Z.
    """
    _check_args(flavor, sign, n, coeff)
    if n <= 0:
        return TRIVIAL_GROUP
    free = None
    if coeff.kind == "Q" or coeff.kind == "Z" and cohomology:
        free = betti(X, sign, flavor, n)
    if free is not None:
        if coeff.kind == "Q":
            return AbelianGroupDescriptor(free, ())
        div_n = linalg.elementary_divisors(boundary_columns(X, n, sign, flavor)[2])[1]
        return AbelianGroupDescriptor(free, tuple(d for d in div_n if d > 1))
    domain, _, cols = boundary_columns(X, n, sign, flavor)
    r_n, div_n = linalg.elementary_divisors(cols)
    r_next, div_next = linalg.elementary_divisors(boundary_columns(X, n + 1, sign, flavor)[2])
    free = len(domain) - r_n - r_next
    if free < 0:  # rank d_n + rank d_{n+1} <= c_n whenever d_n d_{n+1} = 0
        raise ValueError(
            "negative rank in degree %d: the boundaries do not compose to zero, "
            "so the table fails the quandle axioms" % n
        )
    if coeff.kind == "Q":
        return AbelianGroupDescriptor(free, ())
    if coeff.kind == "Z":
        torsion = div_n if cohomology else div_next
        return AbelianGroupDescriptor(free, tuple(d for d in torsion if d > 1))
    m = coeff.modulus
    orders = [g for g in (math.gcd(d, m) for d in div_n + div_next) if g > 1]
    torsion = linalg.elementary_divisors([{i: g} for i, g in enumerate(orders)])[1]
    return AbelianGroupDescriptor(0, tuple(t for t in torsion if t > 1) + (m,) * free)


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
    def from_vector(cls, n, vec, coeff=ZZ):
        rows = [[0] * n for _ in range(n)]
        for (a, b), v in zip(pair_basis(n), vec):
            rows[a][b] = v
        return cls(coeff, rows)

    def is_cocycle(self, X, sign):
        """Does the cochain vanish on the degree-3 rack boundary of every
        triple, the all-triples cocycle condition?"""
        _check_sign(sign)
        if self.n != X.n:
            raise ValueError("cocycle size does not match the quandle")
        f = [v for row in self.values for v in row]
        block = X.n**2
        for start in range(0, X.n * block, block):  # one first digit at a time
            faces, coeffs = _faces(X, 3, sign, range(start, start + block))
            terms = [[c * f[u] for u in face] for face, c in zip(faces, coeffs) if c]
            if any(map(self.coeff.reduce, filter(None, map(sum, zip(*terms))))):
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
