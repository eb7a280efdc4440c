"""Record semantics: every result record is immutable, the hand-written ones
compare and hash by value, and the validating constructors reject bad input."""

import pytest
from cochains import indicator

from quandlekit.diagrams import faces, named_diagram
from quandlekit.homology import (
    QQ,
    ZZ,
    AbelianGroupDescriptor,
    Cochain2,
    CoefficientGroup,
    Zm,
    cohomology_group,
)
from quandlekit.invariants import DiagramEngine, coloring_table
from quandlekit.quandles import (
    QuandleTable,
    dihedral_quandle,
    orbits,
    trivial_quandle,
    validate_quandle,
)

NOT_A_QUANDLE = ((0, 0, 0), (1, 1, 1), (2, 2, 0))


def every_record():
    """One instance of each record type, by type name."""
    X = dihedral_quandle(3)
    d = named_diagram("trefoil")
    table = coloring_table(DiagramEngine(d), X)
    phi = indicator(3, 0, 1)
    return {
        "AxiomViolation": validate_quandle(NOT_A_QUANDLE).violations[0],
        "ValidationReport": validate_quandle(NOT_A_QUANDLE),
        "QuandleTable": X,
        "OrbitPartition": orbits(X),
        "CoefficientGroup": CoefficientGroup("Zm", 5),
        "AbelianGroupDescriptor": cohomology_group(X, "quandle", "minus", 3, ZZ),
        "PDDiagram": d,
        "FaceSet": faces(d),
        "GroupRingValue": table.state_sum(phi, "minus"),
    }


RECORDS = every_record()


def test_every_record_type_is_covered():
    assert len(RECORDS) == 9
    assert all(type(r).__name__ == name for name, r in RECORDS.items())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]
    fields = type(record).__match_args__
    assert fields
    for field in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: QuandleTable(((0, 0), (1, 1))), trivial_quandle(3)),
        (lambda: named_diagram("trefoil"), named_diagram("figure8")),
        (lambda: CoefficientGroup.parse("Z/4"), CoefficientGroup("Zm", 6)),
        (lambda: indicator(3, 0, 1), indicator(3, 1, 0)),
        # the same values over another group are another cochain
        (lambda: indicator(2, 0, 1, Zm(2)), indicator(2, 0, 1)),
    ],
)
def test_records_compare_and_hash_by_value(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b, other}) == 2
    assert a != other


@pytest.mark.parametrize(
    "make",
    [
        lambda: CoefficientGroup("Zm", 1),
        lambda: CoefficientGroup("Q", 3),
        lambda: CoefficientGroup("R"),
        lambda: AbelianGroupDescriptor(-1, ()),
        lambda: Cochain2(ZZ, [[0, 1], [1]]),
        lambda: ZZ._replace(modulus=2),
        lambda: cohomology_group(dihedral_quandle(3), "rack", "minus", 1, ZZ)._replace(torsion=(2, 3)),
        lambda: Cochain2(QQ, [[0]]),
    ],
)
def test_validating_constructors_reject_bad_arguments(make):
    with pytest.raises(ValueError):
        make()
