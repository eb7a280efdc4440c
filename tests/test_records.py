"""Record semantics: every result record is immutable, the hand-written ones
compare and hash by value, and the validating constructors reject bad input."""

import pytest

from quandlekit.chains import IntChain, boundary_matrix, verify_complex_identities
from quandlekit.cli import RunConfig
from quandlekit.diagrams import arcs, checkerboard, faces, named_diagram, signs
from quandlekit.homology import ZZ, Cochain2, CoefficientGroup, cocycle_basis, cohomology_group
from quandlekit.invariants import (
    Coloring,
    DiagramEngine,
    GroupRingValue,
    coloring_table,
    sweep_entries,
    theorem_sweep,
    translation_lemmas,
)
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
    phi = Cochain2.indicator(3, 0, 1)
    basis = cocycle_basis(X, "plus", ZZ)
    failing = verify_complex_identities(NOT_A_QUANDLE, 3)
    return {
        "AxiomViolation": validate_quandle(NOT_A_QUANDLE).violations[0],
        "ValidationReport": validate_quandle(NOT_A_QUANDLE),
        "QuandleTable": X,
        "OrbitPartition": orbits(X),
        "IntChain": IntChain.generator((0, 1)),
        "BoundaryMatrix": boundary_matrix(X, 2, "minus"),
        "IdentityFailure": failing.failures[0],
        "ComplexReport": failing,
        "CoefficientGroup": CoefficientGroup("Zm", 5),
        "AbelianGroupDescriptor": cohomology_group(X, "quandle", "minus", 3, ZZ),
        "PDDiagram": d,
        "ArcSet": arcs(d),
        "FaceSet": faces(d),
        "Shading": checkerboard(d),
        "CrossingSigns": signs(d, checkerboard(d)),
        "Coloring": Coloring(table.colorings[0]),
        "GroupRingValue": GroupRingValue.from_values(ZZ, table.weights(phi, "minus")),
        "LemmaReport": translation_lemmas(table, phi)[0],
        "SweepEntry": sweep_entries(table, "trefoil", basis, "plus")[0],
        "SweepReport": theorem_sweep([X], ["trefoil"], ZZ, "plus"),
        "RunConfig": RunConfig(max_order=3),
    }


RECORDS = every_record()


def test_every_record_type_is_covered():
    assert len(RECORDS) == 21
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
        (lambda: QuandleTable.from_rows([[0, 0], [1, 1]]), trivial_quandle(3)),
        (lambda: named_diagram("trefoil"), named_diagram("figure8")),
        (lambda: Coloring(tuple(range(3))), Coloring((0, 1, 1))),
        (lambda: CoefficientGroup.parse("Z/4"), CoefficientGroup("Zm", 6)),
        (lambda: IntChain.from_dict(2, {(0, 1): 3}), IntChain.generator((0, 1))),
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
        lambda: RunConfig(max_order=0),
        lambda: RunConfig(degree=4),
        lambda: ZZ._replace(modulus=2),
        lambda: cohomology_group(dihedral_quandle(3), "rack", "minus", 1, ZZ)._replace(torsion=(2, 3)),
        lambda: RunConfig(max_order=3)._replace(degree=0),
    ],
)
def test_validating_constructors_reject_bad_arguments(make):
    with pytest.raises(ValueError):
        make()
