"""Finite quandles, their (co)homology, and 2-cocycle knot invariants."""

from .quandles import (
    AxiomViolation,
    MalformedTableError,
    OrbitPartition,
    QuandleTable,
    ValidationReport,
    dihedral_quandle,
    enumerate_quandles,
    load_quandle_file,
    orbits,
    trivial_quandle,
    validate_quandle,
)
from .chains import boundary_columns
from .homology import (
    QQ,
    ZZ,
    AbelianGroupDescriptor,
    Cochain2,
    CoefficientGroup,
    Zm,
    cocycle_basis,
    cohomology_group,
    homology_group,
)

from .diagrams import (
    CORPUS_NAMES,
    FaceSet,
    PDDiagram,
    PDStructureError,
    PDSyntaxError,
    faces,
    load_diagram,
    named_diagram,
    parse_pd,
    shading_signs,
)
from .invariants import (
    DiagramEngine,
    GroupRingValue,
    check_eps_alternation,
    coloring_table,
    enumerate_colorings,
    is_trivial,
    state_sum,
)

__version__ = "0.1.0"
