"""Finite quandles, their (co)homology, and 2-cocycle knot invariants."""

from .quandles import (
    AxiomViolation,
    MalformedTableError,
    OrbitPartition,
    QuandleTable,
    ValidationReport,
    are_isomorphic,
    conjugation_quandle,
    dihedral_quandle,
    dual,
    enumerate_quandles,
    load_quandle_file,
    orbits,
    subquandle_on_orbit,
    trivial_quandle,
    validate_quandle,
)
from .chains import ComplexReport, boundary_columns, tuple_basis, verify_complex_identities
from .homology import (
    QQ,
    ZZ,
    AbelianGroupDescriptor,
    Cochain2,
    CoefficientGroup,
    Zm,
    coboundary_basis,
    coboundary_of,
    cocycle_basis,
    cohomology_class_order,
    cohomology_group,
    homology_group,
    rank_split_check,
    restrict_cocycle,
)

from .diagrams import (
    CORPUS_NAMES,
    ArcSet,
    CrossingSigns,
    FaceSet,
    PDDiagram,
    PDStructureError,
    PDSyntaxError,
    Shading,
    arcs,
    checkerboard,
    faces,
    load_diagram,
    named_diagram,
    parse_pd,
    signs,
)
from .invariants import (
    DiagramEngine,
    GroupRingValue,
    LemmaReport,
    check_eps_alternation,
    coloring_table,
    enumerate_colorings,
    is_trivial,
    state_sum,
    translation_lemmas,
)

__version__ = "0.1.0"
