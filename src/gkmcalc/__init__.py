"""Equivariant complex-oriented cohomology of GKM spaces, in exact arithmetic.

Formal group law arithmetic over truncated graded power-series rings,
classifying-space presentations, the moment-graph congruence solver, and
fixed-point localization integrals.
"""

from .scalars import (
    MOD_P,
    MORAVA,
    MULTIPLICATIVE,
    ORDINARY,
    RATIONAL,
    DegreeError,
    Theory,
    TheoryConfig,
    make_theory,
)
from .series import LaurentSeries, LeadingUnitError, TruncatedSeries, format_series
from .fgl import FormalGroupLaw, build_fgl, multiplicative_fgl
from .lattice import adapted_basis, primitive_part
from .classifying import (
    CyclicRingPresentation,
    RestrictionIdeal,
    character_class,
    cyclic_classifying_ring,
    kernel_ideal,
)
from .gkm import (
    EquivariantClass,
    FormalityReport,
    GKMEdge,
    GKMGraph,
    SolutionModule,
    check_formality,
    formality_prediction,
    mod_p_weight_warnings,
    solve_equivariant_cohomology,
    validate_graph,
)
from .localization import (
    GenericSlope,
    IntegrationReport,
    LocalizationError,
    euler_classes,
    find_generic_slope,
    integrate,
    iterate_generic_slopes,
    localize_class,
)
from .graphio import GraphDocument, GraphFileError, build_class, load_graph_document

__all__ = [
    "MOD_P",
    "MORAVA",
    "MULTIPLICATIVE",
    "ORDINARY",
    "RATIONAL",
    "DegreeError",
    "Theory",
    "TheoryConfig",
    "make_theory",
    "LaurentSeries",
    "LeadingUnitError",
    "TruncatedSeries",
    "format_series",
    "FormalGroupLaw",
    "build_fgl",
    "multiplicative_fgl",
    "adapted_basis",
    "primitive_part",
    "CyclicRingPresentation",
    "RestrictionIdeal",
    "character_class",
    "cyclic_classifying_ring",
    "kernel_ideal",
    "EquivariantClass",
    "FormalityReport",
    "GKMEdge",
    "GKMGraph",
    "SolutionModule",
    "check_formality",
    "formality_prediction",
    "mod_p_weight_warnings",
    "solve_equivariant_cohomology",
    "validate_graph",
    "GenericSlope",
    "IntegrationReport",
    "LocalizationError",
    "euler_classes",
    "find_generic_slope",
    "integrate",
    "iterate_generic_slopes",
    "localize_class",
    "GraphDocument",
    "GraphFileError",
    "build_class",
    "load_graph_document",
]
