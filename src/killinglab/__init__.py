"""killinglab: numerical verification lab for unit Killing fields on odd spheres.

The package checks, at configurable sample scale and tolerance, the tensor
identities tying unit Killing fields to contact-type structures on odd
spheres; splits isometry algebras along the adjoint action of a chosen
generator; classifies orbit regularity of linear Killing flows with exact
rate arithmetic; and builds the example metrics (round, quaternionic triple,
circle-bundle lift, boundary-localized deformation, inhomogeneous-rate
deformation) the batteries run on.

Entry points: the ``killinglab`` CLI (verify / decompose / classify-flow)
or the builder + battery functions re-exported here.
"""

from .algebra import (
    Decomposition,
    DegenerateClusterError,
    IsometryAlgebra,
    field_bracket,
    killing_inner,
    so_basis,
    standard_decomposition,
)
from .constructions import (
    build_deformed,
    build_flip_fixture,
    build_hopf,
    build_irregular,
    build_quaternionic,
    build_round,
)
from .flows import (
    ExactScalar,
    FlowClassification,
    RotationProfile,
    classify,
    numeric_orbit_probe,
    parse_rate,
    rotation_profile,
)
from .metrics import (
    LeviCivita,
    MetricDegeneracyError,
    MetricField,
    NumericalQualityError,
    VectorField,
    linear_field,
    round_metric,
)
from .report import CheckResult, VerificationReport
from .sphere import Chart, ChartDomainError, SampleSet, SpherePoint, sample_sphere
from .verify import (
    WEDGE_SIGN,
    check_anticommutators,
    check_kcontact,
    check_killing,
    check_nijenhuis,
    check_sasakian,
    check_triple_products,
    check_unit_length,
    horizontal_split,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "Chart", "ChartDomainError", "Decomposition",
    "DegenerateClusterError", "ExactScalar", "FlowClassification",
    "IsometryAlgebra", "LeviCivita", "MetricDegeneracyError", "MetricField",
    "NumericalQualityError", "RotationProfile", "SampleSet", "SpherePoint",
    "VectorField", "VerificationReport", "WEDGE_SIGN", "build_deformed",
    "build_flip_fixture", "build_hopf", "build_irregular",
    "build_quaternionic", "build_round", "check_anticommutators",
    "check_kcontact", "check_killing", "check_nijenhuis", "check_sasakian",
    "check_triple_products", "check_unit_length", "classify", "field_bracket",
    "horizontal_split", "killing_inner", "linear_field", "numeric_orbit_probe",
    "parse_rate", "rotation_profile", "round_metric", "sample_sphere", "so_basis",
    "standard_decomposition",
]
