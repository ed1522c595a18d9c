"""Bottleneck coupling distances between normed monetary risk measures on
finite metric spaces, with explicit witnesses, gluing, and theorem audits."""

from .capacity import (
    Capacity,
    choquet_eval,
    cvar,
    dirac_capacity,
    expectation,
    mix_capacities,
    possibility,
    unanimity,
    var_quantile,
)
from .coupling import (
    CouplingWitness,
    FeasibilityVerdict,
    admissible,
    glue,
    lower_coupling,
    min_envelope,
    verify_coupling,
)
from .errors import (
    AxiomFailure,
    CouplingFailure,
    EmptySection,
    EmptySubset,
    InputFormatError,
    InvalidParams,
    MarginalMismatch,
    MetricError,
    OracleDisagreement,
    RiskdistError,
    SpaceMismatch,
)
from .measures import (
    AxiomReport,
    EqualityResult,
    RiskMeasure,
    black_box,
    choquet_measure,
    dirac,
    equal_measures,
    evaluate,
    lattice_max,
    lattice_min,
    mixture,
    pushforward,
    support,
    two_point_measure,
    verify_axioms,
)
from .metric import (
    AuditReport,
    DistanceResult,
    bottleneck_distance,
    convergence_audit,
    distance_matrix,
    lipschitz_control_check,
    metric_axiom_audit,
)
from .oracles import (
    ProbabilityVector,
    criterion_cross_check,
    strassen_feasible,
    winf_distance,
)
from .space import (
    FiniteMetricSpace,
    PointFunction,
    PointSubset,
    Relation,
    distance_levels,
    hausdorff_distance,
    modulus_of_continuity,
    product_space,
    sublevel_relation,
    validate_metric,
)
from .twopoint import ShapeFunction, TwoPointParams, two_point_eval

__version__ = "0.1.0"
