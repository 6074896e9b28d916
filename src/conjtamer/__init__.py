"""conjtamer: constructive conjugation of group actions on the interval and
the circle.

Given finitely many commuting (or nilpotently related, or free) C1
diffeomorphisms, the package builds explicit conjugacies that shrink their
Lipschitz constants toward 1 or their log-derivatives toward 0, follows the
whole path of conjugates, flattens hyperbolic periodic points, and detects
the crossed-interval patterns that obstruct any such taming.
"""

from .action import Action, validate_relations, word_realize
from .cohomology import (
    CohomSolution,
    PathSample,
    birkhoff_field,
    birkhoff_solution,
    cocycle_defect,
    log_density_normalizer,
    nilpotent_average_solution,
    path_of_conjugates,
)
from .diffeo import (
    DERIVATIVE_FLOOR,
    Diffeo,
    build_diffeo,
    compose,
    conjugate_action,
    conjugated_rotation,
    identity,
    invert,
    pwl_diffeo,
    rotation,
)
from .errors import (
    CertificationFailure,
    ConjTamerError,
    DegenerateDerivative,
    FlaggedSetNotInvariant,
    InfiniteHyperbolicSet,
    LambdaOutOfRange,
    NoAdmissibleRadius,
    NonConvergence,
    NonFinite,
    NonMonotone,
    NotCircle,
    NotPeriodic,
    RelationViolation,
    SizeOverflow,
    SpaceMismatch,
    SpecError,
    UnknownGenerator,
)
from .expressions import compile_expression
from .gridfn import GridFunction
from .periodic import (
    FlatteningMap,
    FlatteningReport,
    PeriodicOrbit,
    ResilientWitness,
    detect_resilient,
    find_periodic_points,
    flatten_conjugate,
    flatten_hyperbolic,
    orbit_multiplier,
    rotation_number,
)
from .pipeline import path_phi, run_pipeline
from .space import CIRCLE, INTERVAL, Space
from .specfile import (
    ActionSpec,
    PipelineParams,
    build_action,
    format_action_spec,
    load_action_spec,
    parse_action_spec,
)
from .taming import (
    DeroinMeasure,
    GeneratorTaming,
    TamingReport,
    deroin_cdf,
    pushforward_check,
    tame_lipschitz,
)
from .words import (
    ABELIAN,
    FREE,
    NILPOTENT,
    Presentation,
    Word,
    enumerate_ball,
)

__version__ = "0.1.0"

__all__ = [
    "ABELIAN",
    "Action",
    "ActionSpec",
    "CIRCLE",
    "CertificationFailure",
    "CohomSolution",
    "ConjTamerError",
    "DERIVATIVE_FLOOR",
    "DegenerateDerivative",
    "DeroinMeasure",
    "Diffeo",
    "FREE",
    "FlaggedSetNotInvariant",
    "FlatteningMap",
    "FlatteningReport",
    "GeneratorTaming",
    "GridFunction",
    "INTERVAL",
    "InfiniteHyperbolicSet",
    "LambdaOutOfRange",
    "NILPOTENT",
    "NoAdmissibleRadius",
    "NonConvergence",
    "NonFinite",
    "NonMonotone",
    "NotCircle",
    "NotPeriodic",
    "PathSample",
    "PeriodicOrbit",
    "PipelineParams",
    "Presentation",
    "RelationViolation",
    "ResilientWitness",
    "SizeOverflow",
    "SpaceMismatch",
    "Space",
    "SpecError",
    "TamingReport",
    "UnknownGenerator",
    "Word",
    "birkhoff_field",
    "birkhoff_solution",
    "build_action",
    "build_diffeo",
    "cocycle_defect",
    "compile_expression",
    "compose",
    "conjugate_action",
    "conjugated_rotation",
    "deroin_cdf",
    "detect_resilient",
    "enumerate_ball",
    "find_periodic_points",
    "flatten_conjugate",
    "flatten_hyperbolic",
    "format_action_spec",
    "identity",
    "invert",
    "load_action_spec",
    "log_density_normalizer",
    "nilpotent_average_solution",
    "orbit_multiplier",
    "parse_action_spec",
    "path_of_conjugates",
    "path_phi",
    "pushforward_check",
    "pwl_diffeo",
    "rotation",
    "rotation_number",
    "run_pipeline",
    "tame_lipschitz",
    "validate_relations",
    "word_realize",
    "__version__",
]
