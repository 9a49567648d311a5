"""Exact-rational measure codes on Cantor space.

Measures are represented by their cylinder-mass functions; every value is an
exact ``fractions.Fraction``.  The package covers cylinder evaluation and
validation, product measures with the parameterized dichotomy family, the
spine codec that embeds bitstrings into measure classes, finite-depth
orthogonality certificates, and a small description language with a CLI.
"""

from .bits import (
    BitSequence,
    CallableBits,
    FlippedBits,
    ONES,
    PeriodicBits,
    ZEROS,
    from_bits,
)
from .codec import (
    CodedMeasure,
    DEFAULT_BUDGET,
    NOT_YET_STABLE,
    NotYetStable,
    SplittingSpine,
    Stabilized,
    decode,
    density,
    density_limit,
    encode,
    in_coding_domain,
    offspine_decomposition,
    spine,
)
from .dsl import parse, parse_pattern, parse_schedule, print_measure, print_schedule
from .errors import (
    BudgetExceeded,
    CmcError,
    Diagnostic,
    NotInCodingDomain,
    NotSerializable,
    SemanticError,
    ZeroMass,
)
from .kakutani import (
    DivergenceCertificate,
    EquivalentFiniteDifference,
    HellingerReport,
    OrthogonalEvidence,
    classify_pair,
    ei_divergence_certificate,
    ei_partial_sum,
    hellinger_partial,
    perfect_family,
)
from .measures import (
    Convex,
    CylinderFamily,
    Dirac,
    FiniteSupport,
    MeasureCode,
    ProductCode,
    TableCode,
    Uniform,
    Violation,
    enumerate_dense,
    eval_cylinder,
    measure_of_family,
    metric_bracket,
    product_code,
    validate_additivity,
)
from .orthogonality import (
    AtomWitness,
    Extension,
    Failure,
    FamilyBuildResult,
    Inconclusive,
    Modulus,
    OrthoCertificate,
    RefutationWitness,
    build_family,
    continuity_modulus,
    extend_family,
    gap,
    ortho_certificate,
    refute_abs_continuity,
)
from .schedules import (
    ConstantSchedule,
    ExplicitSchedule,
    KSSchedule,
    Schedule,
    inv_sqrt_trunc,
    ks_schedule,
)

__version__ = "0.1.0"
