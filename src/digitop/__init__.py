"""digitop: a verification laboratory for fixed-point claims on
digital metric spaces.

Digital images are finite sets of lattice points under a c_u
adjacency; spaces pair an image with an exact metric; maps, contractive
conditions, iteration schemes, and counterexample searches build on
those, all with exact arithmetic wherever the metric allows it.
"""

from .contracts import (
    ConditionReport,
    ConstancyReport,
    PairDominationReport,
    check_banach,
    check_ciric5,
    check_kannan,
    check_pair_domination,
    check_quasi,
    check_saluja,
    compatible,
    lipschitz_min,
    parv_rational_check,
    weakly_commutative,
)
from .documents import (
    DocumentError,
    ParsedDocument,
    load_document,
    parse_document,
    serialize_document,
)
from .exact import RadicalSum, compare, exact_le, exact_lt, sqrt_exact, value_str
from .fixpoint import (
    CONFIRMS,
    HYPOTHESIS_FAILS,
    REFUTES,
    StabilityVerdict,
    TheoremReport,
    alternating_orbit,
    banach_verify,
    kannan_descent_constant,
    kannan_verify,
    t_stability_verdict,
)
from .mapkit import (
    AffineFixedPoints,
    AffineMapZ,
    EnumerationBudgetError,
    EVENTUALLY_CONSTANT,
    EVENTUALLY_PERIODIC,
    FppVerdict,
    MapValidationError,
    OrbitReport,
    SelfMap,
    TRUNCATED,
    accumulation_points,
    affine_analyze,
    affine_dominates,
    compose,
    continuity_violation,
    enumerate_selfmaps,
    fixed_points,
    has_fpp,
    is_continuous,
    orbit,
    validate_selfmap,
)
from .metric import (
    L1,
    L2,
    SHORTEST_PATH,
    DigitalMetricSpace,
    DiscretenessCertificate,
    Lp,
    ShortestPath,
    discreteness_certificate,
    hausdorff,
)
from .search import (
    ASSERTIONS,
    SearchOutcome,
    SuiteReport,
    enumerate_map_pairs,
    find_counterexample,
    small_connected_images,
    verify_paper_suite,
)
from .space import (
    C1,
    C2,
    Adjacency,
    DigitalImage,
    Point,
    adjacent,
    as_point,
    components,
    digital_interval,
    is_connected,
)

__all__ = [name for name in dir() if not name.startswith("_")]
