"""sparsemult: exact constructions and certification of root multiplicities
for sparse bivariate polynomial systems.

The package builds systems with prescribed local intersection
multiplicities from their Newton supports, re-checks every claim with
exact arithmetic (sharing the constructors' Newton code, so not
independently), and classifies support pairs by the multiplicities they
admit (including the multiplicity-3 decision by mixed volume).  All
computation is over Q; nothing here floats.
"""

__version__ = "0.1.0"

from .errors import (
    ConstructionFailure,
    HypothesisViolation,
    InputError,
    RetryBudgetExhausted,
    VerificationError,
)
from .lattice import (
    INFINITE_INDEX,
    LatticePolygon,
    SupportSet,
    UnimodularAffineMap,
    area2,
    convex_hull,
    erode,
    is_segment,
    lattice_points,
    mixed_volume,
    normal_form,
    primitivity_index,
)
from .algebra import (
    LaurentPolynomial,
    MPoly,
    TruncatedSeries,
    UnivariatePolynomial,
    det,
    factor_out_roots,
    integer_kernel,
    kernel_basis,
    rank,
    rational_roots,
)
from .branches import (
    BranchParametrization,
    branch_series,
    compute_dim_V,
    is_multiple_of,
    osculating_matrix,
)
from .construct import (
    DEFAULT_SEED,
    ConstructedSystem,
    build_gap_family_member,
    build_line_product_system,
    construct_multipoint,
    construct_prescribed,
    construct_univariate,
    contact_bound,
    gap_family_achievable_set,
    gap_family_supports,
    line_contact_construct,
)
from .verify import (
    NON_ISOLATED,
    Certificate,
    gap_family_phi,
    intersection_multiplicity_smooth,
    origin_multiplicity_line_product,
    rank_impossibility,
    replay,
    segment_product_multiplicity,
    univariate_multiplicity,
)
from .classify import (
    Mult3Report,
    TriangleClass,
    decide_mult3,
    hessian_at_one,
    match_exceptional_family,
    triangle_inflection,
)
