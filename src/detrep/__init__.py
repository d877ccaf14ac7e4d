"""Exact determinantal representations of plane curves.

Sections of small rank-two (and syzygy-type) bundles on the projective
plane are wedged into defining polynomials of curves; the package checks
the constructions exactly over the rationals: determinant identities,
pointwise independence, tangent-map surjectivity, multiplication-map
images, ideal containment ladders, and the analogous story on a product
of two lines.
"""

from .polynomials import (
    BigradedPoly,
    HomPoly,
    Mono3,
    ParseError,
    X,
    X0,
    X1,
    Y,
    Y0,
    Y1,
    Z,
    bimono_basis,
    divide_exact,
    h0_p2,
    mono_basis,
    parse_bipoly,
    parse_hompoly,
)
from .linalg import (
    CertificateError,
    ExactMatrix,
    LinearMapReport,
    Membership,
    in_column_space,
    kernel_basis,
    left_kernel_basis,
    rank,
    report,
    rref,
)
from .bundles import (
    AuditRow,
    BundleSpec,
    E,
    M,
    N,
    T,
    ambient_degrees,
    bundle_rank,
    det_degree,
    h0_bundle,
    inequality_audit,
    linearity_onset,
    relation_rows,
    select_E_d,
)
from .detmatrix import (
    GpliError,
    PolyMatrix,
    ReductionResult,
    Section,
    column_reduce_normalize,
    degeneracy_matrix,
    det_poly,
    is_gpli,
    shifted,
    wedge_curve,
)
from .tangent import (
    SectionQuotient,
    SectionSpace,
    TangentReport,
    quotient_by_pair,
    section_space,
    smoothness_check,
    tangent_map,
)
from .ideals import (
    ContainmentReport,
    CrosscheckReport,
    DisjointnessReport,
    USpace,
    component_dim,
    component_matrix,
    containment_degree,
    diagram_crosscheck,
    disjointness_check,
    mult_map_matrix,
    mult_map_report,
    u_generators,
)
from .biprojective import (
    QuadSections,
    dpsi_matrix,
    dpsi_report,
    monomial_cover_check,
    psi,
    witness_quad,
)
from .sampling import (
    DEFAULT_SEED,
    derive_rng,
    random_hompoly,
    random_pair,
    random_section,
    resolve_seed,
)

__version__ = "0.1.0"
