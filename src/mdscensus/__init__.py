"""Exact censuses of MDS codes and linear sections of Grassmannians.

The package enumerates [n,k] MDS codes over small finite fields by two
independent brute-force strategies, computes weights of linear sections of
the embedded Grassmannian, and checks the three-term expansion of the count
in powers of the field size against exact ground truth.
"""

from .asymptotics import (
    AsymptoticParams,
    ConvergenceReport,
    ConvergenceRow,
    a2_closed_form,
    convergence,
    params,
    predicted_gamma,
)
from .census import (
    CensusResult,
    count_mds,
    count_mds_grassmannian_filter,
    count_mds_matrix_scan,
    gamma_closed_form,
)
from .exterior import (
    DualForm,
    FormProfile,
    MultiVector,
    form_profile,
    form_weight,
    interior_mult,
    multi_indices,
    pairing,
    pi_alpha,
    pi_gamma,
    plucker_embed,
    satisfies_plucker,
    wedge,
)
from .fields import GF, field_of_order, make_field
from .grassmann_code import (
    GrassmannCode,
    build_code,
    higher_weight_search,
    weight_spectrum,
)
from .linalg import (
    GrassmannPoint,
    MatrixGF,
    enumerate_grassmannian,
    gaussian_binomial,
    gl_order,
    minor,
    rank,
    rref,
)
from .sections import (
    InclusionExclusionReport,
    LinearSection,
    coordinate_section,
    inclusion_exclusion,
    section_cardinality,
    section_norm,
    structured_counts,
)

__version__ = "0.1.0"
