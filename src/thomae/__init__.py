"""Exact combinatorics of branch-point divisors on fully ramified cyclic covers.

The package models curves w^n = prod (z - lambda_i)^{alpha_i}, enumerates
the non-special branch-point-supported divisors through exact cardinality
conditions, implements the divisor operators and the dihedral group acting
on them, computes the integer exponent functions f^(n)_d, and assembles the
symbolic product-of-differences denominators whose invariance properties it
can verify formally.
"""

from .curve import (
    BranchPoint,
    CurveError,
    CurveSpec,
    curve_from_dict,
    curve_to_dict,
    e_factor,
    k_inverse,
    load_curve,
    s_value,
)
from .denominators import (
    EvalMode,
    ExponentMatrix,
    degree,
    evaluate,
    full_denominator,
    matrix_quotient,
    matrix_to_dict,
    pmt_denominator,
    pmt_gamma_denominator,
    reduce_matrix,
    theta_relation_shift,
)
from .divisors import (
    CardinalityMatrix,
    DivisorError,
    DivisorKind,
    LeveledDivisor,
    brute_force_divisors,
    count_base_point_free,
    count_divisors,
    divisor_from_exponents,
    enumerate_cardinality_matrices,
    enumerate_divisors,
    expand_matrix,
    satisfies_conditions,
    specialty_index,
)
from .ffunctions import (
    ClosedFormUnavailable,
    FFunctionTable,
    c_constant,
    f_chain,
    f_closed_form,
    f_recursive,
    f_sign_flip,
)
from .operators import (
    AdmissibilityError,
    GroupElement,
    a_value,
    apply_group,
    apply_M,
    apply_N,
    apply_N_beta,
    apply_T,
    apply_T_hat,
    b_value,
    base_point_representative,
    t_admissible,
    t_hat_admissible,
    t_hat_partners,
)
from .orbits import (
    CountReport,
    FamilyCount,
    FamilySpec,
    OrbitGraph,
    ReachabilityPreconditionError,
    build_graph,
    count_family,
    difbeta_hypothesis,
    difbeta_reachability,
    fit_count_polynomial,
)
from .verify import Finding, run_suite

__version__ = "0.1.0"
