"""Exact combinatorics of branch-point divisors on fully ramified cyclic covers.

The package models curves w^n = prod (z - lambda_i)^{alpha_i}, enumerates
the non-special branch-point-supported divisors through exact cardinality
conditions, implements the divisor operators and the dihedral group acting
on them, computes the integer exponent functions f^(n)_d, and assembles the
symbolic product-of-differences denominators whose invariance properties it
can verify formally.

Importing the package loads none of its modules: each name below is looked
up in its module on first use (PEP 562), so ``thomae --version`` and a
counting job start only what they run.
"""

from importlib import import_module

__version__ = "0.1.0"

# every exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "curve": """BranchPoint CurveError CurveSpec ThomaeError curve_from_dict e_factor
            k_inverse load_curve""",
        "denominators": """EvalMode ExponentMatrix degree evaluate full_denominator
            matrix_quotient matrix_to_dict pmt_denominator pmt_gamma_denominator
            reduce_matrix theta_relation_shift""",
        "divisors": """CardinalityMatrix DivisorError DivisorKind LeveledDivisor
            brute_force_divisors count_base_point_free count_divisors divisor_from_exponents
            enumerate_cardinality_matrices enumerate_divisors expand_matrix
            satisfies_conditions specialty_index""",
        "ffunctions": """ClosedFormUnavailable FFunctionTable f_chain f_closed_form f_recursive
            f_sign_flip""",
        "operators": """AdmissibilityError GroupElement a_value apply_group apply_M apply_N
            apply_N_beta apply_T apply_T_hat b_value base_point_representative t_admissible
            t_hat_admissible""",
        "orbits": """CountReport FamilyCount FamilySpec OrbitGraph ReachabilityPreconditionError
            build_graph count_family difbeta_hypothesis difbeta_reachability
            fit_count_polynomial""",
        "verify": "Finding run_suite",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """The exported ``name`` from its module, kept here once looked up."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
