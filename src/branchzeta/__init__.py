"""Plane-branch singularity invariants and the Gamma-ratio residue kernel."""

from .branch import (
    BranchNumerics,
    CharSeq,
    PlaneSemigroup,
    ValidationReport,
    canonical_representation,
    charseq_from_semigroup,
    derive_numerics,
    gaps,
    membership,
    resolve_input,
    validate_plane_semigroup,
)
from .branch import parse_input
from .errors import (
    BranchZetaError,
    ConvergenceFailure,
    DomainError,
    InvalidCharSeq,
    InvalidCutoff,
    InvalidIndices,
    IndexOutOfRange,
    NegativeCoefficient,
    NotInSemigroup,
    NotPlaneBranchSemigroup,
    PreconditionViolated,
    ZeroLambda,
)
from .poles import (
    BranchReport,
    CandidatePole,
    EigenvalueAnalysis,
    ExponentMultiset,
    PoleStatus,
    Resonance,
    branch_report,
    candidate_pole,
    eigenvalue_analysis,
    log_canonical_threshold,
    pi_multisets,
    residue_numbers,
    yano_multiset,
)
from .toric import (
    DivisorNumerics,
    ToricStep,
    bell_polynomial,
    divisor_numerics,
    linear_forms,
    toric_steps,
)
from .gammaratio import (
    MeromorphicValue,
    RnmParams,
    gamma_pair,
    gamma_ratio,
    hypergeom_sum_at_1,
    log_gamma,
    rnm_closed_form,
    symmetry_check,
    symmetry_pair,
)
from .curves import (
    DeformationFamily,
    DeformationTerm,
    SparsePoly,
    deformation_family,
    monomial_curve_equations,
    plane_equation,
    weight_of_monomial,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the quadrature needs numpy, which costs more to import than all the
    # rest: its names resolve from branchzeta.quadrature when used
    if name in ("QuadConfig", "radial_mass", "rnm_quadrature",
                "vanishing_integral_check", "vanishing_symbolic_cancellation"):
        from . import quadrature

        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
