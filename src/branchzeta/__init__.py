"""Plane-branch singularity invariants and the Gamma-ratio residue kernel.

Every public name, and every submodule, resolves from its module on first
use (PEP 562), so `import branchzeta` loads no layer: the combinatorial half
(branch, toric, poles, curves) and the analytic half (gammaratio, and
quadrature with numpy) are each imported only by what uses them.  Nothing is
cached here, so a name always reads its module's current attribute.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each module, by the module that defines them
_PUBLIC = {
    "branch": (
        "BranchNumerics", "CharSeq", "PlaneSemigroup", "ToricStep", "ValidationReport",
        "canonical_representation", "charseq_from_semigroup", "derive_numerics", "gaps",
        "membership", "parse_input", "resolve_input", "validate_plane_semigroup",
    ),
    "errors": (
        "BranchZetaError", "ConvergenceFailure", "DomainError", "InvalidCharSeq",
        "InvalidCutoff", "InvalidIndices", "IndexOutOfRange", "NegativeCoefficient",
        "NotInSemigroup", "NotPlaneBranchSemigroup", "PreconditionViolated", "ZeroLambda",
    ),
    "poles": (
        "BranchReport", "CandidatePole", "EigenvalueAnalysis", "ExponentMultiset",
        "PoleStatus", "Resonance", "branch_report", "candidate_pole", "eigenvalue_analysis",
        "log_canonical_threshold", "pi_multisets", "yano_multiset",
    ),
    "toric": (
        "DivisorNumerics", "bell_polynomial", "divisor_numerics", "linear_forms", "toric_steps",
    ),
    "gammaratio": (
        "MeromorphicValue", "RnmParams", "gamma_pair", "gamma_ratio", "hypergeom_sum_at_1",
        "rnm_closed_form", "symmetry_check", "symmetry_pair",
    ),
    "quadrature": (
        "QuadConfig", "radial_mass", "rnm_quadrature", "vanishing_integral_check",
        "vanishing_symbolic_cancellation",
    ),
    "curves": (
        "DeformationFamily", "DeformationTerm", "SparsePoly", "deformation_family",
        "monomial_curve_equations", "plane_equation", "weight_of_monomial",
    ),
    "cli": (),
}
_HOME = {name: mod for mod, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _PUBLIC:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_PUBLIC})
