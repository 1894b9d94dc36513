"""Plane sextic models for genus-5 curves glued from two genus-1 double covers.

Given eight pairwise distinct branch values over F_p (p >= 5), an extension
field, or Q, this package builds the associated singular plane sextic in
closed form, certifies its absolute irreducibility by an exhaustive
factorization-shape analysis, and classifies and locates all singular
points of its projective closure (always 2, 3, or 4 double points).
"""

import importlib

# public name -> the submodule that defines it; ``import howe`` loads none of
# them, and each is imported on first access by ``__getattr__`` below
_EXPORTS = {
    "errors": (
        "BothZeroError", "BudgetExceededError", "ConstructionMismatchError",
        "DivisionByZeroError", "DuplicateRamificationPointError", "HoweError",
        "InfinityNotSupportedError", "MixedFieldsError", "MultiplicityExceedsTwoError",
        "NotSingularError", "UnsupportedDegreeError", "UnsupportedFieldError",
        "ZeroPolynomialError",
    ),
    "field": (
        "ExtensionField", "Field", "FieldElement", "PrimeField", "RationalField",
        "build_extension", "is_prime", "prime_field", "rational_field",
    ),
    "unipoly": (
        "Root", "UniPoly", "factor_rational", "gcd", "is_irreducible", "resultant",
        "roots", "squarefree_decomposition",
    ),
    "bipoly": ("BiPoly", "HomPoly", "homogenize"),
    "sextic": (
        "COEFF_NAMES", "RamificationData", "SexticCoefficients", "SexticModel",
        "assemble_sextic", "build_model", "sextic_coeffs", "sextic_from_quartics",
        "validate",
    ),
    "singular": (
        "Certificate", "SingularityType", "SingularPoint", "brute_force_singular_scan",
        "classify", "genus_bound_check", "h1_poly", "rational_point_set",
        "singular_points", "verify_multiplicity_two",
    ),
    "irreducible": (
        "CaseResiduals", "IrreducibilityVerdict", "is_absolutely_irreducible",
        "shape_b_test",
    ),
    "report": ("AnalysisReport", "analyze", "euler_relation_holds", "render_text", "to_json"),
    "reference": ("REFERENCE_EXAMPLES", "reference_data", "run_reference_checks"),
    "sampling": ("SampleSummary", "draw_branch_data", "sample_types"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule that defines ``name`` and cache the value (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
