"""Plane sextic models for genus-5 curves glued from two genus-1 double covers.

Given eight pairwise distinct branch values over F_p (p >= 5), an extension
field, or Q, this package builds the associated singular plane sextic in
closed form, certifies its absolute irreducibility by an exhaustive
factorization-shape analysis, and classifies and locates all singular
points of its projective closure (always 2, 3, or 4 double points).
"""

from .errors import (
    BothZeroError,
    BudgetExceededError,
    ConstructionMismatchError,
    DivisionByZeroError,
    DuplicateRamificationPointError,
    HoweError,
    InfinityNotSupportedError,
    MixedFieldsError,
    MultiplicityExceedsTwoError,
    NotSingularError,
    UnsupportedDegreeError,
    UnsupportedFieldError,
    ZeroPolynomialError,
)
from .field import (
    ExtensionField,
    Field,
    FieldElement,
    PrimeField,
    RationalField,
    build_extension,
    is_prime,
    prime_field,
    rational_field,
)
from .unipoly import (
    Root,
    UniPoly,
    factor_rational,
    gcd,
    is_irreducible,
    resultant,
    roots,
    squarefree_decomposition,
)
from .bipoly import BiPoly, HomPoly, homogenize
from .sextic import (
    COEFF_NAMES,
    RamificationData,
    SexticCoefficients,
    SexticModel,
    assemble_sextic,
    build_model,
    sextic_coeffs,
    sextic_from_quartics,
    validate,
)
from .singular import (
    Certificate,
    SingularityType,
    SingularPoint,
    brute_force_singular_scan,
    classify,
    genus_bound_check,
    h1_poly,
    rational_point_set,
    singular_points,
    verify_multiplicity_two,
)
from .irreducible import (
    CaseResiduals,
    IrreducibilityVerdict,
    is_absolutely_irreducible,
    shape_b_test,
)
from .report import AnalysisReport, analyze, euler_relation_holds, render_text, to_json
from .reference import REFERENCE_EXAMPLES, reference_data, run_reference_checks
from .sampling import SampleSummary, draw_branch_data, sample_types

__version__ = "0.1.0"
