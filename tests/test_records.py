"""The result records are values: equal fields give equal, equally hashed,
immutable records; the two mutable summaries compare by field and are
unhashable.  ``howe`` exports the same 67 public names, resolved lazily."""

import pytest

import howe
from howe import analyze, prime_field, roots, validate
from howe.irreducible import shape_b_test
from howe.reference import REFERENCE_EXAMPLES, ExampleOutcome
from howe.sampling import SampleSummary

PUBLIC_NAMES = (
    "BothZeroError", "BudgetExceededError", "ConstructionMismatchError",
    "DivisionByZeroError", "DuplicateRamificationPointError", "HoweError",
    "InfinityNotSupportedError", "MixedFieldsError", "MultiplicityExceedsTwoError",
    "NotSingularError", "UnsupportedDegreeError", "UnsupportedFieldError",
    "ZeroPolynomialError",
    "ExtensionField", "Field", "FieldElement", "PrimeField", "RationalField",
    "build_extension", "is_prime", "prime_field", "rational_field",
    "Root", "UniPoly", "factor_rational", "gcd", "is_irreducible", "resultant",
    "roots", "squarefree_decomposition",
    "BiPoly", "HomPoly", "homogenize",
    "COEFF_NAMES", "RamificationData", "SexticCoefficients", "SexticModel",
    "assemble_sextic", "build_model", "sextic_coeffs", "sextic_from_quartics", "validate",
    "Certificate", "SingularityType", "SingularPoint", "brute_force_singular_scan",
    "classify", "genus_bound_check", "h1_poly", "rational_point_set",
    "singular_points", "verify_multiplicity_two",
    "CaseResiduals", "IrreducibilityVerdict", "is_absolutely_irreducible", "shape_b_test",
    "AnalysisReport", "analyze", "euler_relation_holds", "render_text", "to_json",
    "REFERENCE_EXAMPLES", "reference_data", "run_reference_checks",
    "SampleSummary", "draw_branch_data", "sample_types",
)


def twin_reports():
    """Two reports of the bundled I-1 example, built independently."""
    F = prime_field(31)

    def build():
        return analyze(validate([F(v) for v in (0, 1, -1, 20)],
                                [F(v) for v in (28, 16, 7, 27)]))

    return build(), build()


def frozen_pairs():
    a, b = twin_reports()
    root_a = roots(a.rd.phi1, 1)[0]
    root_b = roots(b.rd.phi1, 1)[0]
    ex = REFERENCE_EXAMPLES[0]
    return {
        "RamificationData": (a.rd, b.rd),
        "SexticCoefficients": (a.model.coeffs, b.model.coeffs),
        "SexticModel": (a.model, b.model),
        "SingularityType": (a.classification, b.classification),
        "SingularPoint": (a.points[0], b.points[0]),
        "Certificate": (a.points[0].certificate, b.points[0].certificate),
        "CaseResiduals": (shape_b_test(a.rd)[0], shape_b_test(b.rd)[0]),
        "IrreducibilityVerdict": (a.verdict, b.verdict),
        "AnalysisReport": (a, b),
        "Root": (root_a, root_b),
        "ReferenceExample": (ex, type(ex)(**ex._asdict())),
    }


@pytest.mark.parametrize("name", sorted(frozen_pairs()))
def test_frozen_record_is_a_value(name):
    a, b = frozen_pairs()[name]
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    try:
        h = hash(a)
    except TypeError:  # a field (a dict, a BiPoly) is unhashable, as before
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert h == hash(b)
    field = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1


def test_record_defaults_properties_and_repr():
    report, _ = twin_reports()
    rd = report.rd
    assert rd.field == prime_field(31)
    assert repr(rd) == "RamificationData(alpha=(0, 1, 30, 20), beta=(28, 16, 7, 27) over F_31)"
    assert report.model.field == rd.field
    assert report.classification.total == 4
    point = report.points[0]
    assert (point.conjugate_count, point.multiplicity) == (1, 2)
    assert point.certificate.note == ""


@pytest.mark.parametrize("make", [
    lambda: SampleSummary(3, 7, {"I-1": 3}, {4: 3}),
    lambda: ExampleOutcome("I-1", False, ["type: expected I-1, got I-2"]),
])
def test_mutable_summary_compares_by_field(make):
    a, b = make(), make()
    assert a == b and not a != b
    with pytest.raises(TypeError):
        hash(a)
    first = type(a).__slots__[0]
    setattr(b, first, getattr(b, first) * 2)
    assert a != b


def test_mutable_summary_defaults_are_fresh():
    a, b = SampleSummary(0, 0), SampleSummary(0, 0)
    assert a.type_counts == {} and a.type_counts is not b.type_counts
    assert a.irreducibility_failures == 0
    assert ExampleOutcome("x", True).diffs == []


def test_public_names_resolve():
    assert howe.__all__ == list(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(howe, name) is not None, name
        assert name in vars(howe), name  # cached after the first access
    namespace = {}
    exec("from howe import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(howe, name) for name in PUBLIC_NAMES)
    with pytest.raises(AttributeError):
        howe.not_a_name  # noqa: B018
