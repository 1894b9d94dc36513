"""Built-in reference examples over F_31, one per singularity type.

Each record fixes (alpha1, alpha2, alpha3) = (0, 1, -1), gives alpha4 and
the four beta values, and pins the full expected analysis: the thirteen
sextic coefficients, the singularity type with its (affine, infinity)
counts, the exact singular point set, and the resultant or discriminant
values the classification branch reads.  ``run_reference_checks`` replays
the pipeline on every record and reports any difference field by field.
"""

from __future__ import annotations

from typing import NamedTuple

from .field import prime_field
from .report import analyze, element_json
from .sextic import validate

REFERENCE_PRIME = 31


class ReferenceExample(NamedTuple):
    name: str
    alpha4: int
    betas: tuple
    coefficients: dict
    label: str
    affine_count: int
    infinity_count: int
    affine_points: tuple  # x-coordinates of the affine singular points
    res_h1_h1p: int | None = None
    res_h1p_h1pp: int | None = None
    disc_h1: int | None = None


REFERENCE_EXAMPLES = (
    ReferenceExample(
        "I-1", 20, (28, 16, 7, 27),
        {
            "c60": 16, "c50": 22, "c42": 27, "c40": 23, "c32": 10, "c30": 13,
            "c22": 14, "c20": 16, "c12": 29, "c10": 10, "c04": 1, "c02": 9,
            "c00": 28,
        },
        "I-1", 3, 1, (24, 4, 12), res_h1_h1p=27,
    ),
    ReferenceExample(
        "I-2", 11, (2, 13, 29, 22),
        {
            "c60": 18, "c50": 25, "c42": 27, "c40": 24, "c32": 30, "c30": 20,
            "c22": 27, "c20": 18, "c12": 8, "c10": 30, "c04": 1, "c02": 25,
            "c00": 9,
        },
        "I-2", 2, 1, (25, 7), res_h1_h1p=0, res_h1p_h1pp=5,
    ),
    ReferenceExample(
        "I-3", 7, (2, 5, 8, 19),
        {
            "c60": 16, "c50": 26, "c42": 27, "c40": 26, "c32": 20, "c30": 18,
            "c22": 13, "c20": 24, "c12": 19, "c10": 15, "c04": 1, "c02": 29,
            "c00": 1,
        },
        "I-3", 1, 1, (12,), res_h1_h1p=0, res_h1p_h1pp=0,
    ),
    ReferenceExample(
        "II-1", 8, (12, 26, 28, 4),
        {
            "c60": 0, "c50": 0, "c42": 27, "c40": 4, "c32": 1, "c30": 14,
            "c22": 8, "c20": 23, "c12": 6, "c10": 13, "c04": 1, "c02": 17,
            "c00": 18,
        },
        "II-1", 2, 2, (14, 23), disc_h1=14,
    ),
    ReferenceExample(
        "II-2", 5, (2, 10, 26, 29),
        {
            "c60": 0, "c50": 0, "c42": 27, "c40": 19, "c32": 20, "c30": 22,
            "c22": 17, "c20": 12, "c12": 12, "c10": 17, "c04": 1, "c02": 3,
            "c00": 10,
        },
        "II-2", 1, 2, (25,), disc_h1=0,
    ),
    ReferenceExample(
        "II-3", 29, (2, 7, 14, 6),
        {
            "c60": 0, "c50": 0, "c42": 27, "c40": 0, "c32": 23, "c30": 0,
            "c22": 4, "c20": 28, "c12": 30, "c10": 13, "c04": 1, "c02": 4,
            "c00": 4,
        },
        "II-3", 1, 2, (28,),
    ),
    ReferenceExample(
        "II-4", 2, (8, 20, 24, 12),
        {
            "c60": 0, "c50": 0, "c42": 27, "c40": 0, "c32": 8, "c30": 0,
            "c22": 4, "c20": 0, "c12": 23, "c10": 0, "c04": 1, "c02": 3,
            "c00": 10,
        },
        "II-4", 0, 2, (),
    ),
)


class ExampleOutcome:
    """The verdict on one reference example and its differences, if any."""

    __slots__ = ("name", "passed", "diffs")

    def __init__(self, name: str, passed: bool, diffs=None):
        self.name = name
        self.passed = passed
        self.diffs = [] if diffs is None else diffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    __hash__ = None  # mutable


def reference_data(example: ReferenceExample):
    """The validated branch data of one reference record."""
    F = prime_field(REFERENCE_PRIME)
    alphas = [F(0), F(1), F(-1), F(example.alpha4)]
    betas = [F(b) for b in example.betas]
    return validate(alphas, betas)


def run_reference_checks(seed: int = 0):
    """Replay every reference example and diff against the pinned data."""
    outcomes = []
    for ex in REFERENCE_EXAMPLES:
        diffs = []
        rd = reference_data(ex)
        report = analyze(rd, seed)
        got_coeffs = {k: element_json(v) for k, v in report.model.coeffs.as_dict().items()}
        for key, want in ex.coefficients.items():
            if got_coeffs[key] != want:
                diffs.append(f"coefficient {key}: expected {want}, got {got_coeffs[key]}")
        kind = report.classification
        if kind.label != ex.label:
            diffs.append(f"type: expected {ex.label}, got {kind.label}")
        if (kind.affine_count, kind.infinity_count) != (ex.affine_count, ex.infinity_count):
            diffs.append(
                f"counts: expected ({ex.affine_count}, {ex.infinity_count}), "
                f"got ({kind.affine_count}, {kind.infinity_count})"
            )
        got_points = {
            tuple(c.val for c in p.coords) for p in report.points if p.coords is not None
        }
        want_points = {(x, 0, 1) for x in ex.affine_points} | {(0, 1, 0)}
        if ex.infinity_count == 2:
            want_points.add((1, 0, 0))
        if got_points != want_points:
            diffs.append(f"points: expected {sorted(want_points)}, got {sorted(got_points)}")
        for attr, want in (
            ("res_h1_h1p", ex.res_h1_h1p),
            ("res_h1p_h1pp", ex.res_h1p_h1pp),
            ("disc_h1", ex.disc_h1),
        ):
            if want is None:
                continue
            got = getattr(kind, attr)
            if got is None or got.val != want:
                diffs.append(f"{attr}: expected {want}, got {got}")
        if not report.verdict.irreducible:
            diffs.append("irreducibility: expected irreducible")
        for check, ok in report.checks.items():
            if not ok:
                diffs.append(f"check failed: {check}")
        outcomes.append(ExampleOutcome(ex.name, not diffs, diffs))
    return outcomes
