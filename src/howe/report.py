"""Full analysis pipeline and its serialisable report.

One call runs: validation, coefficient formulas, the polynomial-arithmetic
cross-check, singularity classification and location with multiplicity
certificates, the irreducibility certificate, and the structural invariants
(Euler relation, square restriction to y = 0, genus bound).  The JSON form
is key-ordered, and neither it nor the text form carries timings, so equal
inputs render byte-identically.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .bipoly import HomPoly
from .field import Field, FieldElement
from .irreducible import IrreducibilityVerdict, is_absolutely_irreducible
from .sextic import RamificationData, SexticModel, build_model
from .singular import (
    SingularityType,
    SingularPoint,
    classify,
    genus_bound_check,
    h1_poly,
    singular_points,
)
from .unipoly import UniPoly

SCHEMA_VERSION = 1


def euler_relation_holds(F: HomPoly) -> bool:
    """deg(F) * F = x F_x + y F_y + z F_z as a polynomial identity.

    Decided term by term, with no partial built: x F_x + y F_y + z F_z
    multiplies the term c x^i y^j z^k by i + j + k, so the difference of
    the two sides has coefficient (deg(F) - (i + j + k)) c at that term.
    The identity therefore holds exactly when the total degree of every
    nonzero term is congruent to deg(F) modulo the characteristic (equal to
    it over Q).  The constructor enforces equality, so only a ``terms``
    dict edited afterwards can fail.  The partial-derivative route is the
    tests' oracle.
    """
    char = F.field.characteristic
    for (i, j, k), c in F.terms.items():
        gap = F.degree - (i + j + k)
        if gap and (char == 0 or gap % char) and not c.is_zero:
            return False
    return True


class AnalysisReport(NamedTuple):
    rd: RamificationData
    model: SexticModel
    h1: UniPoly
    classification: SingularityType
    points: tuple
    verdict: IrreducibilityVerdict
    checks: dict
    seed: int


def analyze(rd: RamificationData, seed: int = 0) -> AnalysisReport:
    """Run the pipeline once; each stage's result is passed on, not redone.

    ``build_model`` compares the coefficient formulas with the direct
    assembly and raises on a mismatch, so ``assembly_matches_formulas`` is
    true once it has returned.  Likewise ``is_absolutely_irreducible``
    certifies or raises, so ``irreducible`` is true on every returned report.
    """
    model = build_model(rd)
    h1 = h1_poly(rd)
    kind = classify(rd)
    points = tuple(singular_points(rd, seed, model, kind))
    verdict = is_absolutely_irreducible(rd)
    checks = {
        "assembly_matches_formulas": True,
        "euler_relation": euler_relation_holds(model.F),
        "y0_restriction_is_h1_squared": model.f.y_slice(0) == h1 * h1,
        "constants_c42_c04": model.coeffs.c42 == rd.field(-4)
        and model.coeffs.c04 == rd.field.one,
        "total_singularities_in_range": kind.total in (2, 3, 4),
        "genus_bound": genus_bound_check(kind),
        "irreducible": verdict.irreducible,
    }
    return AnalysisReport(rd, model, h1, kind, points, verdict, checks, seed)


# -- serialisation -----------------------------------------------------------


def element_json(v: FieldElement):
    val = v.val
    if isinstance(val, int):
        return val
    if isinstance(val, Fraction):
        return str(val)
    return list(val)  # extension field coefficient vector


def field_json(field: Field) -> dict:
    if field.kind == "prime":
        return {"kind": "prime", "p": field.p}
    if field.kind == "extension":
        return {"kind": "extension", "p": field.p, "degree": field.k,
                "modulus": list(field.modulus)}
    return {"kind": "rational"}


def point_json(pt: SingularPoint) -> dict:
    cert = {
        "partial": pt.certificate.partial,
        "value": None if pt.certificate.value is None else element_json(pt.certificate.value),
    }
    if pt.certificate.note:
        cert["note"] = pt.certificate.note
    return {
        "coords": None if pt.coords is None else [element_json(c) for c in pt.coords],
        "at_infinity": pt.at_infinity,
        "extension_degree": pt.extension_degree,
        "minimal_poly": None if pt.minimal_poly is None else str(pt.minimal_poly),
        "conjugates": pt.conjugate_count,
        "multiplicity": pt.multiplicity,
        "certificate": cert,
    }


def report_json(report: AnalysisReport) -> dict:
    rd = report.rd
    c = report.model.coeffs
    kind = report.classification
    verdict = report.verdict
    singularity = {
        "type": kind.label,
        "affine_count": kind.affine_count,
        "infinity_count": kind.infinity_count,
        "total": kind.total,
        "resultant_h1_h1prime": _opt(kind.res_h1_h1p),
        "resultant_h1prime_h1doubleprime": _opt(kind.res_h1p_h1pp),
        "discriminant_h1": _opt(kind.disc_h1),
        "points": [point_json(p) for p in report.points],
    }
    irreducibility = {
        "irreducible": verdict.irreducible,
        # null: the certificate holds or raises; the keys keep the schema
        "shape_a_witness": None,
        "shape_b_witness": None,
        "shape_b_residuals": {
            case.case: [element_json(r) for r in case.residuals]
            for case in verdict.shape_b_residuals
        },
    }
    return {
        "schema": SCHEMA_VERSION,
        "field": field_json(rd.field),
        "input": {
            "alpha": [element_json(a) for a in rd.alphas],
            "beta": [element_json(b) for b in rd.betas],
            "seed": report.seed,
        },
        "symmetric_functions": {
            "sigma": [element_json(s) for s in rd.sigma],
            "tau": [element_json(t) for t in rd.tau],
        },
        "coefficients": {k: element_json(v) for k, v in c.as_dict().items()},
        "sextic": str(report.model.f),
        "projective_closure": str(report.model.F),
        "h1": str(report.h1),
        "singularity": singularity,
        "irreducibility": irreducibility,
        "checks": dict(report.checks),
    }


def _opt(v):
    return None if v is None else element_json(v)


def to_json(report: AnalysisReport) -> str:
    return json.dumps(report_json(report), indent=2)


def render_text(report: AnalysisReport) -> str:
    rd = report.rd
    kind = report.classification
    lines = []
    lines.append(f"field: {rd.field}")
    lines.append(f"alpha: ({', '.join(str(a) for a in rd.alphas)})")
    lines.append(f"beta:  ({', '.join(str(b) for b in rd.betas)})")
    lines.append(f"sigma: ({', '.join(str(s) for s in rd.sigma)})")
    lines.append(f"tau:   ({', '.join(str(t) for t in rd.tau)})")
    lines.append("")
    lines.append(f"sextic f = {report.model.f}")
    lines.append(f"h1 = {report.h1}")
    lines.append("")
    lines.append(
        f"singularity type {kind.label}: {kind.affine_count} affine + "
        f"{kind.infinity_count} at infinity = {kind.total} double points"
    )
    if kind.res_h1_h1p is not None:
        lines.append(f"  Res(h1, h1') = {kind.res_h1_h1p}")
    if kind.res_h1p_h1pp is not None:
        lines.append(f"  Res(h1', h1'') = {kind.res_h1p_h1pp}")
    if kind.disc_h1 is not None:
        lines.append(f"  disc(h1) = {kind.disc_h1}")
    for pt in report.points:
        if pt.coords is not None:
            x, y, z = pt.coords
            loc = f"({x}:{y}:{z})"
        else:
            loc = f"{pt.conjugate_count} conjugate points, min poly {pt.minimal_poly}"
        cert = pt.certificate
        cval = cert.value if cert.value is not None else cert.note
        lines.append(
            f"  {loc}  multiplicity {pt.multiplicity}, degree {pt.extension_degree},"
            f" certificate {cert.partial} = {cval}"
        )
    lines.append("")
    lines.append(f"absolutely irreducible: {report.verdict.irreducible}")
    for name, ok in report.checks.items():
        lines.append(f"check {name}: {'ok' if ok else 'FAILED'}")
    return "\n".join(lines)
