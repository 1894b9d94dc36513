"""Construction of the plane sextic model attached to two quartic branch loci.

Two genus-1 double covers  y1^2 = phi1(x)  and  y2^2 = phi2(x)  with eight
pairwise distinct finite branch values alpha_1..alpha_4, beta_1..beta_4 glue
to a curve whose function field is generated by x and y = y1 + y2.
Eliminating y1, y2 gives the degree-6 plane model

    f = y^4 - 2*(phi1 + phi2)*y^2 + (phi1 - phi2)^2.

The thirteen coefficients of f are closed-form expressions in the elementary
symmetric functions of the two root tuples; this module computes them both
ways (closed forms, and direct polynomial arithmetic) so each route checks
the other.  The closed forms (:func:`symmetric_functions` and
:func:`coefficient_values`) use ring operations only, so the one copy runs
on field elements and, in the prime-field lane of ``howe.sampling`` and
``howe.irreducible``, on plain integers mod p.

The gluing needs the two covers to be non-isomorphic over the line.  That
holds automatically here: a double cover is determined by its branch locus,
and the two loci are disjoint by validation, so the condition is documented
rather than computed.
"""

from __future__ import annotations

from typing import NamedTuple

from .bipoly import BiPoly, HomPoly, homogenize
from .errors import (
    ConstructionMismatchError,
    DuplicateRamificationPointError,
    MixedFieldsError,
)
from .field import Field, FieldElement
from .unipoly import UniPoly

#: order in which the 13 sextic coefficients are reported
COEFF_NAMES = (
    "c60", "c50", "c42", "c40", "c32", "c30", "c22",
    "c20", "c12", "c10", "c04", "c02", "c00",
)


class RamificationData(NamedTuple):
    """Validated branch data: the two root quadruples with their symmetric
    functions sigma_i (for the alphas) and tau_i (for the betas)."""

    alphas: tuple
    betas: tuple
    sigma: tuple
    tau: tuple
    phi1: UniPoly
    phi2: UniPoly

    @property
    def field(self) -> Field:
        return self.alphas[0].field

    def __repr__(self):
        a = ", ".join(str(v) for v in self.alphas)
        b = ", ".join(str(v) for v in self.betas)
        return f"RamificationData(alpha=({a}), beta=({b}) over {self.field})"


def symmetric_functions(roots) -> tuple:
    """e1..e4 of four roots, from the pairs (r1, r2) and (r3, r4):
    with p = r1 r2, q = r3 r4, u = r1 + r2, v = r3 + r4,
    e1 = u + v, e2 = p + q + u v, e3 = p v + q u, e4 = p q.

    Ring operations only: on integers the results are unreduced."""
    r1, r2, r3, r4 = roots
    p, q, u, v = r1 * r2, r3 * r4, r1 + r2, r3 + r4
    return (u + v, p + q + u * v, p * v + q * u, p * q)


def _quartic(field: Field, e) -> UniPoly:
    """x^4 - e1 x^3 + e2 x^2 - e3 x + e4."""
    e1, e2, e3, e4 = e
    return UniPoly(field, (e4, -e3, e2, -e1, field.one))


_SLOT_NAMES = tuple(f"alpha{i + 1}" for i in range(4)) + tuple(
    f"beta{j + 1}" for j in range(4)
)


def check_distinct(values) -> None:
    """Raise on the first equal pair among alpha1..alpha4, beta1..beta4.

    Canonical values of one field are equal exactly when their ``val`` is,
    so eight distinct ``val``s settle the common case without a pairwise
    comparison; otherwise the scan names both offending slots.
    """
    if len({v.val for v in values}) == 8:
        return
    for i in range(8):
        for j in range(i + 1, 8):
            if values[i] == values[j]:
                raise DuplicateRamificationPointError(
                    _SLOT_NAMES[i], _SLOT_NAMES[j], values[i]
                )


def validate(alphas, betas) -> RamificationData:
    """Check the eight branch values and compute their symmetric functions.

    All values must live in one field and be pairwise distinct; a collision
    is reported with the names of both offending slots.  sigma and tau are
    the elementary symmetric sums of each quadruple, and phi1, phi2 are
    written down from them, with no polynomial products
    (``UniPoly.from_roots`` gives the same quartics and is the tests'
    oracle).
    """
    alphas = tuple(alphas)
    betas = tuple(betas)
    if len(alphas) != 4 or len(betas) != 4:
        raise ValueError("expected 4 alpha values and 4 beta values")
    values = alphas + betas
    field = None
    for v in values:
        if not isinstance(v, FieldElement):
            raise TypeError("ramification points must be field elements")
        if field is None:
            field = v.field
        elif v.field != field:
            raise MixedFieldsError("ramification points from different fields")
    check_distinct(values)
    sigma = symmetric_functions(alphas)
    tau = symmetric_functions(betas)
    return RamificationData(
        alphas, betas, sigma, tau, _quartic(field, sigma), _quartic(field, tau)
    )


class SexticCoefficients(NamedTuple):
    """The 13 coefficients of the sextic; c42 = -4 and c04 = 1 always."""

    c60: FieldElement
    c50: FieldElement
    c42: FieldElement
    c40: FieldElement
    c32: FieldElement
    c30: FieldElement
    c22: FieldElement
    c20: FieldElement
    c12: FieldElement
    c10: FieldElement
    c04: FieldElement
    c02: FieldElement
    c00: FieldElement

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in COEFF_NAMES}

    def grid(self) -> dict:
        """The coefficients keyed by their exponent pair (i, j) of x^i y^j."""
        return {(int(n[1]), int(n[2])): getattr(self, n) for n in COEFF_NAMES}

    def to_bipoly(self, field: Field) -> BiPoly:
        return BiPoly(field, self.grid())


#: the 11 coefficients that depend on the branch data, in report order
VARYING_COEFFS = tuple(n for n in COEFF_NAMES if n not in ("c42", "c04"))


def coefficient_values(sigma, tau) -> tuple:
    """The 11 varying coefficients, in :data:`VARYING_COEFFS` order.

    Ring operations only (+, -, * and integer constants), so the same
    formulas run on field elements and on unreduced integers mod p; the
    caller reduces.  Constant operation count, no polynomial arithmetic and
    no dependence on the characteristic.
    """
    s1, s2, s3, s4 = sigma
    t1, t2, t3, t4 = tau
    d1, d2, d3, d4 = s1 - t1, s2 - t2, s3 - t3, s4 - t4
    return (
        d1 * d1,                          # c60
        -2 * d1 * d2,                     # c50
        2 * d1 * d3 + d2 * d2,            # c40
        2 * (s1 + t1),                    # c32
        -2 * (d1 * d4 + d2 * d3),         # c30
        -2 * (s2 + t2),                   # c22
        d3 * d3 + 2 * d4 * d2,            # c20
        2 * (s3 + t3),                    # c12
        -2 * d4 * d3,                     # c10
        -2 * (s4 + t4),                   # c02
        d4 * d4,                          # c00
    )


def sextic_coeffs(rd: RamificationData) -> SexticCoefficients:
    """Closed-form coefficients of the model of validated branch data: the
    constants c42 = -4 and c04 = 1 plus :func:`coefficient_values`."""
    field = rd.field
    return SexticCoefficients(
        c42=field(-4),
        c04=field.one,
        **dict(zip(VARYING_COEFFS, coefficient_values(rd.sigma, rd.tau))),
    )


def sextic_from_quartics(phi1: UniPoly, phi2: UniPoly) -> BiPoly:
    """y^4 - 2(phi1 + phi2) y^2 + (phi1 - phi2)^2 by polynomial arithmetic.

    No validity checks: test code feeds degenerate quartics through here on
    purpose.
    """
    field = phi1.field
    s = phi1 + phi2
    d = phi1 - phi2
    f = BiPoly(field, {(0, 4): field.one})
    f = f + BiPoly.from_unipoly(s.scale(field(-2)), "x", 2)
    f = f + BiPoly.from_unipoly(d * d, "x", 0)
    return f


def assemble_sextic(rd: RamificationData) -> BiPoly:
    """The sextic built directly from phi1 and phi2 (cross-check route)."""
    return sextic_from_quartics(rd.phi1, rd.phi2)


class SexticModel(NamedTuple):
    """A sextic plane model: coefficients, affine polynomial f, projective
    closure F, and the branch data it came from."""

    rd: RamificationData
    coeffs: SexticCoefficients
    f: BiPoly
    F: HomPoly

    @property
    def field(self) -> Field:
        return self.rd.field


def build_model(rd: RamificationData) -> SexticModel:
    """Assemble the model from the coefficient formulas.

    The polynomial-arithmetic route is computed too and compared term by
    term; a mismatch means a transcription bug and raises, so every
    returned model has passed that cross-check.
    """
    coeffs = sextic_coeffs(rd)
    f = coeffs.to_bipoly(rd.field)
    if f != assemble_sextic(rd):
        raise ConstructionMismatchError(
            "coefficient formulas disagree with the direct assembly"
        )
    if all(
        getattr(coeffs, n).is_zero for n in ("c60", "c40", "c20", "c00")
    ):  # would make f divisible by y^2; impossible for distinct branch values
        raise ConstructionMismatchError("degenerate sextic: f(x, 0) = 0")
    return SexticModel(rd, coeffs, f, homogenize(f, 6))

