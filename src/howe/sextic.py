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

import random
from dataclasses import dataclass
from itertools import permutations

from .bipoly import BiPoly, HomPoly, homogenize
from .errors import (
    ConstructionMismatchError,
    DuplicateRamificationPointError,
    MixedFieldsError,
    NormalizationImpossibleError,
    NotOnCurveError,
    UnsupportedFieldError,
)
from .field import ExtensionField, Field, FieldElement, build_extension
from .unipoly import UniPoly

#: order in which the 13 sextic coefficients are reported
COEFF_NAMES = (
    "c60", "c50", "c42", "c40", "c32", "c30", "c22",
    "c20", "c12", "c10", "c04", "c02", "c00",
)


@dataclass(frozen=True)
class RamificationData:
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

    def swapped(self) -> "RamificationData":
        """The same configuration with the two covers exchanged."""
        return RamificationData(self.betas, self.alphas, self.tau, self.sigma,
                                self.phi2, self.phi1)

    def translated(self, c: FieldElement) -> "RamificationData":
        """All eight branch values shifted by c."""
        return validate([a + c for a in self.alphas], [b + c for b in self.betas])

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


@dataclass(frozen=True)
class SexticCoefficients:
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


@dataclass(frozen=True)
class SexticModel:
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


def genus_of_howe(g1: int, g2: int, r: int) -> int:
    """Genus of the glued curve: 2(g1 + g2) + 1 - r for r shared branch points."""
    return 2 * (g1 + g2) + 1 - r


# -- Moebius normalization ---------------------------------------------------


@dataclass(frozen=True)
class MobiusMap:
    """t -> (a t + b) / (c t + d) with nonzero determinant."""

    a: FieldElement
    b: FieldElement
    c: FieldElement
    d: FieldElement

    def determinant(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def apply(self, t: FieldElement) -> FieldElement:
        """Image of a finite point; raises if t is the pole."""
        den = self.c * t + self.d
        if den.is_zero:
            raise ZeroDivisionError(f"{t} is the pole of {self}")
        return (self.a * t + self.b) / den

    def pole(self):
        """The finite preimage of infinity, or None when the map is affine."""
        if self.c.is_zero:
            return None
        return -self.d / self.c

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __repr__(self):
        return f"({self.a}*t + {self.b}) / ({self.c}*t + {self.d})"


@dataclass(frozen=True)
class NormalizationResult:
    data: RamificationData
    transform: MobiusMap
    triple: tuple  # indices into (alphas + betas) of the points sent to 0, 1, -1


def _map_to_zero_one_infinity(p1, p2, p3) -> MobiusMap:
    # t -> (t - p1)(p2 - p3) / ((t - p3)(p2 - p1))
    num = p2 - p3
    den = p2 - p1
    return MobiusMap(num, -p1 * num, den, -p3 * den)


def mobius_normalize(rd: RamificationData) -> NormalizationResult:
    """Send three of the eight branch values to 0, 1, -1.

    Tries ordered triples of indices in lexicographic order starting with
    (alpha1, alpha2, alpha3); a triple is rejected when the induced map has
    its pole at one of the remaining five points, since every image must
    stay finite.  Reports the triple that was used.
    """
    field = rd.field
    points = rd.alphas + rd.betas
    # fixed map sending (0, 1, -1) to (0, 1, infinity): t -> 2t / (t + 1)
    to_std = MobiusMap(field(2), field.zero, field.one, field.one)
    back = to_std.inverse()
    for triple in permutations(range(8), 3):
        p1, p2, p3 = (points[i] for i in triple)
        m = back.compose(_map_to_zero_one_infinity(p1, p2, p3))
        if m.determinant().is_zero:
            continue
        pole = m.pole()
        if pole is not None and any(pole == q for q in points):
            continue
        new_alphas = [m.apply(a) for a in rd.alphas]
        new_betas = [m.apply(b) for b in rd.betas]
        return NormalizationResult(validate(new_alphas, new_betas), m, triple)
    raise NormalizationImpossibleError(
        "no ordered triple keeps all eight branch values finite"
    )


# -- the birational correspondence with the glued double covers --------------


@dataclass(frozen=True)
class FiberPoint:
    """A point (x, y1, y2) with y1^2 = phi1(x) and y2^2 = phi2(x)."""

    x: FieldElement
    y1: FieldElement
    y2: FieldElement


@dataclass(frozen=True)
class LiftResult:
    lifts: tuple
    extension_degree: int
    indeterminate: bool

    @property
    def point(self) -> FiberPoint:
        if self.indeterminate:
            raise ValueError("two candidate lifts; inspect .lifts")
        return self.lifts[0]


def project_point(p: FiberPoint):
    """The forward map: (x, y1, y2) -> (x, y1 + y2)."""
    return p.x, p.y1 + p.y2


def lift_point(model: SexticModel, x: FieldElement, y: FieldElement,
               rng_seed: int = 0) -> LiftResult:
    """Invert the projection at (x, y) on the sextic.

    Writes y = e1*sqrt(phi1(x)) + e2*sqrt(phi2(x)) for signs e1, e2; the
    roots live in the base field or its quadratic extension, and the sign
    pair is unique unless y = 0, where the two opposite pairs both project
    to y and both candidates are returned (indeterminate locus of the map).
    """
    field = model.field
    if field.kind == "rational":
        raise UnsupportedFieldError("point lifting needs square roots; finite fields only")
    if x.field != y.field:
        raise MixedFieldsError("x and y must come from one field")
    work = x.field
    if work != field:
        if not (
            isinstance(work, ExtensionField)
            and field.kind == "prime"
            and work.p == field.p
            and work.k == 2
        ):
            raise UnsupportedFieldError(
                "points must lie in the base field or its quadratic extension"
            )
    if not model.f.eval(x, y).is_zero:
        raise NotOnCurveError(f"f({x}, {y}) != 0")

    v1 = model.rd.phi1(x)
    v2 = model.rd.phi2(x)
    s1 = work.sqrt(v1, rng_seed)
    s2 = work.sqrt(v2, rng_seed)
    if s1 is None or s2 is None:
        if work != field:
            raise UnsupportedFieldError(
                "square roots fall outside the quadratic extension"
            )
        # move to F_{p^2}, where every base-field element is a square
        ext = build_extension(field.p, 2, rng_seed)
        return lift_point(model, ext.embed(x), ext.embed(y), rng_seed)

    candidates = []
    for a in s1:
        for b in s2:
            if a + b == y and (a, b) not in candidates:
                candidates.append((a, b))
    if not candidates:
        raise NotOnCurveError("no sign assignment matches y")  # unreachable if f = 0
    degree = 1
    if isinstance(work, ExtensionField):
        coords = [x, y] + [c for pair in candidates for c in pair]
        if all(work.in_prime_subfield(c) for c in coords):
            base = work.base
            candidates = [
                (work.to_prime_subfield(a), work.to_prime_subfield(b))
                for a, b in candidates
            ]
            x = work.to_prime_subfield(x)
        else:
            degree = 2
    lifts = tuple(FiberPoint(x, a, b) for a, b in candidates)
    return LiftResult(lifts, degree, len(lifts) > 1)


def random_fiber_points(model: SexticModel, count: int, rng_seed: int = 0):
    """Sample points of the glued cover, allowing quadratic-extension fibers.

    Draws x uniformly, takes square roots of phi1(x) and phi2(x) in the base
    field when possible and in F_{p^2} otherwise, and picks the two signs at
    random.  Used by round-trip tests of the projection and its inverse.
    """
    field = model.field
    if field.kind != "prime":
        raise UnsupportedFieldError("fiber sampling is implemented for prime fields")
    rng = random.Random(rng_seed)
    ext = None
    out = []
    while len(out) < count:
        x = field.random_element(rng)
        v1, v2 = model.rd.phi1(x), model.rd.phi2(x)
        s1 = field.sqrt(v1, rng_seed)
        s2 = field.sqrt(v2, rng_seed)
        if s1 is None or s2 is None:
            if ext is None:
                ext = build_extension(field.p, 2, rng_seed)
            xe = ext.embed(x)
            s1 = ext.sqrt(ext.embed(v1), rng_seed)
            s2 = ext.sqrt(ext.embed(v2), rng_seed)
            y1 = s1[rng.randrange(len(s1))]
            y2 = s2[rng.randrange(len(s2))]
            out.append(FiberPoint(xe, y1, y2))
        else:
            y1 = s1[rng.randrange(len(s1))]
            y2 = s2[rng.randrange(len(s2))]
            out.append(FiberPoint(x, y1, y2))
    return out
