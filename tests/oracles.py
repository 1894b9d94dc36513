"""General routes that the library's certificates and construction are
tested against.

The library certifies irreducibility and locates singular points from
closed forms in the branch data, and raises when a certificate fails.  The
routines here take the general route instead: factor searches on an
arbitrary shape-valid sextic (which also recover the factors of synthetic
reducible ones), the general shape-B case search with its square roots and
divisions, the Sylvester matrix, squarefree parts and the
perfect-square test, and the brute-force check for off-axis singularities.
They also hold Tonelli-Shanks square roots in finite fields and the
birational correspondence between the sextic and the fiber product of the
two double covers: the projection (x, y1, y2) -> (x, y1 + y2), its inverse
lift, and a sampler of fiber points for the round trip.
No library path calls them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from howe.bipoly import BiPoly, HomPoly
from howe.errors import (
    HoweError,
    MixedFieldsError,
    UnsupportedFieldError,
    ZeroPolynomialError,
)
from howe.field import ExtensionField, Field, FieldElement, build_extension
from howe.irreducible import CaseResiduals
from howe.sextic import VARYING_COEFFS, RamificationData, SexticModel, build_model
from howe.singular import brute_force_singular_scan
from howe.unipoly import UniPoly, squarefree_decomposition


# -- factor searches on a shape-valid sextic ---------------------------------


@dataclass(frozen=True)
class ShapeAWitness:
    h1: BiPoly
    h2: BiPoly


@dataclass(frozen=True)
class ShapeBWitness:
    case: str
    coefficients: tuple  # a1..a6
    h1: BiPoly
    h2: BiPoly


def _shape_grid(f: BiPoly) -> dict:
    """Coefficient grid of a shape-valid sextic, keyed like c_ij."""
    if f.degree_y() != 4 or not f.coefficient(0, 4) == f.field.one:
        raise ValueError("expected a monic quartic in y")
    if any(j % 2 for (_i, j) in f.terms):
        raise ValueError("expected a polynomial even in y")
    if f.coefficient(4, 2) != f.field(-4):
        raise ValueError("expected x^4 y^2 coefficient -4")
    if f.y_slice(0).is_zero:
        raise ZeroPolynomialError("the restriction f(x, 0) must not vanish")
    grid = {}
    for (i, j), c in f.terms.items():
        if j == 2 and i > 4 or j == 4 and i > 0 or j == 0 and i > 6:
            raise ValueError("not a sextic of the expected shape")
        grid[(i, j)] = c
    return grid


def _c(grid: dict, i: int, j: int, field: Field) -> FieldElement:
    return grid.get((i, j), field.zero)


def shape_a_witness(f: BiPoly) -> ShapeAWitness | None:
    """Search for a factorization into two even quadratics in y.

    Solving (y^2 + q2)(y^2 + q4) = y^4 + B y^2 + C needs q2, q4 =
    (B -+ g) / 2 where g^2 = B^2 - 4C.  The discriminant has degree 8 with
    leading coefficient 16, so its monic square root (when it exists)
    always yields base-field q2, q4.
    """
    _shape_grid(f)
    field = f.field
    B = f.y_slice(2)
    C = f.y_slice(0)
    disc = B * B - C.scale(field(4))
    sq = is_perfect_square(disc)
    if sq is None:
        return None
    g_monic, _lead = sq
    g = g_monic.scale(field(4))  # disc = 16 * (monic part), sqrt(16) = 4
    two_inv = field(2).inverse()
    q2 = (B + g).scale(two_inv)
    q4 = (B - g).scale(two_inv)
    if q2.degree > 2:
        q2, q4 = q4, q2
    if q2.degree > 2:
        return None
    H1 = BiPoly(field, {(0, 2): field.one}) + BiPoly.from_unipoly(q2, "x", 0)
    H2 = BiPoly(field, {(0, 2): field.one}) + BiPoly.from_unipoly(q4, "x", 0)
    if H1 * H2 != f:
        return None
    return ShapeAWitness(H1, H2)


def shape_a_test(rd: RamificationData) -> ShapeAWitness | None:
    """Shape-A search on the model of the given branch data.

    phi1 * phi2 has eight distinct roots, so its square test fails for every
    admissible configuration; a witness here would disprove irreducibility.
    """
    return shape_a_witness(build_model(rd).f)


def _sqrt_candidates(field: Field, value: FieldElement, seed: int = 0):
    """Both square roots of a field element, empty when none exist.

    Finite fields use :func:`sqrt`; over Q an exact
    perfect-square test on numerator and denominator suffices.
    """
    if value.is_zero:
        return [field.zero]
    if field.kind == "rational":
        fr: Fraction = value.val
        if fr < 0:
            return []
        num, den = fr.numerator, fr.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            return []
        r = field(Fraction(rn, rd))
        return [r, -r]
    pair = sqrt(field, value, seed)
    return [] if pair is None else list(pair)


def general_shape_b_cases(field: Field, c, a3_options, a6_options, a4_options_zero):
    """Iterate the sign cases of the general shape-B recipe and collect residuals.

    ``c`` holds the sextic's 11 varying coefficients in ``VARYING_COEFFS``
    order.  a4 follows from the x^5 coefficient when a3 != 0 and from the
    square root of c40 otherwise; a5 from the x coefficient when a6 != 0
    and from c20 otherwise.  a1, a2 are always determined linearly.
    Residuals are the five remaining coefficient comparisons.  Returns
    (label, (a1..a6), (q1..q5)) per case.
    """
    _c60, c50, c40, c32, c30, c22, c20, c12, c10, c02, _c00 = c
    four_inv = field(4).inverse()
    cases = []
    seen = []
    for label_a3, a3 in a3_options:
        two_a3 = 2 * a3
        if a3.is_zero:
            if not c50.is_zero:
                continue  # x^5 coefficient 2*a3*a4 cannot match
            a4_opts = a4_options_zero
        else:
            a4_opts = [("", c50 / two_a3)]
        a1 = (two_a3 - c32) * four_inv
        for label_a4, a4 in a4_opts:
            two_a4 = 2 * a4
            a2 = (two_a4 - a1 * a1 - c22) * four_inv
            for label_a6, a6 in a6_options:
                if (a3, a4, a6) in seen:
                    continue
                seen.append((a3, a4, a6))
                if a6.is_zero:
                    if not c10.is_zero:
                        continue
                    a5_opts = _sqrt_candidates(field, c20)
                    if not a5_opts:
                        continue
                else:
                    a5_opts = [c10 / (2 * a6)]
                label = f"B{label_a3}{label_a4}{label_a6}"
                for a5 in a5_opts:
                    residuals = (
                        two_a3 * a5 + a4 * a4 - c40,
                        two_a3 * a6 + two_a4 * a5 - c30,
                        2 * (a5 - a1 * a2) - c12,
                        two_a4 * a6 + a5 * a5 - c20,
                        2 * a6 - a2 * a2 - c02,
                    )
                    cases.append((label, (a1, a2, a3, a4, a5, a6), residuals))
    return cases


#: names of the four sign cases of (a3, a6) when a3 != 0, as shape_b_test gives them
_SIGN_CASES = {"B++": "B1", "B-+": "B2", "B+-": "B3", "B--": "B4"}


def _relabel_proof_cases(cases) -> list:
    """Name the nonzero-a3 cases B1..B4 by their sign pattern (a3 = +-(s1 -
    t1), a6 = +-(s4 - t4)), and the a3 = 0 cases B0.1, B0.2, ... in order."""
    return [(_SIGN_CASES.get(label) or f"B0.{i + 1}", coefficients, residuals)
            for i, (label, coefficients, residuals) in enumerate(cases)]


def _witness_from_case(f: BiPoly, case: CaseResiduals) -> ShapeBWitness | None:
    field = f.field
    a1, a2, a3, a4, a5, a6 = case.coefficients
    two = field(2)
    linear = BiPoly(field, {(2, 0): two, (1, 0): a1, (0, 0): a2})
    cubic = BiPoly(field, {(3, 0): a3, (2, 0): a4, (1, 0): a5, (0, 0): a6})
    y = BiPoly(field, {(0, 1): field.one})
    y2 = BiPoly(field, {(0, 2): field.one})
    H1 = y2 + linear * y + cubic
    H2 = y2 - linear * y + cubic
    if H1 * H2 != f:
        return None
    return ShapeBWitness(case.case, case.coefficients, H1, H2)


def shape_b_witness(f: BiPoly, seed: int = 0):
    """Direct shape-B search on a shape-valid sextic over its base field.

    Returns (witness or None, residuals per attempted case).  Used on
    synthetic inputs; branch data goes through ``howe.irreducible.shape_b_test``,
    which reads every case off the translated symmetric functions.
    """
    field = f.field
    grid = _shape_grid(f)
    a3_roots = _sqrt_candidates(field, _c(grid, 6, 0, field), seed)
    a6_roots = _sqrt_candidates(field, _c(grid, 0, 0, field), seed)
    a4_roots = _sqrt_candidates(field, _c(grid, 4, 0, field), seed)
    a3_options = [(str(i + 1), v) for i, v in enumerate(a3_roots)]
    a6_options = [(f".{i + 1}", v) for i, v in enumerate(a6_roots)]
    a4_options = [(f"'{i + 1}", v) for i, v in enumerate(a4_roots)]
    if not a3_options or not a6_options:
        return None, ()
    c = tuple(_c(grid, int(n[1]), int(n[2]), field) for n in VARYING_COEFFS)
    cases = [CaseResiduals(*case) for case in general_shape_b_cases(
        field, c, a3_options, a6_options, a4_options)]
    for case in cases:
        if all(r.is_zero for r in case.residuals):
            witness = _witness_from_case(f, case)
            if witness is not None:
                return witness, tuple(cases)
    return None, tuple(cases)


# -- univariate oracles ------------------------------------------------------


def sylvester_matrix(f: UniPoly, g: UniPoly):
    """Sylvester matrix of (f, g): deg(g) rows of f above deg(f) rows of g."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("Sylvester matrix of a zero polynomial")
    m, n = f.degree, g.degree
    size = m + n
    zero = f.field.zero
    rows = []
    fc = [f.coeffs[m - i] for i in range(m + 1)]  # leading first
    gc = [g.coeffs[n - i] for i in range(n + 1)]
    for i in range(n):
        rows.append([zero] * i + fc + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + gc + [zero] * (size - i - n - 1))
    return rows


def squarefree_part(f: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero:
        raise ZeroPolynomialError("squarefree part of zero")
    _, factors = squarefree_decomposition(f)
    out = UniPoly.one(f.field)
    for g, _ in factors:
        out = out * g
    return out


def is_perfect_square(f: UniPoly):
    """(g, c) with f = c * g^2 for monic g and scalar c = lc(f), else None.

    The monic part of f is a square exactly when every multiplicity in its
    squarefree decomposition is even.
    """
    if f.is_zero:
        raise ZeroPolynomialError("perfect-square test of zero")
    lead, factors = squarefree_decomposition(f)
    if any(e % 2 for _, e in factors):
        return None
    g = UniPoly.one(f.field)
    for h, e in factors:
        g = g * h ** (e // 2)
    return g, lead


# -- singular locus ----------------------------------------------------------


def no_offaxis_singularities_check(F: HomPoly, budget: int = 10**6) -> bool:
    """True when the scan finds no singular point with y != 0 off the two
    admissible points at infinity."""
    one = F.field.one.val
    zero = F.field.zero.val
    for (x, y, z) in brute_force_singular_scan(F, budget):
        if z == one:
            if y != zero:
                return False
        elif (x, y, z) not in ((zero, one, zero), (one, zero, zero)):
            return False
    return True


# -- square roots in finite fields -------------------------------------------


def sqrt(field: Field, a: FieldElement, seed: int = 0):
    """Both square roots of ``a``, or ``None`` if ``a`` is a non-residue.

    Returns ``(r, -r)`` ordered by :meth:`FieldElement.sort_key` (and the
    single-element tuple ``(0,)`` for ``a = 0``).  Tonelli-Shanks, defined
    over finite fields only; the nonresidue search is driven by ``seed``.
    """
    if field.kind == "rational":
        raise UnsupportedFieldError(f"square roots are not supported over {field}")
    if a.field != field:
        raise MixedFieldsError("element does not belong to this field")
    if a.is_zero:
        return (field.zero,)
    order = field.order
    half = (order - 1) // 2
    if a**half != field.one:
        return None
    s, e = order - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    if e == 1:
        r = a ** ((order + 1) // 4)
    else:
        rng = random.Random(seed)
        while True:
            n = field.random_element(rng)
            if not n.is_zero and n**half != field.one:
                break
        x = a ** ((s + 1) // 2)
        b = a**s
        g = n**s
        r_exp = e
        while True:
            t, m = b, 0
            while t != field.one:
                t = t * t
                m += 1
            if m == 0:
                r = x
                break
            gs = g ** (1 << (r_exp - m - 1))
            g = gs * gs
            x = x * gs
            b = b * g
            r_exp = m
    pair = sorted((r, -r), key=FieldElement.sort_key)
    return tuple(pair)


def in_prime_subfield(a: FieldElement) -> bool:
    """Whether an element of an extension field lies in its prime subfield."""
    return all(c == 0 for c in a.val[1:])


def to_prime_subfield(a: FieldElement) -> FieldElement:
    """The prime-subfield element an extension-field element equals."""
    if not in_prime_subfield(a):
        raise ValueError(f"{a!r} is not in the prime subfield")
    return FieldElement(a.field.base, a.val[0])


# -- the birational correspondence with the glued double covers --------------


class NotOnCurveError(HoweError, ValueError):
    """The given (x, y) does not satisfy the sextic equation."""


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
    s1 = sqrt(work, v1, rng_seed)
    s2 = sqrt(work, v2, rng_seed)
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
        if all(in_prime_subfield(c) for c in coords):
            candidates = [
                (to_prime_subfield(a), to_prime_subfield(b))
                for a, b in candidates
            ]
            x = to_prime_subfield(x)
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
        s1 = sqrt(field, v1, rng_seed)
        s2 = sqrt(field, v2, rng_seed)
        if s1 is None or s2 is None:
            if ext is None:
                ext = build_extension(field.p, 2, rng_seed)
            xe = ext.embed(x)
            s1 = sqrt(ext, ext.embed(v1), rng_seed)
            s2 = sqrt(ext, ext.embed(v2), rng_seed)
            y1 = s1[rng.randrange(len(s1))]
            y2 = s2[rng.randrange(len(s2))]
            out.append(FiberPoint(xe, y1, y2))
        else:
            y1 = s1[rng.randrange(len(s1))]
            y2 = s2[rng.randrange(len(s2))]
            out.append(FiberPoint(x, y1, y2))
    return out
