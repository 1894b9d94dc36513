"""Singular locus of the projective sextic: classification and location.

At y = 0 the sextic restricts to the square of the cubic-or-lower polynomial

    h1 = (s1 - t1) x^3 - (s2 - t2) x^2 + (s3 - t3) x - (s4 - t4)

in the symmetric-function differences, so the affine singular points are
exactly the distinct roots of h1.  At infinity, (0:1:0) is always singular
and (1:0:0) is singular precisely when s1 = t1.  The classification below
branches on resultants of h1 and its derivatives at their true degrees and
reproduces the (affine, infinity) count table:

    label   condition                                      (m, n)
    I-1     deg h1 = 3, Res(h1, h1') != 0                  (3, 1)
    I-2     deg h1 = 3, Res(h1, h1') = 0, Res(h1', h1'')!=0 (2, 1)
    I-3     deg h1 = 3, both resultants zero               (1, 1)
    II-1    deg h1 = 2, Res(h1, h1') != 0                  (2, 2)
    II-2    deg h1 = 2, Res(h1, h1') = 0                   (1, 2)
    II-3    deg h1 = 1                                     (1, 2)
    II-4    deg h1 = 0                                     (0, 2)

The resultants are closed forms in a = s1 - t1, b = t2 - s2, c = s3 - t3,
d = t4 - s4 (so h1 = a x^3 + b x^2 + c x + d), in the Sylvester convention of
``unipoly.resultant``: for a cubic, Res(h1, h1') = -a disc(h1) with
disc(h1) = b^2 c^2 - 4 a c^3 - 4 b^3 d - 27 a^2 d^2 + 18 a b c d, and
Res(h1', h1'') = -12 a (b^2 - 3 a c); for a quadratic (a = 0),
Res(h1, h1') = -b disc(h1) with disc(h1) = c^2 - 4 b d (Cohen, *A Course
in Computational Algebraic Number Theory*, 3.3).  ``unipoly.resultant``
stays public as the general case they are tested against.  The closed
forms (:func:`classify_values`) use ring operations only, with the is-zero
test supplied by the caller, so ``howe.sampling`` runs the same copy on
integers mod p.

Every singular point has multiplicity exactly 2, certified by a nonzero
second partial.  The certificates are closed forms in the branch data:
F_yy = -8 phi1(xi) at an affine point (xi:0:1), F_zz = 2 c04 at (0:1:0),
F_yy = 2 c42 at (1:0:0), and gcd(phi1, m) = 1 for a conjugate packet with
minimal polynomial m over Q.  ``verify_multiplicity_two`` (first and second
partials of F evaluated at explicit coordinates) and the brute-force
projective scan stay available as independent oracles.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .bipoly import HomPoly
from .errors import (
    BudgetExceededError,
    ConstructionMismatchError,
    MultiplicityExceedsTwoError,
    NotSingularError,
    UnsupportedFieldError,
)
from .field import Field, FieldElement
from .unipoly import UniPoly, factor_rational, gcd, roots
from .sextic import RamificationData, SexticModel, build_model

TYPE_TABLE = {
    "I-1": (3, 1),
    "I-2": (2, 1),
    "I-3": (1, 1),
    "II-1": (2, 2),
    "II-2": (1, 2),
    "II-3": (1, 2),
    "II-4": (0, 2),
}


def h1_poly(rd: RamificationData) -> UniPoly:
    """The difference polynomial phi2 - phi1, written in the table's sign
    convention; its distinct roots are the affine singular x-coordinates."""
    s1, s2, s3, s4 = rd.sigma
    t1, t2, t3, t4 = rd.tau
    return UniPoly.from_coeffs(
        rd.field, (-(s4 - t4), s3 - t3, -(s2 - t2), s1 - t1)
    )


class SingularityType(NamedTuple):
    """Classification outcome plus the resultant values the branch used."""

    label: str
    affine_count: int
    infinity_count: int
    res_h1_h1p: FieldElement | None = None
    res_h1p_h1pp: FieldElement | None = None
    disc_h1: FieldElement | None = None

    @property
    def total(self) -> int:
        return self.affine_count + self.infinity_count


def classify(rd: RamificationData) -> SingularityType:
    """Branch on the degree of h1 and the resultant criteria.

    The resultant values are the closed forms of the module docstring, read
    off the symmetric-function differences without building h1.  They are
    the Sylvester determinants at the true degrees that ``resultant`` uses
    because the field constructors reject characteristic 2 and 3: a cubic
    h1 has h1' of degree 2 and h1'' of degree 1, a quadratic one h1' of
    degree 1.
    """
    label, r1, r2, disc = classify_values(rd.sigma, rd.tau, attrgetter("is_zero"))
    m, n = TYPE_TABLE[label]
    return SingularityType(label, m, n, res_h1_h1p=r1, res_h1p_h1pp=r2, disc_h1=disc)


def classify_values(sigma, tau, is_zero) -> tuple:
    """(label, Res(h1, h1'), Res(h1', h1''), disc(h1)) of the type table.

    Ring operations only; ``is_zero`` is supplied by the caller (on
    integers mod p it reduces first).  A value the branch does not reach
    is ``None``: Res(h1', h1'') only for I-2 and I-3, the quadratic disc(h1)
    only for II-1 and II-2.
    """
    s1, s2, s3, s4 = sigma
    t1, t2, t3, t4 = tau
    a, b, c, d = s1 - t1, t2 - s2, s3 - t3, t4 - s4
    if not is_zero(a):
        bb, cc = b * b, c * c
        disc = (bb * cc - 4 * a * cc * c - 4 * bb * b * d
                - 27 * a * a * d * d + 18 * a * b * c * d)
        r1 = -(a * disc)
        if not is_zero(r1):
            return "I-1", r1, None, None
        r2 = -12 * a * (bb - 3 * a * c)
        return ("I-2" if not is_zero(r2) else "I-3"), r1, r2, None
    if not is_zero(b):
        disc = c * c - 4 * b * d
        r1 = -(b * disc)
        return ("II-1" if not is_zero(r1) else "II-2"), r1, None, disc
    if not is_zero(c):
        return "II-3", None, None, None
    # h1 is a nonzero constant: s4 != t4 because the branch values are distinct
    return "II-4", None, None, None


class Certificate(NamedTuple):
    """A second partial that does not vanish at the singular point."""

    partial: str
    value: FieldElement | None
    note: str = ""


class SingularPoint(NamedTuple):
    """One singular point of the projective closure (or a conjugate packet
    over Q, described by the minimal polynomial of its x-coordinate)."""

    coords: tuple | None
    at_infinity: bool
    extension_degree: int
    certificate: Certificate
    minimal_poly: UniPoly | None = None
    conjugate_count: int = 1
    multiplicity: int = 2


def _nonzero_certificate(partial: str, value: FieldElement, coords: tuple) -> Certificate:
    if value.is_zero:
        raise MultiplicityExceedsTwoError(
            f"closed-form {partial} vanishes at ({coords[0]}:{coords[1]}:{coords[2]})"
        )
    return Certificate(partial, value)


def _point_at_infinity(model: SexticModel, which: str) -> SingularPoint:
    field = model.field
    c = model.coeffs
    if which == "y":
        coords = (field.zero, field.one, field.zero)
        cert = _nonzero_certificate("F_zz", field(2) * c.c04, coords)
    else:
        # F, F_x and F_z at (1:0:0) are c60, 6 c60 and c50
        if not (c.c60.is_zero and c.c50.is_zero):
            raise NotSingularError("(1:0:0) is singular only when s1 = t1")
        coords = (field.one, field.zero, field.zero)
        cert = _nonzero_certificate("F_yy", field(2) * c.c42, coords)
    return SingularPoint(coords, True, 1, cert)


def _affine_point(model: SexticModel, h1: UniPoly, xi: FieldElement,
                  degree: int) -> SingularPoint:
    field = xi.field
    coords = (xi, field.zero, field.one)
    if not h1(xi).is_zero:
        raise NotSingularError(f"h1 does not vanish at x = {xi}")
    # F_yy = -4 (phi1 + phi2)(xi), and phi1(xi) = phi2(xi) at a root of h1
    cert = _nonzero_certificate("F_yy", model.rd.phi1(xi) * -8, coords)
    if degree == 1:
        minimal = UniPoly.from_coeffs(field, (-xi, field.one))
    else:  # a root materialised in F_p[t]/(minimal polynomial)
        minimal = UniPoly.from_coeffs(field.base, field.modulus)
    return SingularPoint(coords, False, degree, cert, minimal_poly=minimal)


def singular_points(rd: RamificationData, rng_seed: int = 0,
                    model: SexticModel | None = None,
                    kind: SingularityType | None = None):
    """All singular points of the projective closure, certificates included.

    (0:1:0) is always present; (1:0:0) joins exactly when s1 = t1.  Affine
    points are the distinct roots of h1: closed forms for the unique-root
    types (I-3, II-2, II-3), root finding in extensions of degree <= 3 over
    finite fields, and minimal-polynomial packets over Q.

    Checking h1(xi) = 0 (or m | h1 for a packet) is equivalent to the
    first-order conditions on F: f(x, 0) = h1^2 and f is even in y, so F,
    F_x and F_y vanish at (xi:0:1) iff h1(xi) = 0, and the Euler relation
    6F = x F_x + y F_y + z F_z then forces F_z = 0 (``analyze`` checks the
    first identity and the Euler relation).  Modulo m, f_yy(x, 0) =
    -4 (phi1 + phi2) is -8 phi1.  A failed check raises NotSingularError,
    a vanishing certificate MultiplicityExceedsTwoError.

    ``model`` and ``kind`` default to ``build_model(rd)`` and
    ``classify(rd)``; a caller that already holds them passes them in.
    """
    if model is None:
        model = build_model(rd)
    if kind is None:
        kind = classify(rd)
    field = rd.field
    h1 = h1_poly(rd)
    s1, s2, s3, s4 = rd.sigma
    t1, t2, t3, t4 = rd.tau

    affine: list[SingularPoint] = []
    if kind.label == "I-3":
        xi = (s2 - t2) / (field(3) * (s1 - t1))
        affine.append(_affine_point(model, h1, xi, 1))
    elif kind.label == "II-2":
        xi = (s3 - t3) / (field(2) * (s2 - t2))
        affine.append(_affine_point(model, h1, xi, 1))
    elif kind.label == "II-3":
        xi = (s4 - t4) / (s3 - t3)
        affine.append(_affine_point(model, h1, xi, 1))
    elif kind.label != "II-4":
        if field.kind == "rational":
            affine.extend(_rational_affine_points(model, h1))
        else:
            for root in roots(h1, 3, rng_seed):
                affine.append(_affine_point(model, h1, root.value, root.extension_degree))

    affine.sort(key=lambda p: (p.extension_degree,
                               p.coords[0].sort_key() if p.coords else
                               tuple(c.val for c in p.minimal_poly.coeffs)))
    points = list(affine)
    points.append(_point_at_infinity(model, "y"))
    if kind.infinity_count == 2:
        points.append(_point_at_infinity(model, "x"))

    got_affine = sum(p.conjugate_count for p in affine)
    if got_affine != kind.affine_count:
        raise ConstructionMismatchError(
            f"located {got_affine} affine singular points, expected {kind.affine_count}"
        )
    return points


def _rational_affine_points(model: SexticModel, h1: UniPoly):
    """Over Q: rational roots become explicit points, irrational ones are
    reported through the irreducible factors of h1 as conjugate packets."""
    out = []
    _, factors = factor_rational(h1)
    for g, _mult in factors:
        if g.degree == 1:
            out.append(_affine_point(model, h1, -g[0] / g[1], 1))
            continue
        m = g.monic()
        if not (h1 % m).is_zero:
            raise NotSingularError("minimal polynomial does not divide h1")
        if gcd(model.rd.phi1, m).degree != 0:
            raise MultiplicityExceedsTwoError("phi1 shares a root with the minimal polynomial")
        cert = Certificate("f_yy", None, "nonzero: coprime to the minimal polynomial")
        out.append(
            SingularPoint(None, False, g.degree, cert,
                          minimal_poly=g, conjugate_count=g.degree)
        )
    return out


def verify_multiplicity_two(F: HomPoly, coords: tuple) -> Certificate:
    """Check the defining conditions of a double point at explicit coordinates.

    F and all first partials must vanish; the designated second partial
    (F_zz at (0:1:0), F_yy elsewhere) must not.  If the designated one
    vanishes, the remaining second partials are scanned before concluding
    that the multiplicity exceeds two.
    """
    x, y, z = coords
    values = [F.eval(x, y, z)]
    for var in "xyz":
        values.append(F.partial(var).eval(x, y, z))
    if any(not v.is_zero for v in values):
        raise NotSingularError(
            f"point ({x}:{y}:{z}) fails the first-order vanishing conditions"
        )
    if y.is_zero and z.is_zero:
        designated = "yy"
    elif z.is_zero:
        designated = "zz"
    else:
        designated = "yy"
    val = F.partial(designated[0]).partial(designated[1]).eval(x, y, z)
    if not val.is_zero:
        return Certificate(f"F_{designated}", val)
    for pair in ("xx", "xy", "xz", "yy", "yz", "zz"):
        v = F.partial(pair[0]).partial(pair[1]).eval(x, y, z)
        if not v.is_zero:
            return Certificate(f"F_{pair}", v, "designated partial vanished")
    raise MultiplicityExceedsTwoError(
        f"all second partials vanish at ({x}:{y}:{z})"
    )


# -- brute-force oracle ------------------------------------------------------


def brute_force_singular_scan(F: HomPoly, budget: int = 10**6):
    """All singular points of F = 0 in the projective plane over a finite field.

    Enumerates the three standard charts with deduplication: (x : y : 1),
    then (x : 1 : 0), then (1 : 0 : 0).  Raises when the plane has more
    points than the evaluation budget allows.  Returns canonical coordinate
    triples of raw values, sorted.
    """
    field = F.field
    if field.kind == "rational":
        raise UnsupportedFieldError("the scan enumerates finite planes only")
    q = field.order
    if q * q + q + 1 > budget:
        raise BudgetExceededError(
            f"projective plane over F_{q} has {q * q + q + 1} points, budget {budget}"
        )
    if field.kind == "prime":
        return _scan_prime(F)
    return _scan_generic(F)


def _scan_prime(F: HomPoly):
    """Integer-arithmetic scan over a prime field.

    For each x the four polynomials restrict to quartics in y with at most
    five coefficients, so the inner loop over y costs a few multiplications
    per point.
    """
    p = F.field.p

    def y_slices(poly: HomPoly):
        # rows[j][i] = integer coefficient of x^i y^j in poly(x, y, 1)
        deg = max(poly.degree, 0)
        rows = [[0] * (deg + 1) for _ in range(deg + 1)]
        for (i, j, _k), c in poly.terms.items():
            rows[j][i] = c.val
        return rows

    Fx = F.partial("x")
    Fy = F.partial("y")
    Fz = F.partial("z")
    tables = [y_slices(poly) for poly in (F, Fx, Fy, Fz)]

    width = max(len(t) for t in tables)
    hits = []
    for x in range(p):
        xs = [1] * width
        for i in range(1, width):
            xs[i] = xs[i - 1] * x % p
        # per-polynomial coefficients of the restricted polynomial in y
        slices = []
        for rows in tables:
            slices.append(
                [sum(r[i] * xs[i] for i in range(len(r)) if r[i]) % p for r in rows]
            )
        for y in range(p):
            ok = True
            for q in slices:
                acc = 0
                ypow = 1
                for c in q:
                    if c:
                        acc += c * ypow
                    ypow = ypow * y % p
                if acc % p:
                    ok = False
                    break
            if ok:
                hits.append((x, y, 1))
    # chart z = 0, y = 1: substitute and test each x
    fld = F.field
    one, zero = fld.one, fld.zero
    for x in range(p):
        xe = fld(x)
        if all(
            poly.eval(xe, one, zero).is_zero
            for poly in (F, Fx, Fy, Fz)
        ):
            hits.append((x, 1, 0))
    if all(poly.eval(one, zero, zero).is_zero for poly in (F, Fx, Fy, Fz)):
        hits.append((1, 0, 0))
    return sorted(hits)


def _scan_generic(F: HomPoly):
    field = F.field
    Fx, Fy, Fz = (F.partial(v) for v in "xyz")
    one, zero = field.one, field.zero
    elements = _all_elements(field)
    hits = []
    for x in elements:
        for y in elements:
            if all(p.eval(x, y, one).is_zero for p in (F, Fx, Fy, Fz)):
                hits.append((x.val, y.val, one.val))
    for x in elements:
        if all(p.eval(x, one, zero).is_zero for p in (F, Fx, Fy, Fz)):
            hits.append((x.val, one.val, zero.val))
    if all(p.eval(one, zero, zero).is_zero for p in (F, Fx, Fy, Fz)):
        hits.append((one.val, zero.val, zero.val))
    return sorted(hits)


def _all_elements(field: Field):
    if field.kind == "prime":
        return [field(i) for i in range(field.p)]
    out = []
    p, k = field.p, field.k
    for n in range(p**k):
        digits = []
        v = n
        for _ in range(k):
            digits.append(v % p)
            v //= p
        out.append(field(tuple(digits)))
    return out


def rational_point_set(points) -> set:
    """Canonical coordinate triples of the base-field-rational points."""
    out = set()
    for pt in points:
        if pt.coords is None or pt.extension_degree != 1:
            continue
        out.add(tuple(c.val for c in pt.coords))
    return out


def genus_bound_check(t: SingularityType) -> bool:
    """Arithmetic genus 10 minus one per double point must still cover genus 5."""
    return 10 - t.total >= 5
