"""Absolute-irreducibility certificates for the constructed sextic.

A sextic of this shape (quartic and monic in y, even in y, x^4 y^2
coefficient -4, nonzero restriction to y = 0) can only factor in one of
two ways:

  shape A:  (y^2 + q2(x)) * (y^2 + q4(x))     with deg q2 <= 2,
            which exists exactly when the discriminant of f as a quadratic
            in y^2 is the square of a polynomial;

  shape B:  (y^2 + (2x^2 + a1 x + a2) y + g(x))
          * (y^2 - (2x^2 + a1 x + a2) y + g(x))   with a cubic g.

For the model of branch data, f = y^4 - 2(phi1 + phi2) y^2 + (phi1 - phi2)^2,
and that discriminant is 4(phi1 + phi2)^2 - 4(phi1 - phi2)^2 = 16 phi1 phi2,
i.e. 16 times the product of (x - v) over the eight branch values v.  When
the eight values are pairwise distinct it is squarefree of degree 8, hence
not a square even over the algebraic closure, and shape A is impossible.
The certificate checks that premise directly (``sextic.check_distinct``).

For shape B the outer coefficients pin a3^2 = c60 and a6^2 = c00, both
literal squares of symmetric-function differences, so all candidate
coefficients live in the base field and the test needs no field extension;
failure is certified by the residual values q1..q5 of the five remaining
coefficient comparisons.  Branch data is translated so that alpha1 = 0
before testing, which forces a6 != 0 and keeps every division defined.
The translation acts on the symmetric functions alone (a Taylor shift, see
:func:`_shifted`), and the coefficients of the translated model come from
the same closed forms as the model itself, so no polynomial is built.
The shift, those closed forms and the case recipe use ring operations
only; the steps that are not (reduce, divide, is-zero, square roots) come
from a :class:`Ring`.  The lane is chosen by the field: over F_p the one
copy runs on integers mod p (:func:`residue_ring`) and only the returned
cases are wrapped as field elements, and over Q and F_{p^k} it runs on
field elements (:func:`element_ring`).
A shape-B factor would force 4 phi1 or 4 phi2 to be a square (see
:func:`shape_b_test`), so on distinct branch data no case has all residuals
zero; such a case raises :class:`ConstructionMismatchError`.

The certificate therefore either holds or raises: a returned verdict is an
executable proof of irreducibility for the instance at hand.  The general
factor searches on a BiPoly sextic, which also recover the factors of
synthetic reducible sextics, are the tests' oracle and live with them.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import ConstructionMismatchError
from .field import Field, FieldElement, prime_field
from .sextic import RamificationData, check_distinct, coefficient_values


@dataclass(frozen=True)
class CaseResiduals:
    """Residuals q1..q5 of one sign case; all five vanish iff f factors."""

    case: str
    coefficients: tuple  # the attempted a1..a6
    residuals: tuple


@dataclass(frozen=True)
class IrreducibilityVerdict:
    irreducible: bool
    shape_b_residuals: tuple


def _sqrt_candidates(field: Field, value: FieldElement, seed: int = 0):
    """Both square roots of a field element, empty when none exist.

    Finite fields use the field's own square root; over Q an exact
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
    pair = field.sqrt(value, seed)
    return [] if pair is None else list(pair)


class Ring(NamedTuple):
    """The steps of the shape-B recipe that are not ring operations.

    The formulas themselves use only +, -, * and integer constants, so one
    copy runs on :class:`FieldElement` values (:func:`element_ring`) and on
    plain integers mod p (:func:`residue_ring`).  ``reduce`` returns the
    canonical representative (the identity on field elements), and
    ``div``, ``is_zero`` and ``sqrt`` return canonical values.
    """

    zero: object
    four_inv: object
    reduce: Callable
    div: Callable
    is_zero: Callable
    sqrt: Callable  # both square roots, empty when none exist


def element_ring(field: Field) -> Ring:
    """Ring steps on elements of ``field``."""
    return Ring(field.zero, field(4).inverse(), _identity, operator.truediv,
                operator.attrgetter("is_zero"),
                functools.partial(_sqrt_candidates, field))


@functools.lru_cache(maxsize=64)
def residue_ring(p: int) -> Ring:
    """Ring steps on integers mod the prime p; values reduce into [0, p)."""
    field = prime_field(p)

    def div(a, b):
        return a * pow(b, -1, p) % p

    def sqrt(v):
        return [r.val for r in _sqrt_candidates(field, field(v))]

    return Ring(0, pow(4, -1, p), lambda v: v % p, div,
                lambda v: v % p == 0, sqrt)


def _identity(v):
    return v


def _shape_b_cases(ring: Ring, c, a3_options, a6_options, a4_options_zero):
    """Iterate the sign cases of the shape-B recipe and collect residuals.

    ``c`` holds the sextic's 11 varying coefficients in ``VARYING_COEFFS``
    order.  a4 follows from the x^5 coefficient when a3 != 0 and from the
    square root of c40 otherwise; a5 from the x coefficient when a6 != 0
    and from c20 otherwise.  a1, a2 are always determined linearly.
    Residuals are the five remaining coefficient comparisons.  Option values
    must be canonical; returns (label, (a1..a6), (q1..q5)) per case.
    """
    _c60, c50, c40, c32, c30, c22, c20, c12, c10, c02, _c00 = c
    red, div, is_zero, four_inv = ring.reduce, ring.div, ring.is_zero, ring.four_inv
    cases = []
    seen = []
    for label_a3, a3 in a3_options:
        two_a3 = 2 * a3
        if is_zero(a3):
            if not is_zero(c50):
                continue  # x^5 coefficient 2*a3*a4 cannot match
            a4_opts = a4_options_zero
        else:
            a4_opts = [("", div(c50, two_a3))]
        a1 = red((two_a3 - c32) * four_inv)
        for label_a4, a4 in a4_opts:
            two_a4 = 2 * a4
            a2 = red((two_a4 - a1 * a1 - c22) * four_inv)
            for label_a6, a6 in a6_options:
                if (a3, a4, a6) in seen:
                    continue
                seen.append((a3, a4, a6))
                if is_zero(a6):
                    if not is_zero(c10):
                        continue
                    a5_opts = ring.sqrt(c20)
                    if not a5_opts:
                        continue
                else:
                    a5_opts = [div(c10, 2 * a6)]
                label = f"B{label_a3}{label_a4}{label_a6}"
                for a5 in a5_opts:
                    residuals = (
                        red(two_a3 * a5 + a4 * a4 - c40),
                        red(two_a3 * a6 + two_a4 * a5 - c30),
                        red(2 * (a5 - a1 * a2) - c12),
                        red(two_a4 * a6 + a5 * a5 - c20),
                        red(2 * a6 - a2 * a2 - c02),
                    )
                    cases.append((label, (a1, a2, a3, a4, a5, a6), residuals))
    return cases


def _shifted(e, c) -> tuple:
    """Symmetric functions of four roots after adding c to each root.

    Taylor shift of the quartic: e1 + 4c, e2 + 3c e1 + 6c^2,
    e3 + 2c e2 + 3c^2 e1 + 4c^3, e4 + c e3 + c^2 e2 + c^3 e1 + c^4,
    evaluated in Horner form with ring operations only.
    """
    e1, e2, e3, e4 = e
    return (
        e1 + 4 * c,
        e2 + c * (3 * e1 + 6 * c),
        e3 + c * (2 * e2 + c * (3 * e1 + 4 * c)),
        e4 + c * (e3 + c * (e2 + c * (e1 + c))),
    )


#: shape_b_test's names for the four sign cases of (a3, a6) when a3 != 0
_SIGN_CASES = {"B++": "B1", "B-+": "B2", "B+-": "B3", "B--": "B4"}


def shape_b_residuals(ring: Ring, sigma, tau, shift) -> list:
    """The residual cases of :func:`shape_b_test` on any ring.

    ``sigma`` and ``tau`` are canonical symmetric functions and ``shift``
    is alpha1; returns (label, (a1..a6), (q1..q5)) per case with canonical
    values, and raises :class:`ConstructionMismatchError` on a case whose
    residuals all vanish.  The caller guarantees distinct branch values.
    """
    red, is_zero = ring.reduce, ring.is_zero
    sigma = tuple(map(red, _shifted(sigma, -shift)))
    tau = tuple(map(red, _shifted(tau, -shift)))
    d1 = red(sigma[0] - tau[0])
    d2 = red(sigma[1] - tau[1])
    d4 = red(sigma[3] - tau[3])

    if is_zero(d1):
        a3_options = [("0", ring.zero)]
        if is_zero(d2):
            a4_zero = [(".1", ring.zero)]
        else:
            a4_zero = [(".1", d2), (".2", red(-d2))]
        a6_options = [(".1", d4), (".2", red(-d4))]
    else:
        a3_options = [("+", d1), ("-", red(-d1))]
        a4_zero = []
        a6_options = [("+", d4), ("-", red(-d4))]

    cases = _relabel_proof_cases(_shape_b_cases(
        ring, coefficient_values(sigma, tau), a3_options, a6_options, a4_zero))
    for label, _coefficients, residuals in cases:
        if all(map(is_zero, residuals)):
            raise ConstructionMismatchError(
                f"shape-B case {label} has vanishing residuals on distinct branch data"
            )
    return cases


def _relabel_proof_cases(cases) -> list:
    """Name the nonzero-a3 cases B1..B4 by their sign pattern (a3 = +-(s1 -
    t1), a6 = +-(s4 - t4)), and the a3 = 0 cases B0.1, B0.2, ... in order."""
    return [(_SIGN_CASES.get(label) or f"B0.{i + 1}", coefficients, residuals)
            for i, (label, coefficients, residuals) in enumerate(cases)]


def shape_b_test(rd: RamificationData) -> tuple:
    """Shape-B residual cases of branch data, after the normalising translation.

    Shifting every branch value by -alpha1 zeroes sigma4 while keeping tau4
    nonzero, so a6 = +-(sigma4 - tau4) never vanishes and a5 = c10/(2 a6) is
    defined in all four sign cases.  Case labels: B1..B4 for the sign
    choices of (a3, a6) when a3 != 0, and B0.xy variants when sigma1 = tau1
    forces a3 = 0 (then a4 = +-(sigma2 - tau2) instead).

    The shifted symmetric functions and the coefficients are computed in
    closed form (:func:`shape_b_residuals`); over a prime field they run on
    integers mod p and only the returned cases are wrapped as field
    elements.  A repeated branch value raises
    :class:`DuplicateRamificationPointError` before any of it.

    Returns the :class:`CaseResiduals` of every case.  On such data no case
    can have all five residuals zero.  Residuals that all vanish would make
    (y^2 + L y + g)(y^2 - L y + g) = (y^2 + g)^2 - L^2 y^2 equal to
    f = y^4 - 2(phi1 + phi2) y^2 + (phi1 - phi2)^2 (translated), with
    L = 2x^2 + a1 x + a2.  Comparing the y^0 terms gives g = +-(phi1 - phi2),
    and then the y^2 terms give L^2 = 2g + 2(phi1 + phi2) = 4 phi1 or
    4 phi2.  But phi1 and phi2 each have four distinct roots, so neither is
    a square.  Vanishing residuals therefore mean a broken invariant and
    raise :class:`ConstructionMismatchError`.
    """
    check_distinct(rd.alphas + rd.betas)
    field = rd.field
    if field.kind != "prime":
        cases = shape_b_residuals(element_ring(field), rd.sigma, rd.tau, rd.alphas[0])
        return tuple(CaseResiduals(*case) for case in cases)
    cases = shape_b_residuals(residue_ring(field.p), [v.val for v in rd.sigma],
                              [v.val for v in rd.tau], rd.alphas[0].val)

    def wrap(values):
        return tuple(FieldElement(field, v) for v in values)

    return tuple(CaseResiduals(label, wrap(coefficients), wrap(residuals))
                 for label, coefficients, residuals in cases)


def is_absolutely_irreducible(rd: RamificationData) -> IrreducibilityVerdict:
    """Certify that the sextic of ``rd`` has no shape-A or shape-B factor.

    Every factorization of a sextic of this shape over any extension of the
    base field is of shape A or shape B.  Shape A needs the discriminant
    16 phi1 phi2 of f as a quadratic in y^2 to be a square; it is squarefree
    of degree 8 once the eight branch values are pairwise distinct, so no
    search is needed.  Shape B is decided by
    :func:`shape_b_test`, which checks that premise first (raising
    :class:`DuplicateRamificationPointError` on a repeated value) and
    computes every residual from the symmetric functions without building
    a sextic.  A case whose residuals all vanish is impossible on such data
    and raises :class:`ConstructionMismatchError`, so a returned verdict is
    always irreducible.
    """
    return IrreducibilityVerdict(irreducible=True, shape_b_residuals=shape_b_test(rd))
