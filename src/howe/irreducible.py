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

For shape B, comparing coefficients gives a3^2 = c60 = d1^2 and
a6^2 = c00 = d4^2, where d_k = sigma_k - tau_k, so every candidate lies in
the base field and the test needs no field extension; failure is certified
by the residual values q1..q5 of the five remaining coefficient
comparisons.  Branch data is first translated so that alpha1 = 0 (a Taylor
shift of the symmetric functions, see :func:`_shifted`); then
sigma4 = 0 and d4 = -tau4 = -prod(beta_j - alpha1) != 0.  With signs s, t
in {+1, -1} every candidate is read off the differences, with no division
or square root:

  a3 = s d1,  a4 = c50 / (2 a3) = -s d2    (c50 = -2 d1 d2),
  a6 = t d4,  a5 = c10 / (2 a6) = -t d3    (c10 = -2 d3 d4),

and a1, a2 follow linearly from c32 and c22.  When d1 = 0, a3 = 0 and the
x^4 coefficient gives a4^2 = c40 = d2^2, so a4 = +-d2 (one value when
d2 = 0).  The coefficients of the translated model come from the same
closed forms as the model itself, so no polynomial is built.  The shift,
those closed forms and the case plan use ring operations only; reducing,
the zero test and 1/4 come from a :class:`Ring`.  The lane is chosen by
the field: over F_p the one copy runs on integers mod p
(:func:`residue_ring`) and only the returned cases are wrapped as field
elements, and over Q and F_{p^k} it runs on field elements
(:func:`element_ring`).
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
from typing import Callable, NamedTuple

from .errors import ConstructionMismatchError
from .field import Field, FieldElement
from .sextic import RamificationData, check_distinct, coefficient_values


class CaseResiduals(NamedTuple):
    """Residuals q1..q5 of one sign case; all five vanish iff f factors."""

    case: str
    coefficients: tuple  # the attempted a1..a6
    residuals: tuple


class IrreducibilityVerdict(NamedTuple):
    irreducible: bool
    shape_b_residuals: tuple


class Ring(NamedTuple):
    """The steps of the shape-B plan that are not ring operations.

    The formulas themselves use only +, -, * and integer constants, so one
    copy runs on :class:`FieldElement` values (:func:`element_ring`) and on
    plain integers mod p (:func:`residue_ring`).  ``reduce`` returns the
    canonical representative (the identity on field elements).
    """

    four_inv: object
    reduce: Callable
    is_zero: Callable


def element_ring(field: Field) -> Ring:
    """Ring steps on elements of ``field``."""
    return Ring(field(4).inverse(), _identity, _element_is_zero)


@functools.lru_cache(maxsize=64)
def residue_ring(p: int) -> Ring:
    """Ring steps on integers mod the prime p; values reduce into [0, p)."""
    return Ring(pow(4, -1, p), lambda v: v % p, lambda v: v % p == 0)


def _identity(v):
    return v


def _element_is_zero(v):
    return v.is_zero


def _shape_b_cases(ring: Ring, sigma, tau) -> list:
    """The shape-B cases of translated symmetric functions, in a fixed order.

    ``sigma`` and ``tau`` are canonical and translated so that alpha1 = 0.
    With d_k = sigma_k - tau_k the cases are (a3, a4) = (s d1, -s d2) for
    s = +1, -1 crossed with (a5, a6) = (-t d3, t d4) for t = +1, -1, named
    B1 (+, +), B3 (+, -), B2 (-, +), B4 (-, -); when d1 = 0 they are
    (a3, a4) = (0, d2), (0, -d2) crossed with the same (a5, a6), named
    B0.1..B0.4, or B0.1, B0.2 when d2 = 0 too.  a1 and a2 follow from the
    x^3 y^2 and x^2 y^2 coefficients; the residuals are the five remaining
    coefficient comparisons.  Returns (label, (a1..a6), (q1..q5)) per case
    with canonical values.
    """
    _c60, _c50, c40, c32, c30, c22, c20, c12, _c10, c02, _c00 = coefficient_values(sigma, tau)
    red, four_inv = ring.reduce, ring.four_inv
    d1, d2, d3, d4 = (red(s - t) for s, t in zip(sigma, tau))
    a5_a6 = ((red(-d3), d4), (d3, red(-d4)))
    if ring.is_zero(d1):
        a3_a4 = ((d1, d2),) if ring.is_zero(d2) else ((d1, d2), (d1, red(-d2)))
        labels = ("B0.1", "B0.2", "B0.3", "B0.4")
    else:
        a3_a4 = ((d1, red(-d2)), (red(-d1), d2))
        labels = ("B1", "B3", "B2", "B4")
    cases = []
    for a3, a4 in a3_a4:
        two_a3, two_a4 = 2 * a3, 2 * a4
        a1 = red((two_a3 - c32) * four_inv)
        a2 = red((two_a4 - a1 * a1 - c22) * four_inv)
        for a5, a6 in a5_a6:
            residuals = (
                red(two_a3 * a5 + a4 * a4 - c40),
                red(two_a3 * a6 + two_a4 * a5 - c30),
                red(2 * (a5 - a1 * a2) - c12),
                red(two_a4 * a6 + a5 * a5 - c20),
                red(2 * a6 - a2 * a2 - c02),
            )
            cases.append((labels[len(cases)], (a1, a2, a3, a4, a5, a6), residuals))
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


def shape_b_residuals(ring: Ring, sigma, tau, shift) -> list:
    """The residual cases of :func:`shape_b_test` on any ring.

    ``sigma`` and ``tau`` are canonical symmetric functions and ``shift``
    is alpha1; returns (label, (a1..a6), (q1..q5)) per case with canonical
    values, and raises :class:`ConstructionMismatchError` on a case whose
    residuals all vanish.  The caller guarantees distinct branch values.
    """
    red, is_zero = ring.reduce, ring.is_zero
    cases = _shape_b_cases(ring, tuple(map(red, _shifted(sigma, -shift))),
                           tuple(map(red, _shifted(tau, -shift))))
    for label, _coefficients, residuals in cases:
        if all(map(is_zero, residuals)):
            raise ConstructionMismatchError(
                f"shape-B case {label} has vanishing residuals on distinct branch data"
            )
    return cases


def shape_b_test(rd: RamificationData) -> tuple:
    """Shape-B residual cases of branch data, after the normalising translation.

    Shifting every branch value by -alpha1 zeroes sigma4 while keeping
    tau4 = prod(beta_j - alpha1) nonzero, so d4 = sigma4 - tau4 != 0 on
    distinct values (d_k = sigma_k - tau_k after the shift).  Each case is
    read off the differences with signs s, t = +-1: a3 = s d1,
    a4 = c50/(2 a3) = -s d2, a6 = t d4 and a5 = c10/(2 a6) = -t d3.  Case
    labels: B1, B3, B2, B4 for (s, t) = (+, +), (+, -), (-, +), (-, -) when
    d1 != 0, and B0.1..B0.4 when sigma1 = tau1 forces a3 = 0 (then
    a4 = +-d2 from c40 = d2^2, and B0.1, B0.2 only when d2 = 0 as well).

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
