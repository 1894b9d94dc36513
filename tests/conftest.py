"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import functools
import random

import pytest

from howe import UniPoly, build_extension, prime_field, rational_field, roots, validate
from howe.singular import _all_elements


@pytest.fixture(scope="session")
def F31():
    return prime_field(31)


@pytest.fixture(scope="session")
def F7():
    return prime_field(7)


@pytest.fixture(scope="session")
def F1009():
    return prime_field(1009)


@pytest.fixture(scope="session")
def QQ():
    return rational_field()


def random_branch_data(field, rng: random.Random, span=None):
    """A valid configuration with uniformly drawn distinct values."""
    while True:
        if span is None:
            vals = [field.random_element(rng) for _ in range(8)]
        else:
            vals = [field(rng.randint(-span, span)) for _ in range(8)]
        if len({v.val for v in vals}) == 8:
            return validate(vals[:4], vals[4:])


def s1_equal_branch_data(field, rng: random.Random, span=None):
    """A valid configuration with s1 = t1 (beta4 is solved for)."""
    while True:
        if span is None:
            vals = [field.random_element(rng) for _ in range(7)]
        else:
            vals = [field(rng.randint(-span, span)) for _ in range(7)]
        vals.append(sum(vals[:4], field.zero) - vals[4] - vals[5] - vals[6])
        if len({v.val for v in vals}) == 8:
            return validate(vals[:4], vals[4:])


#: the shape of h1 = phi2 - phi1 that forces each singularity type
PLANTED_H1_SHAPES = {
    "I-1": (1, 1, 1),  # three simple roots
    "I-2": (2, 1),  # a double and a simple root
    "I-3": (3,),
    "II-1": (1, 1),
    "II-2": (2,),
    "II-3": (1,),
    "II-4": (),
}


def planted_branch_data(field, rng: random.Random, label: str):
    """A valid configuration over a finite field whose h1 = k m has the root
    pattern of ``label`` (m monic): draw the alphas and m, then pick k so
    that phi2 = phi1 + k m has four distinct base-field roots disjoint from
    the alphas.

    In a field of fewer than 100 elements the roots of phi2 are the x with
    k = -phi1(x) / m(x), so k is drawn among the values taken exactly four
    times; otherwise k is drawn at random and phi2 goes through ``roots``.
    """
    shape = PLANTED_H1_SHAPES[label]
    elements = _all_elements(field) if field.order < 100 else None
    while True:
        alphas = [field.random_element(rng) for _ in range(4)]
        centres = [field.random_element(rng) for _ in shape]
        if len({v.val for v in alphas}) < 4 or len({c.val for c in centres}) < len(shape):
            continue
        phi1 = UniPoly.from_roots(alphas, field)
        m = UniPoly.one(field)
        for centre, mult in zip(centres, shape):
            m = m * UniPoly.from_roots([centre] * mult, field)
        if elements is None:
            k = field.random_element(rng)
            betas = [r.value for r in roots(phi1 + m.scale(k), 1) if r.multiplicity == 1]
        else:
            fibres = {}
            for e in elements:
                me = m(e)
                if not me.is_zero:
                    fibres.setdefault(-phi1(e) / me, []).append(e)
            options = sorted((k for k, xs in fibres.items() if len(xs) == 4 and not k.is_zero),
                             key=lambda k: k.sort_key())
            if not options:
                continue
            k = rng.choice(options)
            betas = fibres[k]
        if not k.is_zero and len(betas) == 4 and len({v.val for v in alphas + betas}) == 8:
            return validate(alphas, betas)


@functools.lru_cache(maxsize=None)
def closed_form_pools() -> dict:
    """Branch data on which closed forms are compared with the general
    routines: uniform and s1 = t1 draws over F_31, F_10007, F_25, F_49 and Q
    up to height 10^30, planted instances of every label over the finite
    fields, and (a, -a, b, -b | c, -c, d, -d) with a^2 + b^2 = c^2 + d^2
    (type II-4) over Q.  Built once per session; do not mutate."""
    QQ = rational_field()
    pools = {}
    for field in (prime_field(31), prime_field(10007),
                  build_extension(5, 2, 0), build_extension(7, 2, 0)):
        rng = random.Random(f"closed forms {field}")
        pools[str(field)] = (
            [random_branch_data(field, rng) for _ in range(20)]
            + [s1_equal_branch_data(field, rng) for _ in range(5)]
        )
        pools[f"{field} planted"] = [
            planted_branch_data(field, rng, label)
            for label in PLANTED_H1_SHAPES for _ in range(2)
        ]
    for span in (50, 1000, 10**30):
        rng = random.Random(f"closed forms Q {span}")
        pools[f"Q H={span}"] = (
            [random_branch_data(QQ, rng, span) for _ in range(12)]
            + [s1_equal_branch_data(QQ, rng, span) for _ in range(4)]
        )
    pools["Q II-4"] = [
        validate([QQ(v + shift) for v in (a, -a, b, -b)],
                 [QQ(v + shift) for v in (c, -c, d, -d)])
        for a, b, c, d in ((1, 8, 4, 7), (2, 9, 6, 7))
        for shift in (0, 3)
    ]
    return pools


def determinant(rows):
    """Exact determinant by Gaussian elimination over any field.

    Independent of the resultant code: used as the oracle pinning the
    Sylvester-determinant convention.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    field = rows[0][0].field
    det = field.one
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not m[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            return field.zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, n):
            if m[r][col].is_zero:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det


def naive_poly_mul(field, a, b):
    """Convolution product of coefficient lists, independent of UniPoly."""
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def expand_from_roots(field, roots):
    """Naive expansion of prod (x - r): the oracle for from_roots."""
    coeffs = [field.one]
    for r in roots:
        coeffs = naive_poly_mul(field, coeffs, [-field(r), field.one])
    return coeffs
