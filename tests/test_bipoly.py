"""Bivariate and homogeneous polynomial behaviour, including the identities
the sextic construction leans on."""

import random

import pytest

from howe import (
    BiPoly,
    HomPoly,
    build_model,
    euler_relation_holds,
    homogenize,
    prime_field,
)
from conftest import closed_form_pools, random_branch_data
from oracles import project_point, random_fiber_points


def dehomogenize(F: HomPoly) -> BiPoly:
    """F(x, y, 1): the terms of a form have distinct (x, y) exponents."""
    return BiPoly(F.field, {(i, j): c for (i, j, _k), c in F.terms.items()})


def rand_bipoly(field, rng, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[(rng.randint(0, max_deg), rng.randint(0, max_deg))] = field(
            rng.randrange(field.p)
        )
    return BiPoly(field, terms)


class TestArithmetic:
    def test_additive_identity(self, F31):
        rng = random.Random(1)
        f = rand_bipoly(F31, rng)
        assert f + BiPoly.zero(F31) == f

    def test_scale_by_one(self, F31):
        rng = random.Random(2)
        f = rand_bipoly(F31, rng)
        assert f.scale(F31.one) == f

    def test_mul_commutative_associative(self, F31):
        rng = random.Random(3)
        for _ in range(25):
            a, b, c = (rand_bipoly(F31, rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_even_quadratic_product_matches_coefficient_grid(self, F31):
        # (y^2 + a1 x^2 + a2 x + a3)(y^2 - 4x^4 + a4 x^3 + a5 x^2 + a6 x + a7)
        # expanded coefficient by coefficient
        rng = random.Random(4)
        for _ in range(20):
            a1, a2, a3, a4, a5, a6, a7 = (F31(rng.randrange(31)) for _ in range(7))
            H1 = BiPoly(F31, {(0, 2): 1, (2, 0): a1, (1, 0): a2, (0, 0): a3})
            H2 = BiPoly(
                F31,
                {(0, 2): 1, (4, 0): -4, (3, 0): a4, (2, 0): a5, (1, 0): a6, (0, 0): a7},
            )
            got = H1 * H2
            four = F31(4)
            expected = BiPoly(
                F31,
                {
                    (6, 0): -four * a1,
                    (4, 2): -four,
                    (5, 0): a1 * a4 - four * a2,
                    (3, 2): a4,
                    (4, 0): a1 * a5 + a2 * a4 - four * a3,
                    (2, 2): a1 + a5,
                    (0, 4): F31.one,
                    (3, 0): a1 * a6 + a2 * a5 + a3 * a4,
                    (1, 2): a2 + a6,
                    (2, 0): a1 * a7 + a2 * a6 + a3 * a5,
                    (0, 2): a3 + a7,
                    (1, 0): a2 * a7 + a3 * a6,
                    (0, 0): a3 * a7,
                },
            )
            assert got == expected


class TestPartials:
    def test_fy_of_model(self, F31):
        rng = random.Random(5)
        rd = random_branch_data(prime_field(31), rng)
        model = build_model(rd)
        # f_y = 4 y^3 - 4 (phi1 + phi2) y
        four = F31(4)
        expected = BiPoly(F31, {(0, 3): four})
        s = rd.phi1 + rd.phi2
        expected = expected + BiPoly.from_unipoly(s.scale(-four), "x", 1)
        assert model.f.partial("y") == expected

    def test_x_partial_of_pure_y(self, F31):
        f = BiPoly(F31, {(0, 3): 2, (0, 1): 5})
        assert f.partial("x").is_zero

    def test_z_partial_kills_full_degree_terms(self, F31):
        F = HomPoly(F31, {(6, 0, 0): 3, (4, 2, 0): 7}, 6)
        assert F.partial("z").is_zero

    def test_partial_of_edited_mixed_degree_terms(self, F31):
        # partial builds its result as trusted, so terms edited to mixed
        # degrees after construction are differentiated term by term
        F = HomPoly(F31, {(2, 1, 0): 3, (0, 0, 3): 5}, 3)
        F.terms[(1, 4, 0)] = F31(7)
        assert F.partial("y").terms == {(2, 0, 0): F31(3), (1, 3, 0): F31(28)}
        assert F.partial("x").terms == {(1, 1, 0): F31(6), (0, 4, 0): F31(7)}

    def test_untrusted_mixed_degrees_rejected(self, F31):
        with pytest.raises(ValueError):
            HomPoly(F31, {(2, 1, 0): 3, (1, 4, 0): 7}, 3)


class TestHomogenize:
    def test_round_trip(self, F31):
        rng = random.Random(6)
        for _ in range(20):
            f = rand_bipoly(F31, rng)
            F = homogenize(f, 6)
            assert dehomogenize(F) == f

    def test_constant_becomes_pure_z(self, F31):
        F = homogenize(BiPoly(F31, {(0, 0): 1}), 6)
        assert F.terms == {(0, 0, 6): F31.one}

    def test_y0_slice_is_square_of_cubic_form(self, F31):
        rng = random.Random(7)
        for _ in range(10):
            rd = random_branch_data(prime_field(31), rng)
            model = build_model(rd)
            diff = rd.phi1 - rd.phi2  # degree <= 3
            cubic_form = HomPoly(
                F31,
                {(i, 0, 3 - i): diff[i] for i in range(4) if not diff[i].is_zero},
                3,
            )
            square = _hom_mul(cubic_form, cubic_form)
            y0 = HomPoly(
                F31,
                {e: c for e, c in model.F.terms.items() if e[1] == 0},
                6,
            )
            assert square == y0

    def test_degree_too_small_rejected(self, F31):
        with pytest.raises(ValueError):
            homogenize(BiPoly(F31, {(4, 4): 1}), 6)


def _hom_mul(A: HomPoly, B: HomPoly) -> HomPoly:
    terms = {}
    field = A.field
    for ea, ca in A.terms.items():
        for eb, cb in B.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            s = terms.get(key, field.zero) + ca * cb
            if s.is_zero:
                terms.pop(key, None)
            else:
                terms[key] = s
    return HomPoly(field, terms, A.degree + B.degree)


class TestEvalAndShift:
    def test_model_vanishes_on_projected_fiber_points(self, F31):
        rng = random.Random(8)
        rd = random_branch_data(prime_field(31), rng)
        model = build_model(rd)
        for p in random_fiber_points(model, 20, rng_seed=3):
            x, y = project_point(p)
            assert model.f.eval(x, y).is_zero


def euler_by_partials(F):
    """The Euler relation by building the three partials: the oracle.

    Works on the term dicts, so it shares no code with ``HomPoly``."""
    diff = {e: c * F.degree for e, c in F.terms.items()}
    for idx in range(3):
        partial = {}
        for e, c in F.terms.items():
            if e[idx]:
                down = list(e)
                down[idx] -= 1
                partial[tuple(down)] = c * e[idx]
        for e, c in partial.items():  # times the variable
            up = list(e)
            up[idx] += 1
            up = tuple(up)
            diff[up] = diff.get(up, F.field.zero) - c
    return all(c.is_zero for c in diff.values())


class TestModelInvariants:
    def test_euler_relation(self, F31):
        rng = random.Random(12)
        for _ in range(15):
            rd = random_branch_data(prime_field(31), rng)
            assert euler_relation_holds(build_model(rd).F)

    @pytest.mark.parametrize("name", sorted(closed_form_pools()))
    def test_euler_relation_matches_partials(self, name):
        for rd in closed_form_pools()[name]:
            F = build_model(rd).F
            assert euler_relation_holds(F) is euler_by_partials(F) is True

            off = HomPoly(F.field, dict(F.terms), F.degree)
            off.terms[(F.degree + 1, 0, 0)] = F.field.one
            assert euler_relation_holds(off) is euler_by_partials(off) is False

            char = F.field.characteristic
            if char:
                # a degree d + p term satisfies the relation mod p
                wrap = HomPoly(F.field, dict(F.terms), F.degree)
                wrap.terms[(F.degree + char - 1, 1, 0)] = F.field.one
                assert euler_relation_holds(wrap) is euler_by_partials(wrap) is True

    def test_even_in_y(self, F31):
        rng = random.Random(13)
        for _ in range(15):
            rd = random_branch_data(prime_field(31), rng)
            f = build_model(rd).f
            assert all(j % 2 == 0 for (_, j) in f.terms)
            # f(x, y) = f(x, -y) at sample points
            x, y = F31(rng.randrange(31)), F31(rng.randrange(31))
            assert f.eval(x, y) == f.eval(x, -y)


class TestRendering:
    def test_graded_lex_order(self, F31):
        f = BiPoly(F31, {(0, 4): 1, (6, 0): 16, (4, 2): 27, (0, 0): 28})
        assert str(f) == "16*x^6 + 27*x^4*y^2 + y^4 + 28"

    def test_byte_stable(self, F31):
        rng = random.Random(14)
        f = rand_bipoly(F31, rng)
        g = BiPoly(F31, dict(reversed(list(f.terms.items()))))
        assert str(f) == str(g)
