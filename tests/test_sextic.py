"""Construction-layer tests: validation, the coefficient formulas against
the direct assembly, and the birational maps.

The projection, its inverse lift, the fiber-point sampler and the square
roots they take are oracles in ``tests/oracles.py``; no library path calls
them."""

import random

import pytest

from howe import (
    BiPoly,
    DuplicateRamificationPointError,
    assemble_sextic,
    build_extension,
    build_model,
    h1_poly,
    prime_field,
    sextic_coeffs,
    validate,
)

from howe.unipoly import UniPoly

from conftest import closed_form_pools, expand_from_roots, random_branch_data
from oracles import (
    NotOnCurveError,
    lift_point,
    project_point,
    random_fiber_points,
    sqrt,
)


class TestValidate:
    def test_reference_symmetric_functions(self, F31):
        rd = validate(
            [F31(0), F31(1), F31(-1), F31(20)],
            [F31(28), F31(16), F31(7), F31(27)],
        )
        assert tuple(s.val for s in rd.sigma) == (20, 30, 11, 0)
        assert tuple(t.val for t in rd.tau) == (16, 25, 19, 11)
        # oracle: signs alternate against the expanded product
        expanded = expand_from_roots(F31, rd.alphas)
        assert rd.sigma == (-expanded[3], expanded[2], -expanded[1], expanded[0])

    def test_duplicate_rejected_with_names(self, F31):
        with pytest.raises(DuplicateRamificationPointError) as info:
            validate([F31(0), F31(1), F31(-1), F31(1)], [F31(3), F31(4), F31(5), F31(6)])
        assert info.value.first == "alpha2"
        assert info.value.second == "alpha4"
        with pytest.raises(DuplicateRamificationPointError):
            validate([F31(0), F31(1), F31(2), F31(3)], [F31(3), F31(9), F31(10), F31(11)])


CLOSED_FORM_POOLS = closed_form_pools()


class TestSymmetricSums:
    """``validate`` writes sigma, tau, phi1 and phi2 down from elementary
    symmetric sums; the products of linear factors are the oracle."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_POOLS))
    def test_match_the_from_roots_route(self, name):
        for rd in CLOSED_FORM_POOLS[name]:
            for roots, sym, phi in ((rd.alphas, rd.sigma, rd.phi1),
                                    (rd.betas, rd.tau, rd.phi2)):
                expected = UniPoly.from_roots(roots, rd.field)
                assert phi == expected
                assert list(phi.coeffs) == expand_from_roots(rd.field, roots)
                assert sym == (-expected[3], expected[2], -expected[1], expected[0])


class TestCoefficients:
    def test_reference_type_i1_grid(self, F31):
        rd = validate(
            [F31(0), F31(1), F31(-1), F31(20)],
            [F31(28), F31(16), F31(7), F31(27)],
        )
        c = sextic_coeffs(rd)
        expected = {
            "c60": 16, "c50": 22, "c42": 27, "c40": 23, "c32": 10, "c30": 13,
            "c22": 14, "c20": 16, "c12": 29, "c10": 10, "c04": 1, "c02": 9,
            "c00": 28,
        }
        assert {k: v.val for k, v in c.as_dict().items()} == expected

    def test_reference_type_ii4_grid(self, F31):
        rd = validate(
            [F31(0), F31(1), F31(-1), F31(2)],
            [F31(8), F31(20), F31(24), F31(12)],
        )
        c = sextic_coeffs(rd)
        f = build_model(rd).f
        assert str(f) == "27*x^4*y^2 + 8*x^3*y^2 + 4*x^2*y^2 + y^4 + 23*x*y^2 + 3*y^2 + 10"
        assert c.c00.val == 10 and not c.c00.is_zero

    def test_constant_term_nonzero_when_only_c00_survives(self, F31):
        # sigma_i = tau_i for i <= 3 forces phi2 = phi1 + const, so c00 != 0
        rng = random.Random(2)
        found = 0
        for _ in range(800):
            rd = _shifted_quartic_instance(prime_field(31), rng)
            if rd is None:
                continue
            found += 1
            c = sextic_coeffs(rd)
            assert c.c60.is_zero and c.c40.is_zero and c.c20.is_zero
            assert not c.c00.is_zero
            if found >= 8:
                break
        assert found >= 5

    def test_assembly_equals_formulas(self, F31, F1009, QQ):
        rng = random.Random(3)
        for field, span in ((prime_field(31), None), (prime_field(1009), None), (QQ, 50)):
            for _ in range(50):
                rd = random_branch_data(field, rng, span=span)
                model = build_model(rd)
                assert model.f == assemble_sextic(rd)
                assert model.coeffs.c42 == field(-4)
                assert model.coeffs.c04 == field.one

    def test_degrees(self, F31):
        rng = random.Random(4)
        for _ in range(40):
            rd = random_branch_data(prime_field(31), rng)
            f = build_model(rd).f
            assert f.degree_y() == 4
            d1 = rd.sigma[0] - rd.tau[0]
            assert (f.degree_x() == 6) == (not d1.is_zero)

    def test_y0_restriction_is_h1_squared(self, F31, QQ):
        rng = random.Random(5)
        for field, span in ((prime_field(31), None), (QQ, 20)):
            for _ in range(25):
                rd = random_branch_data(field, rng, span=span)
                f = build_model(rd).f
                h1 = h1_poly(rd)
                assert f.y_slice(0) == h1 * h1


def _shifted_quartic_instance(field, rng):
    """Branch data with phi2 = phi1 + c: all symmetric differences vanish
    except the last one.  Returns None when phi1 + c does not split."""
    from howe.unipoly import UniPoly, roots

    vals = [field.random_element(rng) for _ in range(4)]
    if len({v.val for v in vals}) != 4:
        return None
    phi1 = UniPoly.from_roots(vals)
    c = field.random_element(rng)
    if c.is_zero:
        return None
    phi2 = phi1 + UniPoly.constant(c)
    found = roots(phi2, 1, rng_seed=7)
    if len(found) != 4 or any(r.multiplicity != 1 for r in found):
        return None
    betas = [r.value for r in found]
    if any(b == a for a in vals for b in betas):
        return None
    return validate(vals, betas)


class TestSimplifiedForms:
    def test_two_matching_symmetric_functions(self, F31):
        # sigma1 = tau1 and sigma2 = tau2: the reference II-3 instance
        rd = validate(
            [F31(0), F31(1), F31(-1), F31(29)],
            [F31(2), F31(7), F31(14), F31(6)],
        )
        s1, s2, s3, s4 = rd.sigma
        t1, t2, t3, t4 = rd.tau
        assert s1 == t1 and s2 == t2
        f = build_model(rd).f
        two, four = F31(2), F31(4)
        expected = BiPoly(
            F31,
            {
                (4, 2): -four,
                (3, 2): four * s1,
                (2, 2): -four * s2,
                (0, 4): F31.one,
                (1, 2): two * (s3 + t3),
                (2, 0): (s3 - t3) * (s3 - t3),
                (0, 2): -two * (s4 + t4),
                (1, 0): -two * (s3 - t3) * (s4 - t4),
                (0, 0): (s4 - t4) * (s4 - t4),
            },
        )
        assert f == expected

    def test_three_matching_symmetric_functions(self, F31):
        # additionally sigma3 = tau3: the reference II-4 instance
        rd = validate(
            [F31(0), F31(1), F31(-1), F31(2)],
            [F31(8), F31(20), F31(24), F31(12)],
        )
        s1, s2, s3, s4 = rd.sigma
        t1, t2, t3, t4 = rd.tau
        assert s1 == t1 and s2 == t2 and s3 == t3
        f = build_model(rd).f
        two, four = F31(2), F31(4)
        expected = BiPoly(
            F31,
            {
                (4, 2): -four,
                (3, 2): four * s1,
                (2, 2): -four * s2,
                (0, 4): F31.one,
                (1, 2): four * s3,
                (0, 2): -two * (s4 + t4),
                (0, 0): (s4 - t4) * (s4 - t4),
            },
        )
        assert f == expected


class TestLift:
    def _model(self, F31):
        rd = validate(
            [F31(0), F31(1), F31(-1), F31(20)],
            [F31(28), F31(16), F31(7), F31(27)],
        )
        return build_model(rd)

    def test_round_trip_base_field(self, F31):
        model = self._model(F31)
        pts = random_fiber_points(model, 60, rng_seed=11)
        for p in pts:
            x, y = project_point(p)
            if y.is_zero:
                continue
            lifted = lift_point(model, x, y, rng_seed=11)
            assert not lifted.indeterminate
            q = lifted.point
            assert (q.x, q.y1, q.y2) == (p.x, p.y1, p.y2)

    def test_indeterminate_locus(self, F31):
        model = self._model(F31)
        # singular x-coordinates satisfy phi1(x) = phi2(x) != 0; y = 0 there
        x = F31(4)
        v1 = model.rd.phi1(x)
        assert v1 == model.rd.phi2(x) and not v1.is_zero
        if sqrt(F31, v1) is None:
            ext = build_extension(31, 2, 1)
            x = ext.embed(x)
            y = ext.zero
        else:
            y = F31.zero
        lifted = lift_point(model, x, y, rng_seed=1)
        assert lifted.indeterminate
        assert len(lifted.lifts) == 2
        a, b = lifted.lifts
        assert a.y1 == -b.y1 and a.y2 == -b.y2
        assert a.y1 + a.y2 == y

    def test_not_on_curve(self, F31):
        model = self._model(F31)
        rng = random.Random(13)
        rejected = 0
        for _ in range(50):
            x, y = F31(rng.randrange(31)), F31(rng.randrange(31))
            if model.f.eval(x, y).is_zero:
                continue
            with pytest.raises(NotOnCurveError):
                lift_point(model, x, y)
            rejected += 1
        assert rejected > 30

    def test_quadratic_extension_points(self, F31):
        model = self._model(F31)
        pts = [p for p in random_fiber_points(model, 40, rng_seed=17)
               if p.x.field.kind == "extension"]
        assert pts
        for p in pts[:10]:
            x, y = project_point(p)
            if y.is_zero:
                continue
            lifted = lift_point(model, x, y, rng_seed=17)
            assert any(
                (q.y1, q.y2) == (p.y1, p.y2) for q in lifted.lifts
            )

