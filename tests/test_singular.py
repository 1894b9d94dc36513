"""Singularity classification, point location, multiplicity certificates,
and the brute-force oracle."""

import random

import pytest

from howe import (
    BudgetExceededError,
    Certificate,
    HomPoly,
    MultiplicityExceedsTwoError,
    NotSingularError,
    brute_force_singular_scan,
    build_model,
    classify,
    gcd,
    genus_bound_check,
    h1_poly,
    prime_field,
    rational_point_set,
    resultant,
    sextic_from_quartics,
    singular_points,
    validate,
    verify_multiplicity_two,
)
from howe.bipoly import homogenize
from howe.reference import REFERENCE_EXAMPLES, reference_data
from howe.singular import TYPE_TABLE, SingularityType
from howe.unipoly import UniPoly

from conftest import closed_form_pools, determinant, random_branch_data
from oracles import no_offaxis_singularities_check, sqrt, sylvester_matrix


def reference(name):
    for ex in REFERENCE_EXAMPLES:
        if ex.name == name:
            return reference_data(ex)
    raise KeyError(name)


class TestH1:
    def test_reference_i1(self, F31):
        rd = reference("I-1")
        h1 = h1_poly(rd)
        assert h1 == UniPoly.from_coeffs(F31, [11, 23, 26, 4])
        for r in (4, 12, 24):
            assert h1(F31(r)).is_zero

    def test_constant_when_only_last_difference_survives(self, F31):
        rd = reference("II-4")
        h1 = h1_poly(rd)
        assert h1.degree == 0
        assert h1 == UniPoly.from_coeffs(F31, [-(rd.sigma[3] - rd.tau[3])])

    def test_square_is_y0_restriction(self, F31):
        rng = random.Random(1)
        for _ in range(20):
            rd = random_branch_data(prime_field(31), rng)
            assert build_model(rd).f.y_slice(0) == h1_poly(rd) * h1_poly(rd)


class TestClassify:
    @pytest.mark.parametrize(
        "name, label, m, n",
        [
            ("I-1", "I-1", 3, 1),
            ("I-2", "I-2", 2, 1),
            ("I-3", "I-3", 1, 1),
            ("II-1", "II-1", 2, 2),
            ("II-2", "II-2", 1, 2),
            ("II-3", "II-3", 1, 2),
            ("II-4", "II-4", 0, 2),
        ],
    )
    def test_reference_labels(self, name, label, m, n):
        kind = classify(reference(name))
        assert kind.label == label
        assert (kind.affine_count, kind.infinity_count) == (m, n)
        assert kind.total == m + n

    def test_reference_resultants(self, F31):
        assert classify(reference("I-1")).res_h1_h1p == F31(27)
        k2 = classify(reference("I-2"))
        assert k2.res_h1_h1p.is_zero and k2.res_h1p_h1pp == F31(5)
        k21 = classify(reference("II-1"))
        assert k21.disc_h1 == F31(14)
        assert classify(reference("II-2")).disc_h1.is_zero

    def test_affine_count_equals_distinct_roots(self, F31, F1009, QQ):
        rng = random.Random(2)
        for field, span in ((prime_field(31), None), (prime_field(1009), None), (QQ, 30)):
            for _ in range(120):
                rd = random_branch_data(field, rng, span=span)
                kind = classify(rd)
                h1 = h1_poly(rd)
                g = gcd(h1, h1.derivative())
                assert kind.affine_count == h1.degree - g.degree


def classify_by_resultant(rd):
    """The general route: the resultants of h1 and its derivatives by
    ``resultant``, branching as the type table does.  The oracle for the
    closed forms in ``classify``."""
    h1 = h1_poly(rd)
    h1p = h1.derivative()
    if h1.degree == 3:
        r1 = resultant(h1, h1p)
        if not r1.is_zero:
            return SingularityType("I-1", 3, 1, res_h1_h1p=r1)
        r2 = resultant(h1p, h1p.derivative())
        label = "I-3" if r2.is_zero else "I-2"
        return SingularityType(label, *TYPE_TABLE[label], res_h1_h1p=r1, res_h1p_h1pp=r2)
    if h1.degree == 2:
        c, b, a = h1.coeffs
        r1 = resultant(h1, h1p)
        label = "II-2" if r1.is_zero else "II-1"
        return SingularityType(label, *TYPE_TABLE[label], res_h1_h1p=r1,
                               disc_h1=b * b - 4 * a * c)
    label = "II-3" if h1.degree == 1 else "II-4"
    return SingularityType(label, *TYPE_TABLE[label])


CLOSED_FORM_POOLS = closed_form_pools()


class TestClosedFormClassification:
    """``classify`` reads the resultants off closed forms; they must equal
    ``resultant`` and the Sylvester determinant value by value."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_POOLS))
    def test_matches_resultant_and_determinant(self, name):
        for rd in CLOSED_FORM_POOLS[name]:
            kind = classify(rd)
            assert kind == classify_by_resultant(rd)
            h1 = h1_poly(rd)
            h1p = h1.derivative()
            if kind.res_h1_h1p is not None:
                assert kind.res_h1_h1p == determinant(sylvester_matrix(h1, h1p))
            if kind.res_h1p_h1pp is not None:
                assert kind.res_h1p_h1pp == determinant(
                    sylvester_matrix(h1p, h1p.derivative()))
            if kind.disc_h1 is not None:
                # Res(A x^2 + B x + C, its derivative) = -A (B^2 - 4 A C)
                assert kind.res_h1_h1p == -(h1.lc() * kind.disc_h1)

    def test_planted_pools_reach_every_label(self):
        for name, pool in CLOSED_FORM_POOLS.items():
            if name.endswith("planted"):
                assert {classify(rd).label for rd in pool} == set(TYPE_TABLE)


class TestSingularPoints:
    def test_reference_i1_points(self, F31):
        pts = singular_points(reference("I-1"))
        coords = {tuple(c.val for c in p.coords) for p in pts}
        assert coords == {(24, 0, 1), (4, 0, 1), (12, 0, 1), (0, 1, 0)}

    def test_reference_ii3_points(self, F31):
        pts = singular_points(reference("II-3"))
        coords = {tuple(c.val for c in p.coords) for p in pts}
        assert coords == {(28, 0, 1), (0, 1, 0), (1, 0, 0)}

    def test_reference_i3_closed_form(self, F31):
        rd = reference("I-3")
        pts = singular_points(rd)
        affine = [p for p in pts if not p.at_infinity]
        assert len(affine) == 1
        xi = affine[0].coords[0]
        expected = (rd.sigma[1] - rd.tau[1]) / (F31(3) * (rd.sigma[0] - rd.tau[0]))
        assert xi == expected and xi.val == 12

    def test_reference_ii2_closed_form(self, F31):
        rd = reference("II-2")
        pts = singular_points(rd)
        affine = [p for p in pts if not p.at_infinity]
        xi = affine[0].coords[0]
        assert xi == (rd.sigma[2] - rd.tau[2]) / (F31(2) * (rd.sigma[1] - rd.tau[1]))
        assert xi.val == 25

    def test_extension_field_roots(self):
        # a quadratic h1 with non-square discriminant puts the two affine
        # points in F_p^2
        F = prime_field(31)
        rng = random.Random(3)
        for _ in range(300):
            rd = random_branch_data(F, rng)
            kind = classify(rd)
            if kind.label != "II-1":
                continue
            pts = singular_points(rd, rng_seed=4)
            degrees = sorted(p.extension_degree for p in pts if not p.at_infinity)
            if degrees == [2, 2]:
                for p in pts:
                    assert p.certificate.value is not None
                    assert not p.certificate.value.is_zero
                return
        pytest.skip("no II-1 instance with inert quadratic found")

    def test_rational_irrational_packet(self, QQ):
        rd = validate(
            [QQ(0), QQ(1), QQ(-1), QQ(3)],
            [QQ(2), QQ(5), QQ(7), QQ(11)],
        )
        pts = singular_points(rd)
        packets = [p for p in pts if p.coords is None]
        assert len(packets) == 1
        assert packets[0].conjugate_count == 3
        assert packets[0].minimal_poly.degree == 3
        assert sum(p.conjugate_count for p in pts if not p.at_infinity) == 3

    def test_counts_match_classification(self, F31, QQ):
        rng = random.Random(5)
        for field, span in ((prime_field(31), None), (QQ, 25)):
            for _ in range(60):
                rd = random_branch_data(field, rng, span=span)
                kind = classify(rd)
                pts = singular_points(rd, rng_seed=8)
                m = sum(p.conjugate_count for p in pts if not p.at_infinity)
                n = sum(1 for p in pts if p.at_infinity)
                assert (m, n) == (kind.affine_count, kind.infinity_count)


class TestCertificates:
    def test_point_at_infinity_always(self, F31):
        model = build_model(reference("I-1"))
        cert = verify_multiplicity_two(
            model.F, (F31.zero, F31.one, F31.zero)
        )
        assert cert.partial == "F_zz" and cert.value == F31(2)

    def test_x_axis_infinity_certificate(self, F31):
        model = build_model(reference("II-4"))
        cert = verify_multiplicity_two(
            model.F, (F31.one, F31.zero, F31.zero)
        )
        assert cert.partial == "F_yy" and cert.value == F31(-8)

    def test_affine_certificate_value(self, F31):
        rd = reference("I-1")
        model = build_model(rd)
        cert = verify_multiplicity_two(model.F, (F31(24), F31.zero, F31.one))
        # oracle: -8 * phi1(24), using phi1(xi) = phi2(xi) at a singular point
        assert rd.phi1(F31(24)) == rd.phi2(F31(24))
        assert cert.value == F31(-8) * rd.phi1(F31(24))
        assert not cert.value.is_zero

    def test_not_singular_rejected(self, F31):
        model = build_model(reference("I-1"))
        with pytest.raises(NotSingularError):
            verify_multiplicity_two(model.F, (F31(1), F31(1), F31.one))

    def test_all_first_partials_vanish_on_every_point(self, F31, QQ):
        rng = random.Random(6)
        for field, span in ((prime_field(31), None), (QQ, 20)):
            for _ in range(25):
                rd = random_branch_data(field, rng, span=span)
                model = build_model(rd)
                for p in singular_points(rd, 9, model):
                    if p.coords is None:
                        continue
                    x, y, z = p.coords
                    assert model.F.eval(x, y, z).is_zero
                    for var in "xyz":
                        assert model.F.partial(var).eval(x, y, z).is_zero
                    assert p.certificate.value is None or not p.certificate.value.is_zero


def _restrict_y0(F, field):
    """F(x, 0, 1) as a univariate polynomial."""
    deg = max((i for (i, j, k) in F.terms if j == 0), default=-1)
    coeffs = [field.zero] * (deg + 1)
    for (i, j, k), c in F.terms.items():
        if j == 0:
            coeffs[i] = coeffs[i] + c
    return UniPoly.from_coeffs(field, coeffs)


def divisibility_certificate(model, m):
    """The HomPoly route for a conjugate packet with monic minimal polynomial
    m: m divides F, F_x and F_z at y = 0, and f_yy(x, 0) is coprime to m."""
    F = model.F
    for name in ("", "x", "z"):
        poly = F if name == "" else F.partial(name)
        if not (_restrict_y0(poly, model.field) % m).is_zero:
            raise NotSingularError(f"minimal polynomial does not divide F_{name or 'itself'}")
    fyy = model.f.partial("y").partial("y").y_slice(0)
    if gcd(fyy, m).degree != 0:
        raise MultiplicityExceedsTwoError("f_yy shares a root with the minimal polynomial")
    return Certificate("f_yy", None, "nonzero: coprime to the minimal polynomial")


def branch_data_s1_equal(field, rng):
    """A valid configuration with s1 = t1, so that (1:0:0) is singular."""
    while True:
        alphas = [field.random_element(rng) for _ in range(4)]
        betas = [field.random_element(rng) for _ in range(3)]
        betas.append(sum(alphas, field.zero) - sum(betas, field.zero))
        if len({v.val for v in alphas + betas}) == 8:
            return validate(alphas, betas)


def f25_instance():
    from howe import build_extension

    E = build_extension(5, 2, 1)
    elems = [E((n % 5, n // 5 % 5)) for n in range(8)]
    return validate(elems[:4], elems[4:])


class TestClosedFormCertificates:
    """Every closed-form certificate equals the HomPoly oracle's."""

    def assert_matches_oracle(self, rd, seed=0):
        model = build_model(rd)
        pts = singular_points(rd, seed, model)
        for pt in pts:
            if pt.coords is None:
                assert divisibility_certificate(model, pt.minimal_poly.monic()) == pt.certificate
                continue
            assert verify_multiplicity_two(model.F, pt.coords) == pt.certificate
        return pts

    def test_f31_pool(self):
        rng = random.Random(21)
        for i in range(60):
            self.assert_matches_oracle(random_branch_data(prime_field(31), rng), i)

    def test_f10007_pool_reaches_cubic_extensions(self):
        rng = random.Random(22)
        degrees = set()
        for i in range(40):
            pts = self.assert_matches_oracle(random_branch_data(prime_field(10007), rng), i)
            degrees.update(p.extension_degree for p in pts)
        assert degrees == {1, 2, 3}

    def test_rational_pool_points_and_packets(self, QQ):
        rng = random.Random(23)
        kinds = set()
        for i in range(60):
            pts = self.assert_matches_oracle(random_branch_data(QQ, rng, span=40), i)
            kinds.update((p.coords is None, p.extension_degree) for p in pts)
        assert {(False, 1), (True, 2), (True, 3)} <= kinds

    def test_f25_instance(self):
        pts = self.assert_matches_oracle(f25_instance())
        assert [p.at_infinity for p in pts] == [False, False, False, True]

    def test_point_x_at_infinity(self):
        rng = random.Random(24)
        for field in (prime_field(31), prime_field(10007)):
            for i in range(20):
                rd = branch_data_s1_equal(field, rng)
                pts = self.assert_matches_oracle(rd, i)
                assert pts[-1].coords == (field.one, field.zero, field.zero)
                assert pts[-1].certificate == Certificate("F_yy", field(-8))

    def test_packet_certificate_rejects_non_dividing_factor(self, QQ):
        rd = validate([QQ(0), QQ(1), QQ(-1), QQ(3)], [QQ(2), QQ(5), QQ(7), QQ(11)])
        model = build_model(rd)
        bogus = UniPoly.from_coeffs(QQ, [-2, 0, 1])  # x^2 - 2 does not divide h1
        with pytest.raises(NotSingularError):
            divisibility_certificate(model, bogus)


class TestRuntimeChecks:
    def test_non_root_rejected(self, monkeypatch):
        import howe.singular as singular
        from howe.unipoly import Root

        rd = reference("I-1")
        F = rd.field
        fake = [Root(F(v), 1, 1) for v in (1, 2, 3)]
        monkeypatch.setattr(singular, "roots", lambda *a, **k: fake)
        with pytest.raises(NotSingularError):
            singular_points(rd)

    def test_non_dividing_packet_rejected(self, monkeypatch, QQ):
        import howe.singular as singular

        rd = validate([QQ(0), QQ(1), QQ(-1), QQ(3)], [QQ(2), QQ(5), QQ(7), QQ(11)])
        bogus = UniPoly.from_coeffs(QQ, [-2, 0, 0, 1])
        monkeypatch.setattr(singular, "factor_rational", lambda h: (QQ.one, [(bogus, 1)]))
        with pytest.raises(NotSingularError):
            singular_points(rd)

    def test_vanishing_certificate_rejected(self):
        rd = reference("I-1")
        model = build_model(rd)
        broken = model._replace(coeffs=model.coeffs._replace(c04=rd.field.zero))
        with pytest.raises(MultiplicityExceedsTwoError):
            singular_points(rd, 0, broken)

    def test_x_point_requires_vanishing_top_terms(self):
        rd = reference("II-4")
        model = build_model(rd)
        broken = model._replace(coeffs=model.coeffs._replace(c50=rd.field.one))
        with pytest.raises(NotSingularError):
            singular_points(rd, 0, broken)


class TestScan:
    def test_reference_agreement(self):
        for ex in REFERENCE_EXAMPLES:
            rd = reference_data(ex)
            model = build_model(rd)
            sym = rational_point_set(singular_points(rd, 0, model))
            scan = set(brute_force_singular_scan(model.F))
            assert sym == scan

    def test_nonsingular_conic_scan_empty(self, F31):
        from howe.bipoly import BiPoly

        conic = homogenize(BiPoly(F31, {(2, 0): 1, (0, 2): 1, (0, 0): 1}), 2)
        assert brute_force_singular_scan(conic) == []

    def test_cusp_found(self, F31):
        # y^2 z = x^3 has its unique singular point at the origin chart point
        cusp = HomPoly(F31, {(3, 0, 0): 1, (0, 2, 1): -1}, 3)
        assert brute_force_singular_scan(cusp) == [(0, 0, 1)]

    def test_budget(self, F31):
        model = build_model(reference("I-1"))
        with pytest.raises(BudgetExceededError):
            brute_force_singular_scan(model.F, budget=100)

    def test_random_small_prime_agreement(self):
        rng = random.Random(7)
        for p in (31, 37, 41):
            field = prime_field(p)
            for _ in range(6):
                rd = random_branch_data(field, rng)
                model = build_model(rd)
                sym = rational_point_set(singular_points(rd, 11, model))
                scan = set(brute_force_singular_scan(model.F))
                assert sym == scan

    def test_extension_field_scan(self):
        # generic chart-walk over F_25 agrees with the located points
        from howe import build_extension

        E = build_extension(5, 2, 1)
        elems = []
        n = 0
        while len(elems) < 8:
            digits = (n % 5, n // 5 % 5)
            elems.append(E(digits))
            n += 1
        rd = validate(elems[:4], elems[4:])
        model = build_model(rd)
        sym = rational_point_set(singular_points(rd, 0, model))
        scan = set(brute_force_singular_scan(model.F))
        # located points over the base field must appear in the scan
        assert sym <= scan


class TestOffAxisAndGenus:
    def test_valid_instances_clean(self):
        rng = random.Random(8)
        for _ in range(10):
            rd = random_branch_data(prime_field(31), rng)
            model = build_model(rd)
            assert no_offaxis_singularities_check(model.F)

    def test_duplicated_root_can_break_it(self, F31):
        # phi1 with a double root produces singular points off y = 0
        # whenever phi2 at the double root is a nonzero square
        rng = random.Random(9)
        for _ in range(200):
            a = F31(rng.randrange(31))
            others = [F31(rng.randrange(31)) for _ in range(2)]
            betas = [F31(rng.randrange(31)) for _ in range(4)]
            vals = [a, a] + others + betas
            if len({v.val for v in vals}) != 7:  # a doubled, rest distinct
                continue
            phi1 = UniPoly.from_roots([a, a] + others)
            phi2 = UniPoly.from_roots(betas)
            if sqrt(F31, phi2(a)) is None or phi2(a).is_zero:
                continue
            f = sextic_from_quartics(phi1, phi2)
            F = homogenize(f, 6)
            assert not no_offaxis_singularities_check(F)
            return
        pytest.fail("no witness configuration found")

    def test_cusp_curve_fails_offaxis_shape(self, F31):
        # scanner itself is exercised by a non-model curve: x^3 = y^2 z is
        # singular at (0:0:1), which has y = 0, so the check passes there
        cusp = HomPoly(F31, {(3, 0, 0): 1, (0, 2, 1): -1}, 3)
        assert no_offaxis_singularities_check(cusp)

    @pytest.mark.parametrize("total, ok", [(2, True), (3, True), (4, True), (6, False)])
    def test_genus_bound(self, total, ok):
        t = SingularityType("I-1", total - 1, 1)
        assert genus_bound_check(t) == ok
