"""Irreducibility machinery: the certificate on valid data, witness recovery
by the oracle searches on synthetic reducible sextics, and closed-form
residual identities."""

import random
import time
from fractions import Fraction

import pytest

import howe.irreducible as irreducible
from howe import (
    BiPoly,
    ConstructionMismatchError,
    DuplicateRamificationPointError,
    RamificationData,
    build_extension,
    build_model,
    is_absolutely_irreducible,
    prime_field,
    rational_field,
    shape_b_test,
    validate,
)
from howe.sextic import VARYING_COEFFS
from howe.reference import REFERENCE_EXAMPLES, reference_data
from howe.sampling import sample_types
from howe.unipoly import UniPoly

from conftest import random_branch_data
from oracles import (
    _relabel_proof_cases,
    _shape_grid,
    general_shape_b_cases,
    shape_a_test,
    shape_a_witness,
    shape_b_witness,
    sqrt,
)


def translated(rd, c):
    """The branch data with all eight values shifted by c."""
    return validate([a + c for a in rd.alphas], [b + c for b in rd.betas])


def even_quadratic(field, coeffs):
    """y^2 + (polynomial in x)."""
    f = BiPoly(field, {(0, 2): field.one})
    return f + BiPoly.from_unipoly(UniPoly.from_coeffs(field, coeffs), "x", 0)


def shape_b_pair(field, a):
    a1, a2, a3, a4, a5, a6 = (field(v) for v in a)
    lin = BiPoly(field, {(2, 0): field(2), (1, 0): a1, (0, 0): a2})
    cub = BiPoly(field, {(3, 0): a3, (2, 0): a4, (1, 0): a5, (0, 0): a6})
    y = BiPoly(field, {(0, 1): field.one})
    y2 = BiPoly(field, {(0, 2): field.one})
    return y2 + lin * y + cub, y2 - lin * y + cub


class TestValidDataIsIrreducible:
    def test_reference_examples(self):
        for ex in REFERENCE_EXAMPLES:
            verdict = is_absolutely_irreducible(reference_data(ex))
            assert verdict.irreducible
            for case in verdict.shape_b_residuals:
                assert any(not r.is_zero for r in case.residuals)

    def test_random_f31(self):
        rng = random.Random(1)
        for _ in range(150):
            rd = random_branch_data(prime_field(31), rng)
            assert is_absolutely_irreducible(rd).irreducible

    def test_random_f1009(self):
        rng = random.Random(2)
        for _ in range(100):
            rd = random_branch_data(prime_field(1009), rng)
            assert is_absolutely_irreducible(rd).irreducible

    def test_random_rational(self, QQ):
        rng = random.Random(3)
        for _ in range(60):
            rd = random_branch_data(QQ, rng, span=50)
            assert is_absolutely_irreducible(rd).irreducible

    def test_shape_tests_individually_absent(self):
        rng = random.Random(4)
        for _ in range(40):
            rd = random_branch_data(prime_field(31), rng)
            assert shape_a_test(rd) is None
            assert shape_b_test(rd)  # residual diagnostics retained


class TestShapeAWitness:
    def test_recovers_synthetic_factorization(self, F31):
        q2 = [1, 0, 1]  # x^2 + 1
        q4 = [1, 0, 0, 0, -4]  # -4x^4 + 1
        H1 = even_quadratic(F31, q2)
        H2 = even_quadratic(F31, q4)
        f = H1 * H2
        got = shape_a_witness(f)
        assert got is not None
        assert got.h1 * got.h2 == f
        assert {str(got.h1), str(got.h2)} == {str(H1), str(H2)}

    def test_random_synthetic_over_q(self, QQ):
        rng = random.Random(5)
        for _ in range(25):
            q2 = [rng.randint(-6, 6) for _ in range(3)]
            q4 = [rng.randint(-6, 6) for _ in range(4)] + [-4]
            f = even_quadratic(QQ, q2) * even_quadratic(QQ, q4)
            if f.y_slice(0).is_zero:
                continue
            got = shape_a_witness(f)
            assert got is not None
            assert got.h1 * got.h2 == f

    def test_irreducible_shape_gives_none(self, F31):
        rd = reference_data(REFERENCE_EXAMPLES[0])
        f = build_model(rd).f
        assert shape_a_witness(f) is None


class TestShapeBWitness:
    def test_recovers_chosen_coefficients(self, F31):
        chosen = (3, 5, 2, 7, 11, 13)
        H1, H2 = shape_b_pair(F31, chosen)
        f = H1 * H2
        got, cases = shape_b_witness(f)
        assert got is not None
        assert got.h1 * got.h2 == f
        got_a = tuple(v.val for v in got.coefficients)
        # the two factors can come back swapped: a1, a2 flip sign together
        neg = (31 - 3, 31 - 5, 2, 7, 11, 13)
        assert got_a in (chosen, neg)

    def test_random_synthetic_over_q(self, QQ):
        rng = random.Random(6)
        hits = 0
        for _ in range(30):
            a = tuple(rng.randint(-5, 5) for _ in range(6))
            H1, H2 = shape_b_pair(QQ, a)
            f = H1 * H2
            if f.y_slice(0).is_zero:
                continue
            got, _ = shape_b_witness(f)
            assert got is not None
            assert got.h1 * got.h2 == f
            hits += 1
        assert hits >= 20

    def test_translation_invariance(self, F31):
        rng = random.Random(7)
        for _ in range(25):
            rd = random_branch_data(prime_field(31), rng)
            shift = F31(rng.randrange(31))
            base = is_absolutely_irreducible(rd)
            moved = is_absolutely_irreducible(translated(rd, shift))
            assert base.irreducible == moved.irreducible


class TestResidualIdentities:
    def test_case_b2_q3_factorization(self, QQ):
        # in the a3 = -(s1 - t1) case the third residual collapses to
        # -1/2 (a1-a2-a3+a4)(a1-a2+a3-a4)(a1+a2-a3-a4) in the alpha values
        rng = random.Random(8)
        checked = 0
        for _ in range(40):
            rd = random_branch_data(QQ, rng, span=20)
            if (rd.sigma[0] - rd.tau[0]).is_zero:
                continue
            cases = shape_b_test(rd)
            b2 = [c for c in cases if c.case == "B2"]
            assert len(b2) == 1
            a1, a2, a3, a4 = (v.val for v in rd.alphas)
            brackets = (
                (a1 - a2 - a3 + a4) * (a1 - a2 + a3 - a4) * (a1 + a2 - a3 - a4)
            )
            expected = QQ(Fraction(-1, 2) * brackets)
            assert b2[0].residuals[2] == expected
            checked += 1
        assert checked >= 30

    def test_case_b1_q3_q5_closed_forms(self, QQ):
        # mirror identities in the symmetric functions of the translated data
        rng = random.Random(9)
        for _ in range(20):
            rd = random_branch_data(QQ, rng, span=15)
            if (rd.sigma[0] - rd.tau[0]).is_zero:
                continue
            rd0 = translated(rd, -rd.alphas[0])
            cases = shape_b_test(rd)
            b1 = [c for c in cases if c.case == "B1"][0]
            s3 = rd0.sigma[2].val
            s4 = rd0.sigma[3].val
            t1, t2 = rd0.tau[0].val, rd0.tau[1].val
            q3_expected = Fraction(-1, 2) * (8 * s3 + t1 * (t1 * t1 - 4 * t2))
            q5_expected = Fraction(-1, 16) * ((t1 * t1 - 4 * t2) ** 2 - 64 * s4)
            assert b1.residuals[2].val == q3_expected
            assert b1.residuals[4].val == q5_expected


class TestGuards:
    def test_shape_validation_rejects_wrong_grid(self, F31):
        # x^4 y^2 coefficient must be -4
        f = BiPoly(F31, {(0, 4): 1, (4, 2): -3, (0, 0): 1})
        with pytest.raises(ValueError):
            shape_a_witness(f)

    def test_zero_y0_restriction_rejected(self, F31):
        f = BiPoly(F31, {(0, 4): 1, (4, 2): -4, (0, 2): 1})
        with pytest.raises(Exception):
            shape_a_witness(f)


def shape_b_cases_from_model(rd):
    """The shape-B cases by polynomial arithmetic: translate the branch data
    so that alpha1 = 0, build the sextic as a BiPoly and read its grid.

    Independent of the closed-form Taylor shift, coefficients and case plan
    that :func:`shape_b_test` uses, and of its prime-field integer lane: the
    general case recipe (square roots, divisions, the zero branches) runs
    here on field elements, and no code is shared with the library's plan.
    """
    rd0 = translated(rd, -rd.alphas[0])
    f0 = build_model(rd0).f
    field = rd.field
    d1 = rd0.sigma[0] - rd0.tau[0]
    d2 = rd0.sigma[1] - rd0.tau[1]
    d4 = rd0.sigma[3] - rd0.tau[3]
    if d1.is_zero:
        a3_options = [("0", field.zero)]
        a4_zero = [(".1", field.zero)] if d2.is_zero else [(".1", d2), (".2", -d2)]
        a6_options = [(".1", d4), (".2", -d4)]
    else:
        a3_options = [("+", d1), ("-", -d1)]
        a4_zero = []
        a6_options = [("+", d4), ("-", -d4)]
    grid = _shape_grid(f0)
    c = tuple(grid.get((int(n[1]), int(n[2])), field.zero) for n in VARYING_COEFFS)
    cases = general_shape_b_cases(field, c, a3_options, a6_options, a4_zero)
    return [irreducible.CaseResiduals(*case) for case in _relabel_proof_cases(cases)]


def count_bipolys(monkeypatch) -> list:
    """Record every BiPoly constructed from here on; a sextic model (from
    ``build_model`` or any other route) builds at least one."""
    calls = []
    original = BiPoly.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(BiPoly, "__init__", counting)
    return calls


def _plain_pool(field, rng, n, span=None):
    return [random_branch_data(field, rng, span) for _ in range(n)]


def _a3_zero_pool(field, rng, n, span=None, symmetric=False):
    """n valid configurations with s1 = t1 (beta4 is solved for), or, with
    ``symmetric``, (a, -a, b, -b | c, -c, d, -d) where a^2 + b^2 = c^2 + d^2,
    so that s1 = t1 and s2 = t2."""
    out = []
    while len(out) < n:
        if symmetric:
            a, b, c = (field.random_element(rng) for _ in range(3))
            root = sqrt(field, a * a + b * b - c * c, 0)
            if root is None:
                continue
            d = root[0]
            vals = [a, -a, b, -b, c, -c, d, -d]
        else:
            vals = [field.random_element(rng) if span is None
                    else field(rng.randint(-span, span)) for _ in range(7)]
            vals.append(sum(vals[:4], field.zero) - vals[4] - vals[5] - vals[6])
        if len({v.val for v in vals}) == 8:
            out.append(validate(vals[:4], vals[4:]))
    return out


def _oracle_pools():
    F10007 = prime_field(10007)
    QQ = rational_field()
    return {
        "F31": _plain_pool(prime_field(31), random.Random(41), 60),
        "F10007": _plain_pool(F10007, random.Random(42), 60),
        "Q_H50": _plain_pool(QQ, random.Random(43), 30, span=50),
        "Q_H1000": _plain_pool(QQ, random.Random(44), 30, span=1000),
        "Q_H1e30": _plain_pool(QQ, random.Random(45), 8, span=10**30),
        "s1=t1": _a3_zero_pool(F10007, random.Random(46), 30),
        "s1=t1 over Q": _a3_zero_pool(QQ, random.Random(47), 15, span=100),
        "s1=t1, s2=t2": _a3_zero_pool(F10007, random.Random(48), 30, symmetric=True),
        "F25": _plain_pool(build_extension(5, 2, 0), random.Random(49), 30),
        "F_2^64-59": _plain_pool(prime_field(2**64 - 59), random.Random(51), 30),
    }


ORACLE_POOLS = _oracle_pools()


class TestClosedFormAgainstModel:
    @pytest.mark.parametrize("name", sorted(ORACLE_POOLS))
    def test_shape_b_cases_match_model_route(self, name):
        for rd in ORACLE_POOLS[name]:
            cases = shape_b_test(rd)
            expected = shape_b_cases_from_model(rd)
            assert [c.case for c in cases] == [c.case for c in expected]
            assert [c.coefficients for c in cases] == [c.coefficients for c in expected]
            assert [c.residuals for c in cases] == [c.residuals for c in expected]

    @pytest.mark.parametrize("name", sorted(ORACLE_POOLS))
    def test_shape_a_search_agrees_with_distinctness(self, name):
        for rd in ORACLE_POOLS[name]:
            assert shape_a_test(rd) is None

    def test_pools_reach_the_a3_zero_cases(self):
        labels = {c.case for rd in ORACLE_POOLS["s1=t1, s2=t2"]
                  for c in shape_b_test(rd)}
        assert labels == {"B0.1", "B0.2"}
        labels = {c.case for rd in ORACLE_POOLS["s1=t1"]
                  for c in shape_b_test(rd)}
        assert labels == {"B0.1", "B0.2", "B0.3", "B0.4"}

    def test_certificate_builds_no_model(self, monkeypatch):
        calls = count_bipolys(monkeypatch)
        for name in ("F31", "Q_H1000", "s1=t1", "F25"):
            for rd in ORACLE_POOLS[name]:
                assert is_absolutely_irreducible(rd).irreducible
        assert calls == []

    def test_vanishing_residuals_raise(self, monkeypatch):
        # valid data never gets here (4 phi1 and 4 phi2 are not squares);
        # inject a case whose residuals all vanish and check that it is
        # reported as a broken invariant, without building a model, on the
        # prime-field integer lane and on field elements
        calls = count_bipolys(monkeypatch)
        plan = irreducible._shape_b_cases

        def with_vanishing_case(ring, sigma, tau):
            cases = plan(ring, sigma, tau)
            zero = ring.reduce(sigma[0] - sigma[0])
            return cases + [("B", cases[0][1], (zero,) * 5)]

        monkeypatch.setattr(irreducible, "_shape_b_cases", with_vanishing_case)
        for name in ("F31", "Q_H50"):
            rd = ORACLE_POOLS[name][0]
            with pytest.raises(ConstructionMismatchError):
                is_absolutely_irreducible(rd)
        with pytest.raises(ConstructionMismatchError):
            sample_types(prime_field(31), 1)
        assert calls == []

    def test_repeated_value_in_hand_built_data_rejected(self, F31):
        for alphas, betas in [((1, 2, 3, 4), (4, 5, 6, 7)),
                              ((1, 2, 2, 4), (8, 5, 6, 7))]:
            a = tuple(F31(v) for v in alphas)
            b = tuple(F31(v) for v in betas)
            phi1 = UniPoly.from_roots(a, F31)
            phi2 = UniPoly.from_roots(b, F31)
            sigma = (-phi1[3], phi1[2], -phi1[1], phi1[0])
            tau = (-phi2[3], phi2[2], -phi2[1], phi2[0])
            rd = RamificationData(a, b, sigma, tau, phi1, phi2)
            with pytest.raises(DuplicateRamificationPointError):
                is_absolutely_irreducible(rd)
            with pytest.raises(DuplicateRamificationPointError):
                shape_b_test(rd)

    def test_large_height_is_fast(self):
        rds = _plain_pool(rational_field(), random.Random(50), 20, span=10**30)
        start = time.perf_counter()
        for rd in rds:
            assert is_absolutely_irreducible(rd).irreducible
        assert time.perf_counter() - start < 1.0
