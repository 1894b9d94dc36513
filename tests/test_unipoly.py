"""Univariate polynomial algebra: arithmetic, gcd, resultants (with the
Sylvester determinant as independent oracle), squarefree structure, roots,
and rational factorization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from howe import (
    BothZeroError,
    UnsupportedDegreeError,
    UnsupportedFieldError,
    ZeroPolynomialError,
    factor_rational,
    gcd,
    is_irreducible,
    prime_field,
    rational_field,
    resultant,
    roots,
    squarefree_decomposition,
)
from howe.unipoly import UniPoly

from conftest import determinant, expand_from_roots, random_branch_data
from oracles import is_perfect_square, sqrt, squarefree_part, sylvester_matrix


class TestFromRoots:
    def test_empty_product(self, F31):
        assert UniPoly.from_roots([], F31) == UniPoly.one(F31)

    def test_reference_quartic(self, F31):
        vals = [F31(0), F31(1), F31(-1), F31(20)]
        got = UniPoly.from_roots(vals)
        oracle = expand_from_roots(F31, vals)
        assert list(got.coeffs) == oracle
        # sigma = (20, 30, 11, 0) with alternating signs
        assert got == UniPoly.from_coeffs(F31, [0, 20, 30, 11, 1])

    def test_single_root(self, F31):
        a = F31(17)
        assert UniPoly.from_roots([a]) == UniPoly.from_coeffs(F31, [-a, F31.one])


class TestGcd:
    def test_gcd_with_zero(self, F31):
        f = UniPoly.from_coeffs(F31, [2, 4])
        assert gcd(f, UniPoly.zero(F31)) == f.monic()
        assert gcd(UniPoly.zero(F31), f) == f.monic()
        with pytest.raises(BothZeroError):
            gcd(UniPoly.zero(F31), UniPoly.zero(F31))

    def test_shared_linear_factor(self, QQ):
        x1 = UniPoly.from_coeffs(QQ, [-1, 1])
        x2 = UniPoly.from_coeffs(QQ, [-2, 1])
        x3 = UniPoly.from_coeffs(QQ, [-3, 1])
        f = x1 * x1 * x2
        g = x1 * x3
        assert gcd(f, g) == x1

    def test_reference_h1_squarefree(self, F31):
        h1 = UniPoly.from_coeffs(F31, [11, 23, 26, 4])
        assert gcd(h1, h1.derivative()) == UniPoly.one(F31)


class TestResultant:
    def test_linear_pair_convention(self, QQ):
        # prod of g over the roots of f, weighted by leading coefficients
        f = UniPoly.from_coeffs(QQ, [-2, 1])
        g = UniPoly.from_coeffs(QQ, [-5, 1])
        assert resultant(f, g) == QQ(-3)

    def test_reference_value_27(self, F31):
        h1 = UniPoly.from_coeffs(F31, [11, 23, 26, 4])
        assert resultant(h1, h1.derivative()) == F31(27)

    def test_reference_value_5(self, F31):
        # type I-2 branch data: alpha = (0,1,-1,11), beta = (2,13,29,22)
        h1 = UniPoly.from_coeffs(F31, [3, 5, -27, 7])
        h1p = h1.derivative()
        assert resultant(h1, h1p).is_zero
        assert resultant(h1p, h1p.derivative()) == F31(5)

    def test_matches_sylvester_determinant_f31(self, F31):
        rng = random.Random(7)
        for _ in range(120):
            f = UniPoly.from_coeffs(
                F31, [F31(rng.randrange(31)) for _ in range(rng.randint(1, 7))]
            )
            g = UniPoly.from_coeffs(
                F31, [F31(rng.randrange(31)) for _ in range(rng.randint(1, 7))]
            )
            if f.is_zero or g.is_zero or f.degree + g.degree == 0:
                continue
            assert resultant(f, g) == determinant(sylvester_matrix(f, g))

    def test_matches_sylvester_determinant_q(self, QQ):
        rng = random.Random(11)
        # 40 pairs of height 9, then 15 of height 10^30
        for height in [9] * 40 + [10**30] * 15:
            f = UniPoly.from_coeffs(
                QQ, [QQ(rng.randint(-height, height)) for _ in range(rng.randint(2, 6))]
            )
            g = UniPoly.from_coeffs(
                QQ, [QQ(rng.randint(-height, height)) for _ in range(rng.randint(2, 6))]
            )
            if f.is_zero or g.is_zero:
                continue
            if f.degree + g.degree == 0:
                continue
            assert resultant(f, g) == determinant(sylvester_matrix(f, g))

    def test_swap_sign_rule(self, F31):
        rng = random.Random(3)
        for _ in range(50):
            f = UniPoly.from_coeffs(F31, [rng.randrange(31) for _ in range(4)])
            g = UniPoly.from_coeffs(F31, [rng.randrange(31) for _ in range(3)])
            if f.is_zero or g.is_zero:
                continue
            sign = -1 if (f.degree * g.degree) % 2 else 1
            assert resultant(f, g) == resultant(g, f) * F31(sign)

    def test_zero_iff_common_factor(self, F31):
        rng = random.Random(5)
        for _ in range(150):
            f = UniPoly.from_coeffs(F31, [rng.randrange(31) for _ in range(rng.randint(2, 5))])
            g = UniPoly.from_coeffs(F31, [rng.randrange(31) for _ in range(rng.randint(2, 5))])
            if f.is_zero or g.is_zero or f.degree == 0 or g.degree == 0:
                continue
            assert resultant(f, g).is_zero == (gcd(f, g).degree > 0)

    def test_zero_polynomial_rejected(self, F31):
        with pytest.raises(ZeroPolynomialError):
            resultant(UniPoly.zero(F31), UniPoly.one(F31))


class TestDerivative:
    def test_constant(self, F31):
        assert UniPoly.from_coeffs(F31, [5]).derivative().is_zero

    def test_termwise(self, F31):
        f = UniPoly.from_coeffs(F31, [11, 23, 26, 4])
        # term-by-term oracle: coefficient i+1 times i+1
        expected = [F31((i + 1)) * f.coeffs[i + 1] for i in range(f.degree)]
        assert list(f.derivative().coeffs) == expected
        assert f.derivative() == UniPoly.from_coeffs(F31, [23, 21, 12])

    def test_frobenius_kernel(self, F7):
        xp = UniPoly.from_coeffs(F7, [0] * 7 + [1])  # x^7 over F_7
        assert xp.derivative().is_zero


class TestSquarefree:
    def test_strips_multiplicity(self, QQ):
        x1 = UniPoly.from_coeffs(QQ, [-1, 1])
        x2 = UniPoly.from_coeffs(QQ, [-2, 1])
        assert squarefree_part(x1 * x1 * x2) == x1 * x2

    def test_squarefree_fixed_point(self, F31):
        f = UniPoly.from_coeffs(F31, [3, 1, 1])
        assert squarefree_part(f.scale(F31(5))) == f.monic()

    def test_reference_i2_h1(self, F31):
        h1 = UniPoly.from_coeffs(F31, [3, 5, -27, 7])
        part = squarefree_part(h1)
        assert part.degree == 2
        assert part(F31(25)).is_zero and part(F31(7)).is_zero

    def test_distinct_root_count(self, F31):
        rng = random.Random(9)
        for _ in range(60):
            pool = [F31(rng.randrange(31)) for _ in range(rng.randint(1, 6))]
            f = UniPoly.from_roots(pool)
            assert squarefree_part(f).degree == len({v.val for v in pool})

    def test_char_p_multiplicities(self, F7):
        # (x - 1)^7 (x - 2)^2 exercises the p-th root branch
        x1 = UniPoly.from_coeffs(F7, [-1, 1])
        x2 = UniPoly.from_coeffs(F7, [-2, 1])
        f = x1**7 * x2**2
        lead, factors = squarefree_decomposition(f)
        assert lead == F7.one
        assert factors == [(x2, 2), (x1, 7)]
        assert squarefree_part(f) == x1 * x2


class TestPerfectSquare:
    def test_linear_square(self, QQ):
        f = UniPoly.from_coeffs(QQ, [1, 2, 1])
        got = is_perfect_square(f)
        assert got is not None
        g, lead = got
        assert g == UniPoly.from_coeffs(QQ, [1, 1]) and lead == QQ.one

    def test_odd_multiplicity_absent(self, QQ):
        assert is_perfect_square(UniPoly.from_coeffs(QQ, [0, 0, 0, 1])) is None

    def test_branch_quartic_product_never_square(self, F31):
        rng = random.Random(2)
        for _ in range(30):
            rd = random_branch_data(prime_field(31), rng)
            assert is_perfect_square(rd.phi1 * rd.phi2) is None

    def test_recovers_generator(self, F31):
        rng = random.Random(4)
        for _ in range(40):
            g = UniPoly.from_coeffs(F31, [rng.randrange(31) for _ in range(rng.randint(2, 4))])
            if g.is_zero:
                continue
            got = is_perfect_square(g * g)
            assert got is not None
            root, lead = got
            assert root.scale(lead).monic() == g.monic()
            assert root == g.monic()


class TestRoots:
    def test_reference_h1_roots(self, F31):
        h1 = UniPoly.from_coeffs(F31, [11, 23, 26, 4])
        got = roots(h1, 3, rng_seed=1)
        assert sorted(r.value.val for r in got) == [4, 12, 24]
        assert all(r.multiplicity == 1 and r.extension_degree == 1 for r in got)

    def test_quadratic_over_f7_splits_in_f49(self, F7):
        squares = {(v * v) % 7 for v in range(7)}
        assert 7 - 1 not in squares  # -1 is a non-residue mod 7
        f = UniPoly.from_coeffs(F7, [1, 0, 1])
        got = roots(f, 2, rng_seed=0)
        assert len(got) == 2
        assert all(r.extension_degree == 2 for r in got)
        for r in got:
            assert f(r.value).is_zero

    def test_constant_has_no_roots(self, F31):
        assert roots(UniPoly.from_coeffs(F31, [5]), 3) == []

    def test_multiplicities_and_multiply_back(self, F31):
        rng = random.Random(17)
        for _ in range(25):
            pool = []
            for _ in range(rng.randint(1, 3)):
                pool.extend([F31(rng.randrange(31))] * rng.randint(1, 3))
            f = UniPoly.from_roots(pool).scale(F31(rng.randrange(1, 31)))
            got = roots(f, 3, rng_seed=6)
            rebuilt = UniPoly.one(prime_field(31))
            for r in got:
                assert r.extension_degree == 1
                rebuilt = rebuilt * UniPoly.from_roots([r.value]) ** r.multiplicity
            assert rebuilt == f.monic()

    def test_degree_bound_respected(self, F7):
        # irreducible cubic: roots appear only once the bound allows degree 3
        f = UniPoly.from_coeffs(F7, [2, 0, 0, 1])
        assert all(not f(prime_field(7)(v)).is_zero for v in range(7))
        assert is_irreducible(f)
        assert roots(f, 2, rng_seed=0) == []
        got = roots(f, 3, rng_seed=0)
        assert len(got) == 3 and all(r.extension_degree == 3 for r in got)
        for r in got:
            assert f(r.value).is_zero
            assert r.value.field.modulus == tuple(c.val for c in f.monic().coeffs)

    def test_unsupported_over_q(self, QQ):
        with pytest.raises(UnsupportedFieldError):
            roots(UniPoly.from_coeffs(QQ, [1, 1]), 1)


class TestIrreducible:
    def test_linear_always(self, F31):
        assert is_irreducible(UniPoly.from_coeffs(F31, [4, 1]))

    def test_products_never(self, F31):
        f = UniPoly.from_coeffs(F31, [1, 1]) * UniPoly.from_coeffs(F31, [2, 1])
        assert not is_irreducible(f)

    def test_quadratic_matches_residue_status(self, F31):
        rng = random.Random(23)
        for _ in range(40):
            b, c = rng.randrange(31), rng.randrange(31)
            f = UniPoly.from_coeffs(F31, [c, b, 1])
            disc = prime_field(31)((b * b - 4 * c) % 31)
            has_root = any(f(prime_field(31)(v)).is_zero for v in range(31))
            assert is_irreducible(f) == (not has_root)
            assert has_root == (sqrt(prime_field(31), disc) is not None)


class TestFactorRational:
    def test_irreducible_quadratic(self, QQ):
        f = UniPoly.from_coeffs(QQ, [-2, 0, 1])
        content, factors = factor_rational(f)
        assert content == QQ.one
        assert factors == [(f, 1)]

    def test_cubic_with_three_roots(self, QQ):
        f = UniPoly.from_coeffs(QQ, [0, -1, 0, 1])
        content, factors = factor_rational(f)
        assert content == QQ.one
        got = sorted(str(g) for g, _ in factors)
        assert got == ["x", "x + 1", "x - 1"] or got == sorted(["x", "x + 1", "x - 1"])
        assert all(m == 1 for _, m in factors)

    def test_content_and_multiplicity(self, QQ):
        f = UniPoly.from_coeffs(QQ, [2, 4, 2])
        content, factors = factor_rational(f)
        assert content == QQ(2)
        assert factors == [(UniPoly.from_coeffs(QQ, [1, 1]), 2)]

    def test_non_monic_primitive_split(self, QQ):
        # (2x + 1)(x + 1) keeps integer primitive factors
        f = UniPoly.from_coeffs(QQ, [1, 3, 2])
        content, factors = factor_rational(f)
        assert content == QQ.one
        assert sorted(str(g) for g, _ in factors) == ["2*x + 1", "x + 1"]

    def test_quartic_product_of_quadratics(self, QQ):
        # no rational root and degree 4: beyond the supported shape
        a = UniPoly.from_coeffs(QQ, [1, 0, 1])
        b = UniPoly.from_coeffs(QQ, [2, 0, 1])
        with pytest.raises(UnsupportedDegreeError):
            factor_rational(a * b)

    def test_quartic_irreducible_with_modular_splits(self, QQ):
        # x^4 + 1 factors modulo every prime but not over Q
        f = UniPoly.from_coeffs(QQ, [1, 0, 0, 0, 1])
        with pytest.raises(UnsupportedDegreeError):
            factor_rational(f)

    def test_multiply_back_random(self, QQ):
        # the supported shape: linear factors times one factor of degree <= 3
        rng = random.Random(31)
        for _ in range(20):
            f = UniPoly.from_coeffs(
                QQ, [rng.randint(-5, 5) for _ in range(rng.randint(2, 4))]
            )
            for _ in range(rng.randint(0, 3)):
                f = f * UniPoly.from_coeffs(QQ, [rng.randint(-5, 5), rng.randint(1, 5)])
            if f.degree < 1:
                continue
            content, factors = factor_rational(f)
            rebuilt = UniPoly.constant(content)
            for g, m in factors:
                rebuilt = rebuilt * g**m
            assert rebuilt == f

    def test_out_of_contract_draw_raises(self, QQ):
        # two irreducible quadratics and a linear factor: a squarefree part of
        # degree 5 whose remainder after the rational root has degree 4
        f = (
            UniPoly.from_coeffs(QQ, [3, 1, 1])
            * UniPoly.from_coeffs(QQ, [-5, 0, 2])
            * UniPoly.from_coeffs(QQ, [4, 3])
        )
        with pytest.raises(UnsupportedDegreeError, match="degree 4"):
            factor_rational(f)

    def test_huge_coefficients_multiply_back(self, QQ):
        # linear factors v*x - u and a cubic with coefficients up to 10^60
        rng = random.Random(60)
        for _ in range(30):
            planted = set()
            f = UniPoly.from_coeffs(
                QQ, [rng.randint(-10**60, 10**60) for _ in range(rng.randint(1, 3))]
                + [rng.randint(1, 10**60)]
            )
            for _ in range(rng.randint(0, 3)):
                u, v = rng.randint(-10**60, 10**60), rng.randint(1, 10**60)
                planted.add(Fraction(u, v))
                f = f * UniPoly.from_coeffs(QQ, [-u, v])
            content, factors = factor_rational(f)
            rebuilt = UniPoly.constant(content)
            found = set()
            for g, m in factors:
                assert g.lc().val > 0
                assert all(c.val.denominator == 1 for c in g.coeffs)
                if g.degree == 1:
                    found.add(-g[0].val / g[1].val)
                rebuilt = rebuilt * g**m
            assert rebuilt == f
            assert planted <= found


def _divisors(n: int):
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def _divisor_search_roots(ints):
    """Rational roots of an integer polynomial by the rational root theorem:
    the oracle for the p-adic lifting in factor_rational."""
    out = set()
    while ints[0] == 0:
        out.add(Fraction(0))
        ints = ints[1:]
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            for r in (Fraction(num, den), Fraction(-num, den)):
                if sum(c * r**i for i, c in enumerate(ints)) == 0:
                    out.add(r)
    return out


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_lifted_roots_match_divisor_search(data):
    QQ = rational_field()
    small = st.integers(-12, 12)
    f = UniPoly.one(QQ)
    for _ in range(data.draw(st.integers(0, 4))):
        f = f * UniPoly.from_coeffs(QQ, [-data.draw(small), data.draw(st.integers(1, 12))])
    if data.draw(st.booleans()):
        low = data.draw(st.lists(small, min_size=1, max_size=3))
        f = f * UniPoly.from_coeffs(QQ, low + [data.draw(st.integers(1, 12))])
    if f.degree < 1:
        return
    _, factors = factor_rational(f)
    lifted = {-g[0].val / g[1].val for g, _ in factors if g.degree == 1}
    assert lifted == _divisor_search_roots([int(c.val) for c in f.coeffs])


def test_division_identity(F31):
    rng = random.Random(41)
    for _ in range(60):
        f = UniPoly.from_coeffs(F31, [rng.randrange(31) for _ in range(rng.randint(1, 8))])
        g = UniPoly.from_coeffs(F31, [rng.randrange(31) for _ in range(rng.randint(1, 6))])
        if g.is_zero:
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_factor_rational_fractional_content(QQ):
    # coefficients with denominators: content carries the scaling
    f = UniPoly.from_coeffs(QQ, [Fraction(1, 2), Fraction(1, 2)])
    content, factors = factor_rational(f)
    assert content.val == Fraction(1, 2)
    assert factors == [(UniPoly.from_coeffs(QQ, [1, 1]), 1)]


def test_roots_multiplicity_in_extension(F7):
    # (x^2 + 1)^2 (x - 3): the double factor lives in F_49
    q = UniPoly.from_coeffs(F7, [1, 0, 1])
    lin = UniPoly.from_coeffs(F7, [-3, 1])
    got = roots(q * q * lin, 2, rng_seed=5)
    by_degree = {}
    for r in got:
        by_degree.setdefault(r.extension_degree, []).append(r)
    assert len(by_degree[1]) == 1 and by_degree[1][0].multiplicity == 1
    assert len(by_degree[2]) == 2
    assert all(r.multiplicity == 2 for r in by_degree[2])


def _pow_mod_reference(base, e, mod):
    """Plain UniPoly square-and-multiply: the oracle for the int-list kernel."""
    acc = UniPoly.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            acc = acc * base % mod
        base = base * base % mod
        e >>= 1
    return acc


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pow_mod_int_kernel_matches_unipoly(data):
    from howe.unipoly import _pow_mod

    p = data.draw(st.sampled_from([5, 7, 31, 10007]))
    F = prime_field(p)
    base = UniPoly.from_coeffs(F, data.draw(st.lists(st.integers(0, p - 1), max_size=7)))
    mod_low = data.draw(st.lists(st.integers(0, p - 1), max_size=5))
    mod = UniPoly.from_coeffs(F, mod_low + [data.draw(st.integers(1, p - 1))])
    e = data.draw(st.integers(0, 3 * p))
    got = _pow_mod(base, e, mod)
    assert got == _pow_mod_reference(base, e, mod)
    assert all(0 <= c.val < p for c in got.coeffs)


class TestFrobeniusConjugates:
    @pytest.mark.parametrize("p", [7, 31, 10007])
    def test_conjugates_are_frobenius_orbits(self, p):
        F = prime_field(p)
        rng = random.Random(p)
        seen = set()
        for trial in range(40):
            # a product of random monic factors of degree 1..3
            f = UniPoly.one(F)
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 3)
                f = f * UniPoly.from_coeffs(F, [rng.randrange(p) for _ in range(deg)] + [1])
            got = roots(f, 3, rng_seed=trial)
            by_field = {}
            for r in got:
                assert f(r.value).is_zero
                if r.extension_degree > 1:
                    by_field.setdefault(r.value.field.modulus, []).append(r.value)
            for modulus, conj in by_field.items():
                d = len(modulus) - 1
                seen.add(d)
                assert len(conj) == d
                assert {c.val for c in conj} == {(c**p).val for c in conj}
                # one orbit: repeated p-th powers of any conjugate reach all
                c, orbit = conj[0], set()
                for _ in range(d):
                    orbit.add(c.val)
                    c = c**p
                assert orbit == {c.val for c in conj}
        assert seen == {2, 3}

    def test_roots_pinned_for_fixed_seed(self, F31):
        # (x - 5)(x^2 + 1)(x^3 + x + 3): one factor of each degree
        f = UniPoly.from_coeffs(F31, [16, 29, 17, 24, 2, 26, 1])
        got = [(r.value.val, r.multiplicity, r.extension_degree) for r in roots(f, 3, 3)]
        assert got == [
            (5, 1, 1),
            ((0, 1), 1, 2), ((0, 30), 1, 2),
            ((0, 1, 0), 1, 3), ((2, 17, 3), 1, 3), ((29, 13, 28), 1, 3),
        ]
