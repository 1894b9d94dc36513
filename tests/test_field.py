"""Field arithmetic: canonical representatives, axioms, extension
construction, and the Tonelli-Shanks oracle of ``tests/oracles.py``."""

import pytest
from hypothesis import given, settings, strategies as st

from howe import (
    DivisionByZeroError,
    MixedFieldsError,
    UnsupportedFieldError,
    build_extension,
    is_prime,
    prime_field,
    rational_field,
)
from howe.field import PrimeField
from howe.unipoly import UniPoly, is_irreducible

from oracles import in_prime_subfield, sqrt, to_prime_subfield


def xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


class TestPrimeField:
    def test_inverse_of_three_mod_31(self, F31):
        # oracle: extended Euclid on plain integers
        g, s = xgcd(3, 31)
        assert g == 1 and s % 31 == 21
        assert F31(3).inverse() == F31(21)
        assert F31(3) * F31(21) == F31.one

    def test_mul_example(self, F31):
        assert (F31(14) * F31(7)).val == 98 % 31 == 5

    def test_additive_inverse_law(self, F31):
        for v in range(31):
            x = F31(v)
            assert (x + (-x)).is_zero

    def test_canonical_representatives(self, F31):
        assert F31(-1).val == 30
        assert F31(62).val == 0

    def test_division_by_zero(self, F31):
        with pytest.raises(DivisionByZeroError):
            F31(5) / F31(0)
        with pytest.raises(DivisionByZeroError):
            F31(0).inverse()

    def test_mixed_fields_rejected(self, F31, F7):
        with pytest.raises(MixedFieldsError):
            F31(1) + F7(1)
        # equality across fields is False rather than an error; an equal
        # field held as a separate instance still compares by value
        assert F31(1) != F7(1)
        assert PrimeField(31)(5) == F31(5)
        assert PrimeField(31)(5) != F31(6)
        assert F31(3) == 3 and F31(3) == 34 and F31(3) != 4

    def test_small_and_composite_moduli_rejected(self):
        for bad in (2, 3, 4, 9, 15):
            with pytest.raises(UnsupportedFieldError):
                prime_field(bad)

    @given(a=st.integers(0, 30), b=st.integers(0, 30), c=st.integers(0, 30))
    def test_field_axioms_f31(self, a, b, c):
        F = prime_field(31)
        x, y, z = F(a), F(b), F(c)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        if not x.is_zero:
            assert x * x.inverse() == F.one

    @given(a=st.integers(1, 1008))
    def test_inverse_times_self(self, a):
        F = prime_field(1009)
        assert F(a).inverse() * F(a) == F.one


class TestSqrt:
    def test_sqrt_two_mod_seven(self, F7):
        squares = {(v * v) % 7: v for v in range(7)}
        assert 2 in squares  # 3^2 = 9 = 2
        got = sqrt(F7, F7(2))
        assert got == (F7(3), F7(4))

    def test_sqrt_zero(self, F7):
        assert sqrt(F7, F7(0)) == (F7(0),)

    def test_nonresidue_absent(self, F7):
        squares = {(v * v) % 7 for v in range(7)}
        assert 3 not in squares
        assert sqrt(F7, F7(3)) is None

    @given(a=st.integers(0, 30), seed=st.integers(0, 5))
    def test_sqrt_squares_roundtrip(self, a, seed):
        F = prime_field(31)
        sq = F(a) * F(a)
        got = sqrt(F, sq, seed)
        assert got is not None
        assert any(r * r == sq for r in got)
        assert all(r * r == sq for r in got)

    def test_sqrt_over_p_equal_1_mod_4(self):
        # 29 = 1 mod 4 forces the full Tonelli-Shanks path
        F = prime_field(29)
        for v in range(29):
            sq = F(v) * F(v)
            got = sqrt(F, sq, seed=3)
            assert got is not None and all(r * r == sq for r in got)

    def test_sqrt_unsupported_over_q(self, QQ):
        with pytest.raises(UnsupportedFieldError):
            sqrt(QQ, QQ(4))

    def test_sqrt_in_extension(self):
        E = build_extension(7, 2, 1)
        # every element of F_7 becomes a square in F_49
        for v in range(1, 7):
            a = E.embed(prime_field(7)(v))
            got = sqrt(E, a, seed=2)
            assert got is not None
            assert all(r * r == a for r in got)


class TestExtension:
    def test_degree_one_is_prime_field(self, F31):
        assert build_extension(31, 1, 0) is F31

    def test_f25_modulus_has_no_root(self):
        E = build_extension(5, 2, 3)
        F5 = prime_field(5)
        m = UniPoly.from_coeffs(F5, E.modulus)
        assert all(not m(F5(v)).is_zero for v in range(5))
        assert is_irreducible(m)

    def test_f31_cubed_hosts_reference_h1_roots(self, F31):
        # the type I-1 reference h1 splits over F_31 already, so its roots
        # embed into any cubic extension
        E = build_extension(31, 3, 5)
        h1 = UniPoly.from_coeffs(F31, [11, 23, 26, 4])
        for r in (4, 12, 24):
            assert h1(F31(r)).is_zero
            assert h1(E.embed(F31(r))).is_zero

    def test_extension_arithmetic_inverse(self):
        E = build_extension(11, 3, 9)
        g = E.generator()
        x = g * g + g + E(5)
        assert x * x.inverse() == E.one
        assert x ** (E.order - 1) == E.one

    def test_base_is_the_cached_prime_field(self):
        assert build_extension(13, 2, 0).base is prime_field(13)

    def test_embed_roundtrip(self):
        E = build_extension(13, 2, 0)
        F13 = prime_field(13)
        for v in range(13):
            e = E.embed(F13(v))
            assert in_prime_subfield(e)
            assert to_prime_subfield(e) == F13(v)


class TestRationalField:
    def test_exact_fractions(self, QQ):
        x = QQ("3/4")
        y = QQ("5/6")
        assert (x + y).val.numerator == 19 and (x + y).val.denominator == 12
        assert (x / y).val == QQ("9/10").val

    def test_always_reduced(self, QQ):
        from fractions import Fraction

        v = QQ(Fraction(6, 4))
        assert v.val.numerator == 3 and v.val.denominator == 2

    @given(
        a=st.fractions(max_denominator=50),
        b=st.fractions(max_denominator=50),
        c=st.fractions(max_denominator=50),
    )
    @settings(max_examples=50)
    def test_axioms(self, a, b, c):
        QQ = rational_field()
        x, y, z = QQ(a), QQ(b), QQ(c)
        assert (x + y) * z == x * z + y * z
        if not x.is_zero:
            assert x * x.inverse() == QQ.one


def test_is_prime_small_and_large():
    primes = [5, 7, 31, 97, 1009, 10007, 2**61 - 1]
    composites = [1, 4, 6, 9, 15, 1001, 2**61 + 1]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)
