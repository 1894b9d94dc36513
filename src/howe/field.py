"""Exact arithmetic in prime fields F_p (p >= 5), extensions F_{p^k}, and Q.

Elements are immutable and canonical: an integer in [0, p) for prime fields,
a fixed-length coefficient tuple for extensions, a reduced ``Fraction`` for
the rationals.  Equality is representational equality.  The irreducible
modulus search takes an explicit seed so results are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import (
    DivisionByZeroError,
    MixedFieldsError,
    UnsupportedFieldError,
)

MAX_PRIME_BITS = 64

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElement:
    """A canonical element of a :class:`Field`.

    Arithmetic operators accept another element of the same field or a plain
    integer (coerced through the field).  Mixing fields raises
    :class:`MixedFieldsError`.
    """

    __slots__ = ("field", "val")

    def __init__(self, field: "Field", val):
        self.field = field
        self.val = val

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other
            raise MixedFieldsError(
                f"cannot combine elements of {self.field} and {other.field}"
            )
        if isinstance(other, int) or (
            isinstance(other, Fraction) and self.field.kind == "rational"
        ):
            return self.field(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.field._add(self.val, other.val)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.field._sub(self.val, other.val)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.field._sub(other.val, self.val)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.field._mul(self.val, other.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.field._div(self.val, other.val)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.field._div(other.val, self.val)

    def __neg__(self):
        return self.field._neg(self.val)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        acc = self.field.one
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "FieldElement":
        return self.field._inv(self.val)

    @property
    def is_zero(self) -> bool:
        return self.val == self.field._zero_val

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field:
                return self.val == other.val
            return self.field == other.field and self.val == other.val
        if isinstance(other, int):
            return self.val == self.field(other).val
        return NotImplemented

    def __hash__(self):
        return hash((self.field._key(), self.val))

    def __repr__(self):
        return self.field._render(self.val)

    __str__ = __repr__

    def sort_key(self):
        """Total order on elements of one field, used for stable output."""
        v = self.val
        if isinstance(v, Fraction):
            return (v.numerator, v.denominator)
        return v


class Field:
    """Common interface of the three field kinds."""

    kind: str = ""

    def __call__(self, value) -> FieldElement:
        raise NotImplementedError

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # Subclasses define _add/_sub/_mul/_div/_neg/_inv on raw values and
    # set _zero_val; FieldElement delegates to them.

    @property
    def zero(self) -> FieldElement:
        return self(0)

    @property
    def one(self) -> FieldElement:
        return self(1)

    def random_element(self, rng: random.Random) -> FieldElement:
        raise UnsupportedFieldError(f"uniform sampling undefined over {self}")


class PrimeField(Field):
    """F_p for a prime p >= 5, elements stored as integers in [0, p)."""

    kind = "prime"
    _zero_val = 0

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise UnsupportedFieldError(f"modulus {p!r} is not prime")
        if p < 5:
            raise UnsupportedFieldError("characteristic 2 and 3 are not supported")
        if p.bit_length() > MAX_PRIME_BITS:
            raise UnsupportedFieldError(f"prime moduli are limited to {MAX_PRIME_BITS} bits")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        return self.p

    @property
    def degree(self) -> int:
        return 1

    def _key(self):
        return ("prime", self.p)

    def __repr__(self):
        return f"F_{self.p}"

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field == self:
                return value
            raise MixedFieldsError(f"cannot coerce {value!r} into {self}")
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        raise TypeError(f"cannot build an element of {self} from {value!r}")

    def _add(self, a, b):
        return FieldElement(self, (a + b) % self.p)

    def _sub(self, a, b):
        return FieldElement(self, (a - b) % self.p)

    def _mul(self, a, b):
        return FieldElement(self, (a * b) % self.p)

    def _neg(self, a):
        return FieldElement(self, -a % self.p)

    def _inv(self, a):
        if a == 0:
            raise DivisionByZeroError(f"inverse of zero in {self}")
        return FieldElement(self, pow(a, -1, self.p))

    def _div(self, a, b):
        if b == 0:
            raise DivisionByZeroError(f"division by zero in {self}")
        return FieldElement(self, a * pow(b, -1, self.p) % self.p)

    def _render(self, v):
        return str(v)

    def random_element(self, rng: random.Random) -> FieldElement:
        return FieldElement(self, rng.randrange(self.p))


# -- dense F_p[t] helpers on plain int lists (used only by ExtensionField) --


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        q = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for j, mj in enumerate(m):
            a[shift + j] = (a[shift + j] - q * mj) % p
        a.pop()
    return _ptrim(a)


def _pxgcd(a, b, p):
    # returns (g, u) with u*a = g mod b, g = gcd(a, b); enough for inversion
    r0, r1 = list(a), list(b)
    u0, u1 = [1], []
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _ptrim([(x - y) % p for x, y in _pzip(u0, _pmul(q, u1, p))])
    return r0, u0


def _pdivmod(a, b, p):
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    dm = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        q[shift] = c
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        a.pop()
    return _ptrim(q), _ptrim(a)


def _pzip(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n)]


class ExtensionField(Field):
    """F_{p^k} presented as F_p[t]/(m(t)) for a monic irreducible m of degree k.

    Elements are length-k tuples of integers, lowest degree first.  The
    modulus is validated for irreducibility on construction.
    """

    kind = "extension"

    def __init__(self, p: int, modulus: tuple, check_irreducible: bool = True):
        base = prime_field(p)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) < 3 or modulus[-1] != 1:
            raise UnsupportedFieldError("modulus must be monic of degree >= 2")
        self.p = p
        self.base = base
        self.modulus = modulus
        self.k = len(modulus) - 1
        self._zero_val = (0,) * self.k
        if check_irreducible:
            from . import unipoly  # deferred: unipoly imports this module

            m = unipoly.UniPoly.from_coeffs(base, modulus)
            if not unipoly.is_irreducible(m):
                raise UnsupportedFieldError(f"modulus {modulus} is reducible over F_{p}")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        return self.p**self.k

    @property
    def degree(self) -> int:
        return self.k

    def _key(self):
        return ("extension", self.p, self.modulus)

    def __repr__(self):
        return f"F_{self.p}^{self.k}"

    def _norm(self, coeffs) -> tuple:
        c = list(coeffs)
        if len(c) >= len(self.modulus):
            c = _pmod(c, list(self.modulus), self.p)
        c = [x % self.p for x in c]
        return tuple(c + [0] * (self.k - len(c)))

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field == self:
                return value
            if value.field == self.base:
                return self.embed(value)
            raise MixedFieldsError(f"cannot coerce {value!r} into {self}")
        if isinstance(value, int):
            return FieldElement(self, self._norm([value]))
        if isinstance(value, (tuple, list)):
            return FieldElement(self, self._norm(value))
        raise TypeError(f"cannot build an element of {self} from {value!r}")

    def embed(self, a: FieldElement) -> FieldElement:
        """Image of an F_p element under the inclusion F_p -> F_{p^k}."""
        if a.field != self.base:
            raise MixedFieldsError("embed expects an element of the prime subfield")
        return FieldElement(self, self._norm([a.val]))

    def generator(self) -> FieldElement:
        """The class of t, a root of the modulus."""
        return FieldElement(self, self._norm([0, 1]))

    def _add(self, a, b):
        p = self.p
        return FieldElement(self, tuple((x + y) % p for x, y in zip(a, b)))

    def _sub(self, a, b):
        p = self.p
        return FieldElement(self, tuple((x - y) % p for x, y in zip(a, b)))

    def _neg(self, a):
        p = self.p
        return FieldElement(self, tuple(-x % p for x in a))

    def _mul(self, a, b):
        prod = _pmul(_ptrim(list(a)), _ptrim(list(b)), self.p)
        return FieldElement(self, self._norm(prod))

    def _inv(self, a):
        aa = _ptrim(list(a))
        if not aa:
            raise DivisionByZeroError(f"inverse of zero in {self}")
        g, u = _pxgcd(aa, list(self.modulus), self.p)
        # g is a nonzero constant since the modulus is irreducible
        scale = pow(g[0], -1, self.p)
        return FieldElement(self, self._norm([c * scale % self.p for c in u]))

    def _div(self, a, b):
        return self._mul(a, self._inv(b).val)

    def _render(self, v):
        terms = []
        for i in range(self.k - 1, -1, -1):
            c = v[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(terms) if terms else "0"

    def random_element(self, rng: random.Random) -> FieldElement:
        return FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.k)))


class RationalField(Field):
    """The rational numbers with always-reduced fractions."""

    kind = "rational"
    _zero_val = Fraction(0)

    @property
    def characteristic(self) -> int:
        return 0

    def _key(self):
        return ("rational",)

    def __repr__(self):
        return "Q"

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field == self:
                return value
            raise MixedFieldsError(f"cannot coerce {value!r} into {self}")
        if isinstance(value, (int, Fraction)):
            return FieldElement(self, Fraction(value))
        if isinstance(value, str):
            return FieldElement(self, Fraction(value))
        raise TypeError(f"cannot build an element of {self} from {value!r}")

    def _add(self, a, b):
        return FieldElement(self, a + b)

    def _sub(self, a, b):
        return FieldElement(self, a - b)

    def _mul(self, a, b):
        return FieldElement(self, a * b)

    def _neg(self, a):
        return FieldElement(self, -a)

    def _inv(self, a):
        if a == 0:
            raise DivisionByZeroError("inverse of zero in Q")
        return FieldElement(self, 1 / a)

    def _div(self, a, b):
        if b == 0:
            raise DivisionByZeroError("division by zero in Q")
        return FieldElement(self, a / b)

    def _render(self, v):
        return str(v)


_PRIME_FIELDS: dict = {}
_RATIONAL = RationalField()


def prime_field(p: int) -> PrimeField:
    """F_p, cached so repeated calls share one instance."""
    f = _PRIME_FIELDS.get(p)
    if f is None:
        f = _PRIME_FIELDS[p] = PrimeField(p)
    return f


def rational_field() -> RationalField:
    return _RATIONAL


def build_extension(p: int, k: int, rng_seed: int = 0) -> Field:
    """F_{p^k} with a seeded random search for an irreducible modulus.

    ``k = 1`` returns the prime field itself.  The search draws monic
    degree-k polynomials until one passes the irreducibility test; it
    terminates quickly since a fraction of roughly 1/k of all monic
    polynomials of degree k is irreducible.
    """
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if k == 1:
        return prime_field(p)
    base = prime_field(p)
    from . import unipoly  # deferred: unipoly imports this module

    rng = random.Random(rng_seed)
    while True:
        coeffs = [rng.randrange(p) for _ in range(k)] + [1]
        m = unipoly.UniPoly.from_coeffs(base, coeffs)
        if unipoly.is_irreducible(m):
            return ExtensionField(p, tuple(coeffs), check_irreducible=False)
