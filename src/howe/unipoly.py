"""Dense univariate polynomial algebra over any supported field.

Provides arithmetic, gcd, formal derivatives, resultants (Sylvester
determinant convention, rows of the first argument on top), squarefree
decomposition in characteristic 0 and p, root finding over finite fields
by distinct-degree plus seeded equal-degree splitting, and factorization
over Q: rational roots by p-adic lifting, then irreducible factors of
degree <= 3.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    BothZeroError,
    MixedFieldsError,
    UnsupportedDegreeError,
    UnsupportedFieldError,
    ZeroPolynomialError,
)
from .field import (
    ExtensionField,
    Field,
    FieldElement,
    _pmod,
    _pmul,
    is_prime,
)


class UniPoly:
    """Polynomial with dense coefficients, constant term first.

    The zero polynomial has an empty coefficient tuple and degree -1;
    otherwise the leading coefficient is nonzero.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, field: Field, coeffs) -> "UniPoly":
        elems = [c if isinstance(c, FieldElement) else field(c) for c in coeffs]
        for c in elems:
            if c.field != field:
                raise MixedFieldsError("coefficient from a different field")
        while elems and elems[-1].is_zero:
            elems.pop()
        return cls(field, tuple(elems))

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, (field.one,))

    @classmethod
    def constant(cls, c: FieldElement) -> "UniPoly":
        return cls.from_coeffs(c.field, (c,))

    @classmethod
    def x(cls, field: Field) -> "UniPoly":
        return cls(field, (field.zero, field.one))

    @classmethod
    def from_roots(cls, roots, field: Field | None = None) -> "UniPoly":
        """Monic product of (x - r) over the given roots; 1 for no roots."""
        roots = list(roots)
        if field is None:
            if not roots:
                raise ValueError("field required for an empty root list")
            field = roots[0].field
        f = cls.one(field)
        for r in roots:
            f = f * cls.from_coeffs(field, (-field(r), field.one))
        return f

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> FieldElement:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def _check(self, other: "UniPoly"):
        if self.field != other.field:
            raise MixedFieldsError("polynomials over different fields")

    def __add__(self, other):
        if isinstance(other, FieldElement):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.from_coeffs(self.field, [self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        if isinstance(other, FieldElement):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.from_coeffs(self.field, [self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return UniPoly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(self.field(other))
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.field)
        zero = self.field.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly.from_coeffs(self.field, out)

    __rmul__ = __mul__

    def scale(self, c: FieldElement) -> "UniPoly":
        if c.is_zero:
            return UniPoly.zero(self.field)
        return UniPoly(self.field, tuple(a * c for a in self.coeffs))

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        acc = UniPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def divmod(self, other: "UniPoly"):
        self._check(other)
        if other.is_zero:
            raise ZeroPolynomialError("polynomial division by zero")
        if self.degree < other.degree:
            return UniPoly.zero(self.field), self
        rem = list(self.coeffs)
        q = [self.field.zero] * (len(rem) - len(other.coeffs) + 1)
        inv_lead = other.lc().inverse()
        d = other.degree
        for shift in range(len(rem) - len(other.coeffs), -1, -1):
            c = rem[shift + d] * inv_lead
            if c.is_zero:
                continue
            q[shift] = c
            for j, b in enumerate(other.coeffs):
                rem[shift + j] = rem[shift + j] - c * b
        return (
            UniPoly.from_coeffs(self.field, q),
            UniPoly.from_coeffs(self.field, rem[:d]),
        )

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lead = self.lc()
        if lead == self.field.one:
            return self
        return self.scale(lead.inverse())

    def derivative(self) -> "UniPoly":
        if self.degree < 1:
            return UniPoly.zero(self.field)
        return UniPoly.from_coeffs(
            self.field, [self.coeffs[i] * i for i in range(1, len(self.coeffs))]
        )

    def __call__(self, x: FieldElement) -> FieldElement:
        """Horner evaluation; accepts points in an extension of a prime base."""
        target = x.field
        if target != self.field:
            emb = _embedding(self.field, target)
            acc = target.zero
            for c in reversed(self.coeffs):
                acc = acc * x + emb(c)
            return acc
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == UniPoly.from_coeffs(self.field, (other,))
        return NotImplemented

    def __hash__(self):
        return hash((self.field._key(), self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "0"
        out = ""
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero:
                continue
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if i == 0:
                term = cs
            else:
                var = "x" if i == 1 else f"x^{i}"
                term = var if cs == "1" else f"{cs}*{var}"
            if not out:
                out = ("-" if neg else "") + term
            else:
                out += (" - " if neg else " + ") + term
        return out

    __str__ = __repr__


def _embedding(src: Field, target: Field):
    """Coefficient embedding src -> target, identity when the fields agree."""
    if src == target:
        return lambda c: c
    if (
        isinstance(target, ExtensionField)
        and src.kind == "prime"
        and target.p == src.p
    ):
        return target.embed
    raise MixedFieldsError(f"no embedding of {src} into {target}")


def gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor; gcd(f, 0) = monic(f)."""
    if f.is_zero and g.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    if not f.is_zero and not g.is_zero:
        f._check(g)
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def resultant(f: UniPoly, g: UniPoly) -> FieldElement:
    """Resultant of (f, g), equal to the Sylvester determinant with f-rows first.

    Equivalently lc(f)^deg(g) * prod g(r) over the roots r of f counted with
    multiplicity.  Computed by the Euclidean remainder recurrence, exactly
    over every field (over Q on ``Fraction`` coefficients).  The pipeline
    classifies by closed forms (``singular.classify``); this routine is the
    public general case and the oracle they are tested against.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("resultant of a zero polynomial")
    f._check(g)
    return _resultant_prs(f, g)


def _resultant_prs(f: UniPoly, g: UniPoly) -> FieldElement:
    field = f.field
    m, n = f.degree, g.degree
    if m == 0:
        return f.lc() ** n
    if n == 0:
        return g.lc() ** m
    sign = field.one
    if m < n:
        f, g = g, f
        if (m * n) % 2 == 1:
            sign = -sign
    acc = field.one
    while True:
        # invariant: deg f >= deg g >= 1
        r = f % g
        if r.is_zero:
            return field.zero
        if (f.degree * g.degree) % 2 == 1:
            sign = -sign
        acc = acc * g.lc() ** (f.degree - r.degree)
        f, g = g, r
        if g.degree == 0:
            return acc * sign * g.lc() ** f.degree


def _int_primitive(f: UniPoly):
    """Integer coefficient list and rational content c with f = c * list."""
    dens = [c.val.denominator for c in f.coeffs]
    lcm = 1
    for d in dens:
        lcm = lcm * d // math.gcd(lcm, d)
    ints = [int(c.val * lcm) for c in f.coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    g = g or 1
    if ints[-1] < 0:
        g = -g
    return [v // g for v in ints], Fraction(g, lcm)


def squarefree_decomposition(f: UniPoly):
    """Leading coefficient and list of (monic squarefree factor, multiplicity).

    Pairwise coprime factors, multiplicities ascending; handles multiplicity
    divisible by the characteristic via p-th root extraction.
    """
    if f.is_zero:
        raise ZeroPolynomialError("squarefree decomposition of zero")
    lead = f.lc()
    f = f.monic()
    if f.field.kind == "rational":
        return lead, _sqf_yun(f)
    return lead, _sqf_char_p(f)


def _sqf_yun(f: UniPoly):
    """Yun's algorithm on a monic f over Q; a squarefree f (gcd(f, f') = 1)
    returns [(f, 1)] after that single gcd."""
    if f.degree < 1:
        return []
    factors = []
    d = f.derivative()
    a = gcd(f, d)
    if a.degree == 0:
        return [(f, 1)]
    b = f // a
    c = d // a
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = gcd(b, d)
        if a.degree > 0:
            factors.append((a, i))
        b = b // a
        c = d // a
        d = c - b.derivative()
        i += 1
    return factors


def _sqf_char_p(f: UniPoly):
    """Squarefree decomposition of a monic f over a finite field.

    Yun-style loop on gcd(f, f'); exponents divisible by p are handled by
    taking the p-th root of what is left and scaling the multiplicities.
    When gcd(f, f') = 1 the remaining f is squarefree and is returned
    after that single gcd: the common case of the pipeline's h1.
    """
    field = f.field
    p = field.characteristic
    one = UniPoly.one(field)
    factors = []
    n = 1
    while f.degree >= 1:
        d = f.derivative()
        if not d.is_zero:
            g = gcd(f, d)
            if g.degree == 0:
                factors.append((f, n))
                break
            h = f // g
            i = 1
            while h != one:
                gg = gcd(g, h)
                hh = h // gg
                if hh.degree > 0:
                    factors.append((hh, i * n))
                g = g // gg
                h = gg
                i += 1
            if g == one:
                break
            f = g
        # here every exponent of f is divisible by p: take the p-th root
        f = _pth_root(f)
        n *= p
    factors.sort(key=lambda t: (t[1], t[0].degree))
    return factors


def _pth_root(f: UniPoly) -> UniPoly:
    field = f.field
    p = field.characteristic
    k = getattr(field, "k", 1)
    coeffs = []
    for i in range(0, f.degree + 1, p):
        c = f[i]
        # p-th root of c in F_{p^k} is c^(p^(k-1))
        coeffs.append(c if k == 1 else c ** (p ** (k - 1)))
    return UniPoly.from_coeffs(field, coeffs)


def _finite_order(field: Field) -> int:
    if field.kind == "prime":
        return field.p
    if field.kind == "extension":
        return field.order
    raise UnsupportedFieldError(f"{field} is not a finite field")


def _pow_mod(base: UniPoly, e: int, mod: UniPoly) -> UniPoly:
    """base^e mod mod by square-and-multiply.

    Over a prime field the loop runs on plain integer coefficient lists,
    skipping the per-coefficient FieldElement objects.
    """
    field = base.field
    if field.kind == "prime":
        p = field.p
        m = [c.val for c in mod.coeffs]
        b = _pmod([c.val for c in base.coeffs], m, p)
        acc = [1]
        while e:
            if e & 1:
                acc = _pmod(_pmul(acc, b, p), m, p)
            b = _pmod(_pmul(b, b, p), m, p)
            e >>= 1
        return UniPoly(field, tuple(FieldElement(field, v) for v in acc))
    acc = UniPoly.one(field)
    base = base % mod
    while e:
        if e & 1:
            acc = acc * base % mod
        base = base * base % mod
        e >>= 1
    return acc


def is_irreducible(f: UniPoly) -> bool:
    """Rabin irreducibility test over a finite field."""
    q = _finite_order(f.field)
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    f = f.monic()
    x = UniPoly.x(f.field)
    # x^(q^n) = x mod f, and x^(q^(n/l)) - x coprime to f for prime l | n
    w = x
    for _ in range(n):
        w = _pow_mod(w, q, f)
    if w != x % f:
        return False
    for ell in _prime_divisors(n):
        w = x
        for _ in range(n // ell):
            w = _pow_mod(w, q, f)
        if gcd((w - x) % f, f).degree != 0:
            return False
    return True


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Root(NamedTuple):
    """One root of a polynomial, tagged with multiplicity and the minimal
    extension degree over the base field that contains it."""

    value: FieldElement
    multiplicity: int
    extension_degree: int


def roots(f: UniPoly, up_to_degree: int, rng_seed: int = 0):
    """All roots of f in extensions of degree <= up_to_degree of the base.

    Distinct-degree factorization followed by seeded Cantor-Zassenhaus
    equal-degree splitting.  Roots of an irreducible factor h of degree
    d > 1 are realised inside F_p[t]/(h) as the class of t and its Frobenius
    conjugates, so each returned element knows its own minimal polynomial.
    Deterministic for a fixed seed.  Degree > 1 factors over an extension
    base field are out of scope (tower flattening is not implemented).
    """
    field = f.field
    q = _finite_order(field)
    if f.is_zero:
        raise ZeroPolynomialError("root finding on the zero polynomial")
    if up_to_degree < 1:
        raise ValueError("up_to_degree must be >= 1")
    rng = random.Random(rng_seed)
    out = []
    _, squarefree = squarefree_decomposition(f)
    for g, mult in squarefree:
        rem = g
        x = UniPoly.x(field)
        w = x
        xq = None  # x^q mod g, the Frobenius map of F_q[x]/(g)
        d = 0
        while d < up_to_degree and rem.degree >= 1:
            d += 1
            if rem.degree < 2 * d:
                # the remaining cofactor is a single irreducible factor
                if rem.degree <= up_to_degree:
                    out.extend(_materialise(rem, rem.degree, mult, xq))
                    rem = UniPoly.one(field)
                break
            w = _pow_mod(w, q, rem)
            if xq is None:
                xq = w
            part = gcd(rem, (w - x) % rem)
            if part.degree > 0:
                for h in _equal_degree_split(part, d, rng):
                    out.extend(_materialise(h, d, mult, xq))
                rem = rem // part
                if rem.degree >= 1:
                    w = w % rem
    out.sort(key=lambda r: (r.extension_degree, r.multiplicity, r.value.sort_key()))
    return out


def _equal_degree_split(f: UniPoly, d: int, rng: random.Random):
    if f.degree == d:
        return [f.monic()]
    field = f.field
    q = _finite_order(field)
    e = (q**d - 1) // 2
    while True:
        r = UniPoly.from_coeffs(
            field, [field.random_element(rng) for _ in range(f.degree)]
        )
        if r.degree < 1:
            continue
        h = _pow_mod(r, e, f)
        g = gcd(f, h - UniPoly.one(field))
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def _materialise(h: UniPoly, d: int, mult: int, xq: UniPoly | None):
    """The d roots of an irreducible factor h of degree d.

    For d > 1 they are t, t^p, ..., t^(p^(d-1)) in F_p[t]/(h).  ``xq`` is
    x^p modulo a multiple of h, so ``xq mod h`` is the Frobenius map of that
    ring and each conjugate is ``xq`` evaluated at the previous one.
    """
    field = h.field
    if d == 1:
        h = h.monic()
        return [Root(-h[0], mult, 1)]
    if field.kind != "prime":
        raise UnsupportedFieldError(
            "roots in proper extensions are only materialised over prime base fields"
        )
    ext = ExtensionField(field.p, tuple(c.val for c in h.monic().coeffs), check_irreducible=False)
    frobenius = xq % h
    conj = ext.generator()
    found = []
    for _ in range(d):
        found.append(Root(conj, mult, d))
        conj = frobenius(conj)
    return found


# -- factorization over Q ---------------------------------------------------


def factor_rational(f: UniPoly):
    """Factorization over Q, beyond rational roots only up to degree 3.

    Returns (content, factors) where factors is a list of (g, multiplicity)
    with g primitive over Z, positive leading coefficient and irreducible
    over Q, and f = content * prod g^multiplicity, sorted by (degree, coeffs).

    Rational roots are found by p-adic lifting (``_rational_roots_int``).
    What remains of each squarefree part after removing them has no rational
    root, so at degree <= 3 it is irreducible.  A remainder of degree >= 4
    raises ``UnsupportedDegreeError``; the pipeline never builds one, since
    the polynomial it factors (h1) has degree <= 3.
    """
    field = f.field
    if field.kind != "rational":
        raise UnsupportedFieldError("factor_rational expects a polynomial over Q")
    if f.is_zero:
        raise ZeroPolynomialError("factorization of zero")
    ints, content = _int_primitive(f)
    if len(ints) == 1:
        return field(content * ints[0]), []
    prim = UniPoly.from_coeffs(field, ints)
    factors = []
    for g, mult in _sqf_yun(prim.monic()):
        gi, _ = _int_primitive(g)
        for h in _factor_squarefree_int(gi):
            factors.append((UniPoly.from_coeffs(field, h), mult))
    factors.sort(key=lambda t: (t[0].degree, [c.val for c in t[0].coeffs]))
    return field(content), factors


def _factor_squarefree_int(h: list):
    """Irreducible primitive factors of a squarefree primitive int polynomial
    with positive leading coefficient, provided at most a factor of degree
    <= 3 is left after its rational roots are divided out."""
    out = []
    for u, v in _rational_roots_int(h):
        lin = [-u, v]
        h = _int_exact_div(h, lin)
        out.append(lin)
    deg = len(h) - 1
    if deg >= 4:
        raise UnsupportedDegreeError(
            f"no rational root in a squarefree factor of degree {deg}; only"
            " degree <= 3 is factored beyond its rational roots"
        )
    if deg >= 1:
        out.append(h)  # no rational root at degree <= 3 means irreducible
    return out


def _rational_roots_int(h: list):
    """All rational roots u/v (v > 0, in lowest terms) of a squarefree
    primitive integer polynomial h, as (u, v) pairs.

    Takes the smallest prime p not dividing lc(h) at which every root of
    h mod p is simple; each rational root reduces to one of them.  Each is
    Newton-lifted until p^k exceeds 2 * |lc| * B, with B = 1 + max|c_i|/|lc|
    the Cauchy root bound.  Since v divides lc, lc * u/v is then the centred
    residue of lc * r mod p^k, and each candidate is verified exactly.
    See von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15.
    """
    n = len(h) - 1
    lc = h[-1]
    dh = [i * h[i] for i in range(1, n + 1)]
    p, residues = _simple_root_prime(h, dh)
    bound = 2 * (abs(lc) + max(abs(c) for c in h[:-1]))
    out = []
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _eval_mod(h, r, m) * pow(_eval_mod(dh, r, m), -1, m)) % m
        c = lc * r % m
        if c > m // 2:
            c -= m
        root = Fraction(c, lc)
        u, v = root.numerator, root.denominator
        if sum(h[i] * u**i * v ** (n - i) for i in range(n + 1)) == 0:
            out.append((u, v))
    return out


def _simple_root_prime(h: list, dh: list):
    """Smallest prime p not dividing lc(h) at which every root of h mod p is
    simple (dh = h'), with those roots.  Exists because h is squarefree."""
    p = 1
    while True:
        p += 1
        if not is_prime(p) or h[-1] % p == 0:
            continue
        hp = [c % p for c in h]
        residues = [r for r in range(p) if _eval_mod(hp, r, p) == 0]
        if all(_eval_mod(dh, r, p) for r in residues):
            return p, residues


def _eval_mod(h: list, r: int, m: int) -> int:
    acc = 0
    for c in reversed(h):
        acc = (acc * r + c) % m
    return acc


def _int_exact_div(a, b):
    """Exact division of integer polynomials (raises if not exact)."""
    out = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if c % b[-1] != 0:
            raise ValueError("division is not exact")
        c //= b[-1]
        out[shift] = c
        for j, bj in enumerate(b):
            rem[shift + j] -= c * bj
    if any(rem[: len(b) - 1]):
        raise ValueError("division is not exact")
    return out
