"""Sparse bivariate polynomials and their degree-homogeneous counterparts.

Terms are stored as maps from exponent tuples to nonzero coefficients.
Rendering uses graded lexicographic order with x before y (and z last),
so two equal polynomials always print identically.
"""

from __future__ import annotations

from .errors import MixedFieldsError
from .field import Field, FieldElement
from .unipoly import UniPoly, _embedding


def _coerce_terms(field: Field, terms: dict) -> dict:
    out = {}
    for exp, c in terms.items():
        c = c if isinstance(c, FieldElement) else field(c)
        if c.field != field:
            raise MixedFieldsError("coefficient from a different field")
        if not c.is_zero:
            out[tuple(exp)] = c
    return out


class BiPoly:
    """Polynomial in x and y, terms keyed by the exponent pair (i, j)."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict, _trusted: bool = False):
        self.field = field
        self.terms = terms if _trusted else _coerce_terms(field, terms)

    @classmethod
    def zero(cls, field: Field) -> "BiPoly":
        return cls(field, {}, _trusted=True)

    @classmethod
    def from_unipoly(cls, u: UniPoly, var: str = "x", y_power: int = 0) -> "BiPoly":
        """Lift a univariate polynomial in x (or y) times an extra y (or x) power."""
        terms = {}
        for i, c in enumerate(u.coeffs):
            if c.is_zero:
                continue
            exp = (i, y_power) if var == "x" else (y_power, i)
            terms[exp] = c
        return cls(u.field, terms, _trusted=True)

    def coefficient(self, i: int, j: int) -> FieldElement:
        return self.terms.get((i, j), self.field.zero)

    def y_slice(self, j: int) -> UniPoly:
        """The coefficient of y^j as a univariate polynomial in x."""
        deg = max((i for (i, jj) in self.terms if jj == j), default=-1)
        coeffs = [self.coefficient(i, j) for i in range(deg + 1)]
        return UniPoly.from_coeffs(self.field, coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((i + j for (i, j) in self.terms), default=-1)

    def degree_x(self) -> int:
        return max((i for (i, _) in self.terms), default=-1)

    def degree_y(self) -> int:
        return max((j for (_, j) in self.terms), default=-1)

    def _check(self, other: "BiPoly"):
        if self.field != other.field:
            raise MixedFieldsError("polynomials over different fields")

    def __add__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = BiPoly(self.field, {(0, 0): other})
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(exp, None)
            else:
                out[exp] = s
        return BiPoly(self.field, out, _trusted=True)

    def __sub__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = BiPoly(self.field, {(0, 0): other})
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BiPoly(self.field, {e: -c for e, c in self.terms.items()}, _trusted=True)

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(self.field(other) if isinstance(other, int) else other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                exp = (i1 + i2, j1 + j2)
                s = out.get(exp)
                prod = c1 * c2
                s = prod if s is None else s + prod
                if s.is_zero:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return BiPoly(self.field, out, _trusted=True)

    __rmul__ = __mul__

    def scale(self, c: FieldElement) -> "BiPoly":
        if c.is_zero:
            return BiPoly.zero(self.field)
        return BiPoly(self.field, {e: v * c for e, v in self.terms.items()}, _trusted=True)

    def partial(self, var: str) -> "BiPoly":
        """Formal partial derivative with respect to 'x' or 'y'."""
        out = {}
        for (i, j), c in self.terms.items():
            if var == "x" and i > 0:
                d = c * i
                if not d.is_zero:
                    out[(i - 1, j)] = d
            elif var == "y" and j > 0:
                d = c * j
                if not d.is_zero:
                    out[(i, j - 1)] = d
        return BiPoly(self.field, out, _trusted=True)

    def eval(self, x: FieldElement, y: FieldElement) -> FieldElement:
        target = x.field
        if y.field != target:
            raise MixedFieldsError("evaluation point coordinates in different fields")
        emb = _embedding(self.field, target)
        xpow = _powers(x, self.degree_x())
        ypow = _powers(y, self.degree_y())
        acc = target.zero
        for (i, j), c in self.terms.items():
            acc = acc + emb(c) * xpow[i] * ypow[j]
        return acc

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __repr__(self):
        return _render(self.terms, ("x", "y"))

    __str__ = __repr__


class HomPoly:
    """Homogeneous polynomial in x, y, z; every exponent triple sums to degree."""

    __slots__ = ("field", "terms", "degree")

    def __init__(self, field: Field, terms: dict, degree: int, _trusted: bool = False):
        self.field = field
        self.terms = terms if _trusted else _coerce_terms(field, terms)
        self.degree = degree
        if not _trusted:  # trusted callers build every term at this degree
            for (i, j, k) in self.terms:
                if i + j + k != degree:
                    raise ValueError(f"term {(i, j, k)} does not have total degree {degree}")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, i: int, j: int, k: int) -> FieldElement:
        return self.terms.get((i, j, k), self.field.zero)

    def partial(self, var: str) -> "HomPoly":
        idx = "xyz".index(var)
        out = {}
        for exp, c in self.terms.items():
            e = exp[idx]
            if e > 0:
                d = c * e
                if not d.is_zero:
                    new = list(exp)
                    new[idx] -= 1
                    out[tuple(new)] = d
        return HomPoly(self.field, out, self.degree - 1, _trusted=True)

    def __add__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.field != other.field:
            raise MixedFieldsError("polynomials over different fields")
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError("cannot add homogeneous polynomials of different degrees")
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(exp, None)
            else:
                out[exp] = s
        return HomPoly(self.field, out, max(self.degree, other.degree), _trusted=True)

    def __sub__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return self + HomPoly(
            other.field, {e: -c for e, c in other.terms.items()}, other.degree, _trusted=True
        )

    def scale(self, c: FieldElement) -> "HomPoly":
        if c.is_zero:
            return HomPoly(self.field, {}, self.degree, _trusted=True)
        return HomPoly(
            self.field, {e: v * c for e, v in self.terms.items()}, self.degree, _trusted=True
        )

    def eval(self, x: FieldElement, y: FieldElement, z: FieldElement) -> FieldElement:
        target = x.field
        if y.field != target or z.field != target:
            raise MixedFieldsError("evaluation point coordinates in different fields")
        emb = _embedding(self.field, target)
        xpow = _powers(x, self.degree)
        ypow = _powers(y, self.degree)
        zpow = _powers(z, self.degree)
        acc = target.zero
        for (i, j, k), c in self.terms.items():
            acc = acc + emb(c) * xpow[i] * ypow[j] * zpow[k]
        return acc

    def __eq__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.terms == other.terms
            and (self.degree == other.degree or not self.terms)
        )

    def __repr__(self):
        return _render(self.terms, ("x", "y", "z"))

    __str__ = __repr__


def homogenize(f: BiPoly, total_degree: int) -> HomPoly:
    """Pad each term with a z power so every term reaches total_degree."""
    if f.total_degree() > total_degree:
        raise ValueError("total_degree is below the degree of the polynomial")
    terms = {}
    for (i, j), c in f.terms.items():
        terms[(i, j, total_degree - i - j)] = c
    return HomPoly(f.field, terms, total_degree, _trusted=True)


def _powers(x: FieldElement, n: int):
    out = [x.field.one]
    for _ in range(max(n, 0)):
        out.append(out[-1] * x)
    return out


def _render(terms: dict, names: tuple) -> str:
    if not terms:
        return "0"
    # graded lexicographic, x before y before z, highest degree first
    keys = sorted(terms, key=lambda e: (-sum(e),) + tuple(-v for v in e))
    out = ""
    for exp in keys:
        cs = str(terms[exp])
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        parts = []
        for name, e in zip(names, exp):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        if not parts:
            term = cs
        else:
            mono = "*".join(parts)
            term = mono if cs == "1" else f"{cs}*{mono}"
        if not out:
            out = ("-" if neg else "") + term
        else:
            out += (" - " if neg else " + ") + term
    return out
