"""Independent checks of ``howe`` outputs, computed from the printed JSON alone.

``check_report`` re-derives the projective sextic from the thirteen printed
coefficients and evaluates F and its three first partials at every singular
point with explicit coordinates, with plain integer arithmetic (mod p, or in
F_p[t]/(m) for points over an extension, with m parsed from the printed
minimal polynomial) or with fractions over Q.  It shares no code with the
package under test.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_TERM = re.compile(r"([+-]?)([^+-]+)")


def parse_poly(text: str) -> list:
    """'x^3 + 8198*x^2 - x + 5' -> integer coefficients, constant term first."""
    coeffs = {}
    for sign, term in _TERM.findall(text.replace(" ", "")):
        if "x" in term:
            c, _, power = term.partition("x")
            c = c.rstrip("*") or "1"
            e = int(power[1:]) if power.startswith("^") else 1
        else:
            c, e = term, 0
        coeffs[e] = coeffs.get(e, 0) + (-1 if sign == "-" else 1) * Fraction(c)
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


class _Ring:
    """Z/p, F_p[t]/(m) or Q; elements are coefficient lists, constant first."""

    def __init__(self, p=None, modulus=None):
        self.p = p
        self.m = modulus

    def norm(self, a):
        a = list(a)
        if self.m is not None:
            k = len(self.m) - 1
            for d in range(len(a) - 1, k - 1, -1):
                c = a[d]
                if c:
                    for j in range(k + 1):
                        a[d - k + j] -= c * self.m[j]
            a = a[:k]
        if self.p is not None:
            a = [c % self.p for c in a]
        return a

    def mul(self, a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self.norm(out)

    def is_zero(self, a) -> bool:
        return not any(self.norm(a))


def _parse_scalar(v):
    return Fraction(v) if isinstance(v, str) else v


def _gradient_vanishes(ring: _Ring, coeffs: dict, coords) -> bool:
    """F, F_x, F_y, F_z all vanish at the point, F = sum c_ij x^i y^j z^(6-i-j)."""
    pows = []
    for v in coords:
        row = [[1]]
        for _ in range(6):
            row.append(ring.mul(row[-1], v))
        pows.append(row)
    sums = [[0], [0], [0], [0]]

    def add(k, scale, i, j, l):
        if min(i, j, l) < 0 or not scale:
            return
        term = ring.mul(ring.mul(pows[0][i], pows[1][j]), pows[2][l])
        acc = sums[k]
        if len(acc) < len(term):
            acc.extend([0] * (len(term) - len(acc)))
        for n, c in enumerate(term):
            acc[n] += scale * c

    for (i, j), c in coeffs.items():
        l = 6 - i - j
        add(0, c, i, j, l)
        add(1, c * i, i - 1, j, l)
        add(2, c * j, i, j - 1, l)
        add(3, c * l, i, j, l - 1)
    return all(ring.is_zero(s) for s in sums)


def check_report(text: str) -> str | None:
    """None if the report is consistent, else a one-line reason."""
    doc = json.loads(text)
    failed = [k for k, ok in doc["checks"].items() if not ok]
    if failed:
        return f"report checks failed: {', '.join(failed)}"
    if not doc["irreducibility"]["irreducible"]:
        return "sextic reported reducible"
    field = doc["field"]
    p = field.get("p") if field["kind"] == "prime" else None
    if field["kind"] not in ("prime", "rational"):
        return None  # extension base fields are outside the benchmark's pools
    coeffs = {(int(k[1]), int(k[2])): _parse_scalar(v)
              for k, v in doc["coefficients"].items()}
    sing = doc["singularity"]
    if sum(pt["conjugates"] for pt in sing["points"]) != sing["total"]:
        return "singular point count disagrees with the classification total"
    for pt in sing["points"]:
        if pt["multiplicity"] != 2:
            return f"multiplicity {pt['multiplicity']} reported"
        coords = pt["coords"]
        if coords is None:
            continue  # conjugate packet over Q: certified by divisibility
        if isinstance(coords[0], list):
            modulus = [int(c) % p for c in parse_poly(pt["minimal_poly"])]
            ring = _Ring(p, modulus)
            vals = [list(c) for c in coords]
        else:
            ring = _Ring(p)
            vals = [[_parse_scalar(c)] for c in coords]
        if not _gradient_vanishes(ring, coeffs, vals):
            return f"F or a first partial is nonzero at reported point {coords}"
        cert = pt["certificate"]["value"]
        if cert is not None and ring.is_zero(cert if isinstance(cert, list)
                                             else [_parse_scalar(cert)]):
            return f"zero multiplicity certificate at {coords}"
    return None
