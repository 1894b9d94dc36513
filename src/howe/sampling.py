"""Random sampling of branch configurations and their type distribution.

Instance i draws from its own generator seeded with seed XOR i, so the
summary does not depend on execution order and any instance can be replayed
in isolation.

The route is chosen by the field.  Over a prime field each draw runs on
plain integers mod p: the same ``rng.randrange(p)`` calls that
``field.random_element`` makes, then the ring-generic closed forms
(``sextic.symmetric_functions``, ``singular.classify_values`` and
``irreducible.shape_b_residuals``), with no ``RamificationData`` and no
``FieldElement`` built.  Every shape-B residual is still computed, and a
case whose residuals all vanish raises as in ``shape_b_test``.  Other
finite fields take the field-element route: ``draw_branch_data``,
``classify`` and ``is_absolutely_irreducible``.
"""

from __future__ import annotations

import functools
import random

from .errors import UnsupportedFieldError
from .field import Field
from .irreducible import is_absolutely_irreducible, residue_ring, shape_b_residuals
from .sextic import symmetric_functions, validate
from .singular import TYPE_TABLE, classify, classify_values

TYPE_LABELS = ("I-1", "I-2", "I-3", "II-1", "II-2", "II-3", "II-4")


class SampleSummary:
    """Tallies of ``count`` draws: type label -> draws, and total number of
    singular points -> draws.  Mutable: ``sample_types`` fills the tallies."""

    __slots__ = ("count", "seed", "type_counts", "total_counts")
    irreducibility_failures = 0  # a constant: each draw is certified or raises

    def __init__(self, count: int, seed: int, type_counts=None, total_counts=None):
        self.count = count
        self.seed = seed
        self.type_counts = {} if type_counts is None else type_counts
        self.total_counts = {} if total_counts is None else total_counts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    __hash__ = None  # mutable

    @property
    def fraction_with_four(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total_counts.get(4, 0) / self.count

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "type_counts": {k: self.type_counts.get(k, 0) for k in TYPE_LABELS},
            "total_counts": {str(t): self.total_counts.get(t, 0) for t in (2, 3, 4)},
            "irreducibility_failures": self.irreducibility_failures,
            "fraction_with_four_singular_points": self.fraction_with_four,
        }


def draw_branch_data(field: Field, rng: random.Random):
    """One valid configuration: redraw the whole 8-tuple on any collision."""
    while True:
        vals = [field.random_element(rng) for _ in range(8)]
        if len({v.val for v in vals}) == 8:
            return validate(vals[:4], vals[4:])


def _draw_elements(field: Field, rng: random.Random) -> str:
    """Type label of one certified draw on field elements."""
    rd = draw_branch_data(field, rng)
    label = classify(rd).label
    is_absolutely_irreducible(rd)
    return label


def _draw_residues(p: int, rng: random.Random) -> str:
    """Type label of one certified draw on integers mod p.

    The same values as :func:`draw_branch_data` over F_p; a vanishing
    shape-B case raises instead of returning a reducible verdict.
    """
    ring = residue_ring(p)
    while True:
        vals = [rng.randrange(p) for _ in range(8)]
        if len(set(vals)) == 8:
            break
    sigma = [v % p for v in symmetric_functions(vals[:4])]
    tau = [v % p for v in symmetric_functions(vals[4:])]
    label = classify_values(sigma, tau, ring.is_zero)[0]
    shape_b_residuals(ring, sigma, tau, vals[0])
    return label


def sample_types(field: Field, count: int, seed: int = 0) -> SampleSummary:
    """Tally the types of ``count`` seeded draws over a finite field.

    Irreducibility is certified on every draw.  A negative count raises
    ``ValueError``.  A field with fewer than eight elements holds no
    configuration of eight distinct values, so it raises
    :class:`UnsupportedFieldError` up front instead of redrawing forever.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if field.kind != "rational" and field.order < 8:
        raise UnsupportedFieldError(
            f"{field} has {field.order} elements; sampling needs at least 8"
        )
    if field.kind == "prime":
        draw = functools.partial(_draw_residues, field.p)
    else:
        draw = functools.partial(_draw_elements, field)
    summary = SampleSummary(count, seed)
    for i in range(count):
        label = draw(random.Random(seed ^ i))
        total = sum(TYPE_TABLE[label])
        summary.type_counts[label] = summary.type_counts.get(label, 0) + 1
        summary.total_counts[total] = summary.total_counts.get(total, 0) + 1
    return summary
