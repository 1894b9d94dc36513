"""Random sampling of branch configurations and their type distribution.

Instance i draws from its own generator seeded with seed XOR i, so the
summary does not depend on execution order and any instance can be replayed
in isolation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .errors import UnsupportedFieldError
from .field import Field
from .irreducible import is_absolutely_irreducible
from .sextic import validate
from .singular import classify

TYPE_LABELS = ("I-1", "I-2", "I-3", "II-1", "II-2", "II-3", "II-4")


@dataclass
class SampleSummary:
    count: int
    seed: int
    type_counts: dict = dc_field(default_factory=dict)
    total_counts: dict = dc_field(default_factory=dict)
    irreducibility_failures: int = 0

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


def sample_types(field: Field, count: int, seed: int = 0,
                 with_irreducibility: bool = True) -> SampleSummary:
    """Tally the types of ``count`` seeded draws over a finite field.

    A field with fewer than eight elements holds no configuration of eight
    distinct values, so it raises :class:`UnsupportedFieldError` up front
    instead of redrawing forever.
    """
    if field.kind != "rational" and field.order < 8:
        raise UnsupportedFieldError(
            f"{field} has {field.order} elements; sampling needs at least 8"
        )
    summary = SampleSummary(count, seed)
    for i in range(count):
        rng = random.Random(seed ^ i)
        rd = draw_branch_data(field, rng)
        kind = classify(rd)
        summary.type_counts[kind.label] = summary.type_counts.get(kind.label, 0) + 1
        summary.total_counts[kind.total] = summary.total_counts.get(kind.total, 0) + 1
        if with_irreducibility and not is_absolutely_irreducible(rd).irreducible:
            summary.irreducibility_failures += 1
    return summary
