"""Sampling: the prime-field integer lane against the field-element route,
and argument checks."""

import random

import pytest

from howe import classify, is_absolutely_irreducible, prime_field
from howe.sampling import draw_branch_data, sample_types


def field_route_tally(field, count, seed) -> dict:
    """``sample_types`` recomputed on field elements, draw by draw."""
    type_counts, total_counts, failures = {}, {}, 0
    for i in range(count):
        rd = draw_branch_data(field, random.Random(seed ^ i))
        kind = classify(rd)
        type_counts[kind.label] = type_counts.get(kind.label, 0) + 1
        total_counts[kind.total] = total_counts.get(kind.total, 0) + 1
        failures += not is_absolutely_irreducible(rd).irreducible
    return {"type_counts": type_counts, "total_counts": total_counts,
            "irreducibility_failures": failures}


@pytest.mark.parametrize("p", [11, 31, 10007, 2**64 - 59])
def test_prime_lane_matches_field_route(p):
    field = prime_field(p)
    summary = sample_types(field, 300, seed=p % 1000)
    expected = field_route_tally(field, 300, p % 1000)
    assert summary.type_counts == expected["type_counts"]
    assert summary.total_counts == expected["total_counts"]
    assert summary.irreducibility_failures == expected["irreducibility_failures"] == 0
    if p <= 31:
        # small fields reach the degenerate types, so the comparison covers
        # the lane's classifier beyond I-1
        assert len(summary.type_counts) >= 4


@pytest.mark.parametrize("count", [-1, -5])
def test_negative_count_rejected(count):
    with pytest.raises(ValueError):
        sample_types(prime_field(31), count)
