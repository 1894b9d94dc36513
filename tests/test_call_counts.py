"""Each algebraic fact of the pipeline is computed once: call counts of the
general routines inside ``analyze`` and ``sample_types``."""

import sys

import pytest

import howe
from howe import (
    UniPoly,
    analyze,
    build_extension,
    prime_field,
    rational_field,
    squarefree_decomposition,
)
from howe.sampling import sample_types

from conftest import closed_form_pools


def count_calls(monkeypatch, function) -> list:
    """Replace every binding of ``function`` in the howe modules by a
    wrapper that records its calls; returns the record."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("howe.") or name == "howe":
            if getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, counting)
    return calls


def count_from_roots(monkeypatch) -> list:
    calls = []
    original = UniPoly.__dict__["from_roots"].__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(UniPoly, "from_roots", classmethod(counting))
    return calls


ANALYZE_POOLS = ("F_31", "F_31 planted", "F_10007 planted", "Q H=1000", "Q II-4")


@pytest.mark.parametrize("name", ANALYZE_POOLS)
def test_analyze_classifies_and_assembles_once(monkeypatch, name):
    classify_calls = count_calls(monkeypatch, howe.singular.classify)
    assemble_calls = count_calls(monkeypatch, howe.sextic.assemble_sextic)
    resultant_calls = count_calls(monkeypatch, howe.unipoly.resultant)
    for seed, rd in enumerate(closed_form_pools()[name]):
        before = (len(classify_calls), len(assemble_calls))
        report = analyze(rd, seed)
        assert report.checks["assembly_matches_formulas"]
        assert (len(classify_calls), len(assemble_calls)) == (before[0] + 1, before[1] + 1)
    assert resultant_calls == []


def test_sampling_calls_neither_resultant_nor_from_roots(monkeypatch):
    # over F_p every draw runs on integers mod p, so none of the
    # field-element stages is entered either
    resultant_calls = count_calls(monkeypatch, howe.unipoly.resultant)
    from_roots_calls = count_from_roots(monkeypatch)
    validate_calls = count_calls(monkeypatch, howe.sextic.validate)
    classify_calls = count_calls(monkeypatch, howe.singular.classify)
    shape_b_calls = count_calls(monkeypatch, howe.irreducible.shape_b_test)
    for p in (11, 31, 10007, 2**64 - 59):
        summary = sample_types(prime_field(p), 40, seed=p)
        assert sum(summary.type_counts.values()) == 40
    assert resultant_calls == []
    assert from_roots_calls == []
    assert (validate_calls, classify_calls, shape_b_calls) == ([], [], [])


def test_extension_sampling_classifies_once_per_draw(monkeypatch):
    classify_calls = count_calls(monkeypatch, howe.singular.classify)
    shape_b_calls = count_calls(monkeypatch, howe.irreducible.shape_b_test)
    summary = sample_types(build_extension(5, 2, 0), 30, seed=25)
    assert sum(summary.type_counts.values()) == 30
    assert len(classify_calls) == len(shape_b_calls) == 30


def test_squarefree_cubic_takes_one_gcd(monkeypatch):
    gcd_calls = count_calls(monkeypatch, howe.unipoly.gcd)
    for field in (prime_field(31), prime_field(10007), build_extension(5, 2, 0),
                  rational_field()):
        # 2 (x - 1)(x - 2)(x - 4)
        f = UniPoly.from_roots([field(1), field(2), field(4)], field).scale(field(2))
        before = len(gcd_calls)
        lead, factors = squarefree_decomposition(f)
        assert len(gcd_calls) == before + 1
        assert lead == field(2) and factors == [(f.monic(), 1)]
