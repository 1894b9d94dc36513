"""Acceptance suite: seven exit criteria, each printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every comparison is exact field equality; the only
statistical criterion (6) uses the fixed threshold declared in its test.
"""

import random
import time
from contextlib import contextmanager

import pytest

from howe import (
    brute_force_singular_scan,
    build_model,
    classify,
    euler_relation_holds,
    gcd,
    genus_bound_check,
    h1_poly,
    prime_field,
    rational_field,
    rational_point_set,
    singular_points,
    sextic_coeffs,
    assemble_sextic,
)
from howe.bipoly import BiPoly
from howe.irreducible import is_absolutely_irreducible
from howe.reference import REFERENCE_EXAMPLES, reference_data, run_reference_checks
from howe.sampling import sample_types
from howe.unipoly import UniPoly

from conftest import random_branch_data
from oracles import (
    NotOnCurveError,
    lift_point,
    project_point,
    random_fiber_points,
    shape_a_witness,
    shape_b_witness,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if failed is None and elapsed < budget_s else "FAIL"
        print(
            f"[acceptance] criterion {number} ({description}): {status}"
            f" in {elapsed:.2f}s (budget {budget_s:.0f}s)",
            flush=True,
        )


@pytest.fixture(scope="module")
def instance_pool():
    """1000 seeded-random valid tuples over each of F_31, F_1009, and Q."""
    pools = {}
    rng = random.Random(20240601)
    pools["F31"] = [random_branch_data(prime_field(31), rng) for _ in range(1000)]
    pools["F1009"] = [random_branch_data(prime_field(1009), rng) for _ in range(1000)]
    pools["Q"] = [
        random_branch_data(rational_field(), rng, span=50) for _ in range(1000)
    ]
    return pools


def test_criterion_1_reference_reproduction():
    with criterion(1, "exact reproduction of the bundled examples", 1.0):
        t0 = time.perf_counter()
        outcomes = run_reference_checks()
        elapsed = time.perf_counter() - t0
        assert len(outcomes) == 7
        for outcome in outcomes:
            assert outcome.passed, f"{outcome.name}: {outcome.diffs}"
        assert elapsed < 1.0


def test_criterion_2_construction_equivalence(instance_pool):
    with criterion(2, "coefficient formulas equal direct assembly", 10.0):
        for pool in instance_pool.values():
            for rd in pool:
                field = rd.field
                coeffs = sextic_coeffs(rd)
                assert coeffs.to_bipoly(field) == assemble_sextic(rd)
                assert coeffs.c42 == field(-4)
                assert coeffs.c04 == field.one


def test_criterion_3_irreducibility(instance_pool):
    with criterion(3, "no factorization witness on valid data", 30.0):
        for pool in instance_pool.values():
            for rd in pool:
                verdict = is_absolutely_irreducible(rd)
                assert verdict.irreducible
        # synthetic reducible sextics of both shapes are detected
        F = prime_field(31)
        rng = random.Random(99)
        for _ in range(25):
            q2 = UniPoly.from_coeffs(F, [rng.randrange(31) for _ in range(3)])
            q4 = UniPoly.from_coeffs(
                F, [rng.randrange(31) for _ in range(4)] + [F(-4)]
            )
            y2 = BiPoly(F, {(0, 2): F.one})
            f = (y2 + BiPoly.from_unipoly(q2, "x", 0)) * (
                y2 + BiPoly.from_unipoly(q4, "x", 0)
            )
            if f.y_slice(0).is_zero:
                continue
            witness = shape_a_witness(f)
            assert witness is not None
            assert witness.h1 * witness.h2 == f
        for _ in range(25):
            a1, a2, a3, a4, a5, a6 = (F(rng.randrange(31)) for _ in range(6))
            lin = BiPoly(F, {(2, 0): F(2), (1, 0): a1, (0, 0): a2})
            cub = BiPoly(F, {(3, 0): a3, (2, 0): a4, (1, 0): a5, (0, 0): a6})
            y = BiPoly(F, {(0, 1): F.one})
            y2 = BiPoly(F, {(0, 2): F.one})
            f = (y2 + lin * y + cub) * (y2 - lin * y + cub)
            if f.y_slice(0).is_zero:
                continue
            witness, _ = shape_b_witness(f)
            assert witness is not None
            assert witness.h1 * witness.h2 == f


def test_criterion_4_classification_vs_oracles(instance_pool):
    with criterion(4, "affine counts and brute-force scans agree", 60.0):
        # (a) the branch logic against the gcd degree drop
        for pool in instance_pool.values():
            for rd in pool:
                kind = classify(rd)
                h1 = h1_poly(rd)
                assert kind.affine_count == h1.degree - gcd(h1, h1.derivative()).degree
        # (b) exact scan agreement on the reference examples and random draws
        for ex in REFERENCE_EXAMPLES:
            rd = reference_data(ex)
            model = build_model(rd)
            sym = rational_point_set(singular_points(rd, 0, model))
            assert sym == set(brute_force_singular_scan(model.F))
        rng = random.Random(4242)
        for _ in range(100):
            p = rng.choice((31, 37, 41))
            rd = random_branch_data(prime_field(p), rng)
            model = build_model(rd)
            sym = rational_point_set(singular_points(rd, 7, model))
            assert sym == set(brute_force_singular_scan(model.F))


def test_criterion_5_multiplicity_and_structure(instance_pool):
    with criterion(5, "double-point certificates and structural identities", 30.0):
        for pool in instance_pool.values():
            for rd in pool:
                model = build_model(rd)
                kind = classify(rd)
                assert kind.total in (2, 3, 4)
                assert genus_bound_check(kind)
                assert euler_relation_holds(model.F)
                points = singular_points(rd, 13, model)
                for pt in points:
                    assert pt.multiplicity == 2
                    if pt.coords is None:
                        # conjugate packet over Q: certified symbolically
                        assert pt.certificate.note
                        continue
                    x, y, z = pt.coords
                    # no singular point with y != 0 and z != 0
                    assert y.is_zero or z.is_zero
                    assert model.F.eval(x, y, z).is_zero
                    for var in "xyz":
                        assert model.F.partial(var).eval(x, y, z).is_zero
                    assert pt.certificate.value is not None
                    assert not pt.certificate.value.is_zero


def test_criterion_6_genericity():
    with criterion(6, "four double points on > 99% of 10^4 draws", 60.0):
        summary = sample_types(prime_field(10007), 10_000, seed=20240602)
        assert summary.irreducibility_failures == 0
        assert sum(summary.total_counts.values()) == 10_000
        assert summary.fraction_with_four > 0.99


def test_criterion_7_birational_round_trip():
    with criterion(7, "projection and lift invert each other", 5.0):
        for ex in REFERENCE_EXAMPLES:
            rd = reference_data(ex)
            model = build_model(rd)
            points = random_fiber_points(model, 100, rng_seed=31337)
            for p in points:
                x, y = project_point(p)
                if y.is_zero:
                    continue  # the map is two-valued there by design
                lifted = lift_point(model, x, y, rng_seed=31337)
                assert not lifted.indeterminate
                q = lifted.point
                assert (q.x, q.y1, q.y2) == (p.x, p.y1, p.y2)
        # off-curve points are rejected
        F = prime_field(31)
        model = build_model(reference_data(REFERENCE_EXAMPLES[0]))
        rng = random.Random(55)
        rejected = 0
        for _ in range(60):
            x, y = F(rng.randrange(31)), F(rng.randrange(31))
            if model.f.eval(x, y).is_zero:
                continue
            with pytest.raises(NotOnCurveError):
                lift_point(model, x, y)
            rejected += 1
        assert rejected >= 40
