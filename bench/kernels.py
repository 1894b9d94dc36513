"""Kernel micro-benchmarks run beside the traced run.

Each kernel cycles through a seeded pool of inputs; the reported value is
the median over BATCHES batches of the mean nanoseconds per call.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import howe
from howe import UniPoly, resultant, roots

POOL = 64
BATCHES = 5
BATCH_CALLS = {"field": 4096, "poly": 512, "roots": 64}


def _time_calls(fn, args, calls: int) -> float:
    best = []
    for _ in range(BATCHES):
        t0 = time.perf_counter_ns()
        for i in range(calls):
            fn(*args[i % len(args)])
        best.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(best)


def _mul(a, b):
    return a * b


def _divmod(a, b):
    return a.divmod(b)


def _roots(f):
    return roots(f, 3, 0)


def _res_deriv(f):
    return resultant(f, f.derivative())


def _poly(field, rng, degree, draw):
    coeffs = [field(draw(rng)) for _ in range(degree)] + [field(1)]
    return UniPoly.from_coeffs(field, coeffs)


def run_kernels(seed: int) -> dict:
    rng = random.Random(f"kernels:{seed}")
    fp = howe.prime_field(10007)
    f49 = howe.build_extension(7, 2)
    q = howe.rational_field()

    def draw_fp(r):
        return r.randrange(10007)

    def draw_q(r):
        return Fraction(r.randint(-10**6, 10**6), r.randint(1, 10**6))

    pairs_fp = [(fp(draw_fp(rng)), fp(draw_fp(rng))) for _ in range(POOL)]
    pairs_49 = [(f49.random_element(rng), f49.random_element(rng)) for _ in range(POOL)]
    pairs_q = [(q(draw_q(rng)), q(draw_q(rng))) for _ in range(POOL)]
    quartics = [(_poly(fp, rng, 4, draw_fp), _poly(fp, rng, 4, draw_fp)) for _ in range(POOL)]
    octics = [(_poly(fp, rng, 8, draw_fp), _poly(fp, rng, 4, draw_fp)) for _ in range(POOL)]
    cubics_fp = [(_poly(fp, rng, 3, draw_fp),) for _ in range(POOL)]
    cubics_q = [(_poly(q, rng, 3, lambda r: r.randint(-1000, 1000)),) for _ in range(POOL)]

    return {
        "field.mul_ns.p10007": _time_calls(_mul, pairs_fp, BATCH_CALLS["field"]),
        "field.mul_ns.f49": _time_calls(_mul, pairs_49, BATCH_CALLS["field"]),
        "field.mul_ns.q": _time_calls(_mul, pairs_q, BATCH_CALLS["field"]),
        "unipoly.mul_ns": _time_calls(_mul, quartics, BATCH_CALLS["poly"]),
        "unipoly.divmod_ns": _time_calls(_divmod, octics, BATCH_CALLS["poly"]),
        "unipoly.roots_ns": _time_calls(_roots, cubics_fp, BATCH_CALLS["roots"]),
        "unipoly.resultant_ns.p10007": _time_calls(_res_deriv, cubics_fp, BATCH_CALLS["poly"]),
        "unipoly.resultant_ns.q": _time_calls(_res_deriv, cubics_q, BATCH_CALLS["poly"]),
    }
