"""Machine-speed calibration for timings taken on a shared, noisy host.

On a machine shared with other tenants the speed of one core drifts by 30%
or more over minutes, which swamps the run-to-run differences the benchmark
has to resolve.  The probe below is a fixed pure-Python computation (small
modular arithmetic on slotted objects, tuples, dict stores, fractions) that
does not touch ``howe``.  Each timed block of operations is bracketed by two
probes; its times are multiplied by PROBE_REF_MS over the mean of the two
probe times, so they read as milliseconds on a machine where the probe takes
PROBE_REF_MS: the probe's uncontended time on the 2-core Intel Xeon VM the
benchmark was defined on.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

PROBE_REF_MS = 3.4
PROBE_STEPS = 3000


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other, p):
        return _Pair((self.a * other.a + 3 * self.b * other.b) % p,
                     (self.a * other.b + self.b * other.a) % p)


def _probe() -> int:
    p = 10007
    table = {}
    acc, x, fr = _Pair(1, 0), _Pair(5, 7), Fraction(1, 3)
    t = ()
    for i in range(PROBE_STEPS):
        acc = acc.mul(x, p)
        table[(i & 63, acc.a & 7)] = acc.b
        if i % 50 == 0:
            fr = (fr * Fraction(i + 1, 7) + 1) / 3
        t = tuple(sorted((acc.a, acc.b, i % p)))
    return acc.a + len(table) + t[0]


def probe_ms() -> float:
    """Wall milliseconds of one probe, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _probe()
        return (time.perf_counter_ns() - t0) / 1e6
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Scale factors for consecutive blocks, one probe at each boundary."""

    def __init__(self):
        probe_ms()  # warm the probe's own code paths
        self.last = probe_ms()
        self.probes = [self.last]

    def block_scale(self) -> float:
        """Probe now; the scale for the block that ended since the last probe."""
        now = probe_ms()
        self.probes.append(now)
        scale = PROBE_REF_MS / ((self.last + now) / 2)
        self.last = now
        return scale
