"""Per-layer spans and counters around the module boundaries of ``howe``.

The tracer wraps public functions of the ``howe`` modules from outside: the
original function object is replaced, in every loaded ``howe`` module that
binds it, by a wrapper that records a span.  Nothing under ``src/`` changes,
and ``uninstall`` puts the originals back.

A span's self time is its duration minus the time covered by its direct
child spans.  For a function that calls itself, only the outermost call adds
to the total, so totals never count a nested interval twice.  Spans are
aggregated in memory per name (calls, total ns, self ns).
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# Prefix of the stderr line on which a traced CLI child reports its snapshot.
TRACE_PREFIX = "BENCH_TRACE "

# Span name -> (module, attribute).  Names are the per-layer metric prefixes.
SPANS = {
    "report.analyze": ("howe.report", "analyze"),
    "report.to_json": ("howe.report", "to_json"),
    "sextic.validate": ("howe.sextic", "validate"),
    "sextic.build_model": ("howe.sextic", "build_model"),
    "singular.classify": ("howe.singular", "classify"),
    "singular.singular_points": ("howe.singular", "singular_points"),
    "singular.verify_multiplicity_two": ("howe.singular", "verify_multiplicity_two"),
    "singular.brute_force_singular_scan": ("howe.singular", "brute_force_singular_scan"),
    "unipoly.roots": ("howe.unipoly", "roots"),
    "unipoly.factor_rational": ("howe.unipoly", "factor_rational"),
    "unipoly.resultant": ("howe.unipoly", "resultant"),
    "irreducible.is_absolutely_irreducible": ("howe.irreducible", "is_absolutely_irreducible"),
    "irreducible.shape_b_test": ("howe.irreducible", "shape_b_test"),
    "cli.build": ("howe.cli", "cmd_build"),
    "cli.verify_paper": ("howe.cli", "cmd_verify_paper"),
    "cli.scan": ("howe.cli", "cmd_scan"),
}

# Counter name -> (module, class, method).  Counted only, no span: these are
# called hundreds of times per instance.
COUNTERS = {
    "field.eq_calls": ("howe.field", "Field", "__eq__"),
    "field.extension_fields_built": ("howe.field", "ExtensionField", "__init__"),
}

# Span call counts reported as exact per-layer counts.
COUNTED_SPANS = (
    "singular.verify_multiplicity_two",
    "sextic.build_model",
    "unipoly.roots",
)


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0, 0] for name in SPANS}  # calls, total ns, self ns
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []  # [start ns, child ns] per open span
        self._depth = dict.fromkeys(SPANS, 0)
        self._restore = []
        self.import_ns = 0  # summed over the processes whose snapshots merged
        self.processes = 0

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn):
        stack, depth, stat = self._stack, self._depth, self.stats[name]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                depth[name] -= 1
                stat[0] += 1
                stat[2] += dur - frame[1]
                if depth[name] == 0:
                    stat[1] += dur
                if stack:
                    stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every span and counter target; idempotent per tracer."""
        if self._restore:
            return
        for name, (mod_name, attr) in SPANS.items():
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._span(name, orig)
            for mod in [m for k, m in sys.modules.items() if k == "howe" or k.startswith("howe.")]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
        for name, (mod_name, cls_name, attr) in COUNTERS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._counter(name, orig))
            self._restore.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "import_ns": self.import_ns}

    def merge(self, snap: dict):
        """Add a snapshot taken in another process (a traced CLI child)."""
        for name, (calls, total, self_ns) in snap["stats"].items():
            stat = self.stats[name]
            stat[0] += calls
            stat[1] += total
            stat[2] += self_ns
        for name, n in snap["counts"].items():
            self.counts[name] += n
        self.import_ns += snap["import_ns"]
        self.processes += 1

    def layer_metrics(self, ops: int) -> dict:
        """Per-op total and self milliseconds per span, exact call counts."""
        out = {}
        for name, (_calls, total, self_ns) in self.stats.items():
            out[f"{name}.ms"] = (total / 1e6 / ops, "ms")
            out[f"{name}.self_ms"] = (self_ns / 1e6 / ops, "ms")
        for name in COUNTED_SPANS:
            out[f"{name}.calls"] = (self.stats[name][0], "count")
        for name, n in self.counts.items():
            out[name] = (n, "count")
        return out
