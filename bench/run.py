"""Benchmark of the ``howe`` package: four closed-loop workloads.

Usage, from the root of a checkout (the directory that holds ``src/howe``):

    python3 bench/run.py --workload pipeline_fp --seed 1 --seconds 25 --trace 0

Workloads (one client, closed loop: each operation starts when the previous
one has returned; see ``workloads.py``):

    pipeline_fp   report.analyze + report.to_json, uniform configurations over F_10007
    pipeline_q    the same over Q, branch values of height 50 and 1000 alternately
    sample_fp     sampling.sample_types calls of 20 draws over F_10007
    cli_oneshot   fresh `python -m howe.cli` processes: build F_31, build Q,
                  verify-paper, scan over F_31

``--trace 0`` prints the end-to-end metrics: set-up time (fresh interpreter,
``import howe``, build the workload's field; median of several child
processes), instances per second over the timed loop, and per-operation
latency p50 and p95.  ``--trace 1`` runs a fixed seeded pool twice, untraced
and then with spans around the module boundaries (``tracer.py``), and prints
per-layer times, exact call counts, the tracing overhead and the kernel
micro-benchmarks (``kernels.py``).

Every run first replays a fixed gate pool and compares the SHA-256 of its
ordered outputs with the digest pinned in ``digests.json``; every output is
also checked (``oracle.py`` and the per-workload checks).  A failed operation
prints a one-line replay record to stderr.  The last line of stdout is the
JSON result; the exit code is 0 when every output was correct, 1 otherwise,
and 2 when the checkout holds no ``src/howe``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import PROBE_REF_MS, Calibrator

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipeline_fp", "pipeline_q", "sample_fp", "cli_oneshot")
GATE_SEED = 0
SETUP_REPS = 7
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- run environment -----------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_sha(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "git_sha": _git_sha(root)}


# -- operations ----------------------------------------------------------------


class Ledger:
    """Counts attempted and failed operations; prints replay records."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def fail(self, record: str):
        self.failed += 1
        print(" ".join(record.split()), file=sys.stderr)

    def op(self, item, tracer=None):
        """Run and check one operation; returns (elapsed ns, output)."""
        self.attempted += 1
        out = err = None
        t0 = time.perf_counter_ns()
        try:
            out = self.wl.run(item, tracer)
        except Exception as exc:  # a failed operation is data, not a crash
            err = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - t0
        if err is None:
            try:
                err = self.wl.check(item, out)
            except Exception as exc:
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        if err is not None:
            self.fail(f"{self.wl.replay(item)} error={err}")
        return elapsed, out

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for out in outputs:
            h.update(b"<failed>\n" if out is None else self.wl.digest_bytes(out))
        return h.hexdigest()


def gate(ledger: Ledger, expected: str | None) -> None:
    """Replay the fixed gate pool and compare its digest with the pinned one."""
    wl = ledger.wl
    outputs = [ledger.op(wl.make_input(GATE_SEED, i))[1] for i in range(wl.gate_size)]
    got = ledger.digest(outputs)
    ledger.attempted += 1
    if got != expected:
        ledger.fail(f"digest-mismatch workload={wl.name} seed={GATE_SEED}"
                    f" ops={wl.gate_size} expected={expected} got={got}")
    print(f"gate {wl.name}: {wl.gate_size} ops sha256={got}"
          f" {'matches' if got == expected else 'MISMATCH'} the pinned digest")


def measure_setup(root: str, wl, cal) -> tuple:
    """Median wall time of a fresh interpreter importing howe and building the
    workload's field, calibrated and raw (seconds)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-c", f"import howe; {wl.setup_code}"]
    raw, scaled = [], []
    for rep in range(SETUP_REPS + 1):  # the first spawn only warms the file cache
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        scale = cal.block_scale()
        if rep:
            raw.append(elapsed)
            scaled.append(elapsed * scale)
    return statistics.median(scaled), statistics.median(raw)


def _p95(values):
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _summary(wl, lat_ns) -> dict:
    lat_ms = [v / 1e6 for v in lat_ns]
    return {
        "instances_per_s": (len(lat_ms) * wl.instances_per_op / (sum(lat_ms) / 1e3), "1/s"),
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_p95": (_p95(lat_ms), "ms"),
    }


# -- the two kinds of run ----------------------------------------------------------


def end_to_end(root, ledger, seed, seconds) -> dict:
    """Closed loop over fresh seeded inputs until `seconds` of operation time."""
    wl = ledger.wl
    cal = Calibrator()
    setup_s, setup_raw = measure_setup(root, wl, cal)
    raw, scaled = [], []
    total = 0
    budget = seconds * 1_000_000_000
    gc.collect()
    while total < budget:
        block = [ledger.op(wl.make_input(seed, len(raw) + k))[0] for k in range(wl.block_ops)]
        scale = cal.block_scale()
        raw += block
        scaled += [t * scale for t in block]
        total += sum(block)
    p95 = _p95(scaled)
    print(f"timed loop: {len(raw)} ops of {wl.op}; {total / 1e9:.3f} s busy;"
          f" latency samples {len(raw)}, {sum(v > p95 for v in scaled)} beyond p95")
    print(f"calibration: median probe {statistics.median(cal.probes):.3f} ms"
          f" (reference {PROBE_REF_MS} ms) over {len(cal.probes)} probes")
    for name, (value, unit) in _summary(wl, raw).items():
        print(f"uncalibrated {name} = {value} {unit}")
    print(f"uncalibrated setup_s = {setup_raw} s")
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(_summary(wl, scaled))
    print(f"{wl.instance}s_per_s = {metrics['instances_per_s'][0]} 1/s")
    return metrics


def traced(ledger, seed, seconds, import_ns) -> dict:
    """A fixed seeded pool, each block run untraced and then traced."""
    from kernels import run_kernels
    from tracer import Tracer

    wl = ledger.wl
    n = -(-max(1, wl.trace_ops_per_second * seconds) // wl.block_ops) * wl.block_ops
    items = [wl.make_input(seed, i) for i in range(n)]
    tracer = Tracer()
    plain, spanned = [], []
    gc.collect()
    for start in range(0, n, wl.block_ops):
        block = items[start:start + wl.block_ops]
        plain += [ledger.op(item) for item in block]
        with tracer.installed():
            spanned += [ledger.op(item, tracer) for item in block]
    plain_digest = ledger.digest(out for _, out in plain)
    ledger.attempted += 1
    if ledger.digest(out for _, out in spanned) != plain_digest:
        ledger.fail(f"trace-changed-output workload={wl.name} seed={seed} ops={n}")
    print(f"traced pool: {n} ops, output sha256={plain_digest}")

    untraced_ms = sum(t for t, _ in plain) / 1e6 / n
    traced_ms = sum(t for t, _ in spanned) / 1e6 / n
    if tracer.processes:  # CLI children: mean import time per process
        import_ns = tracer.import_ns / tracer.processes
    metrics = tracer.layer_metrics(n)
    metrics.update({
        "import.ms": (import_ns / 1e6, "ms"),
        "trace.ops": (n, "count"),
        "trace.untraced_ms": (untraced_ms, "ms"),
        "trace.traced_ms": (traced_ms, "ms"),
        "trace.overhead_ms": (traced_ms - untraced_ms, "ms"),
    })
    for name, value in run_kernels(seed).items():
        metrics[name] = (value, "ns")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "howe", "__init__.py")):
        print(f"error: {root} holds no src/howe; run from the root of a howe checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter_ns()
    import howe

    import_ns = time.perf_counter_ns() - t0
    if not os.path.abspath(howe.__file__).startswith(src + os.sep):
        print(f"error: imported howe from {howe.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    with open(os.path.join(BENCH_DIR, "digests.json")) as fh:
        pinned = json.load(fh)
    wl = workloads.make(args.workload, root)
    print("env " + json.dumps(environment(root), sort_keys=True))
    print(f"workload {wl.name}: op = {wl.op}; closed loop, 1 client;"
          f" seed {args.seed}, {args.seconds} s")
    ledger = Ledger(wl)
    gate(ledger, pinned.get(wl.name))
    if args.trace:
        metrics = traced(ledger, args.seed, args.seconds, import_ns)
    else:
        metrics = end_to_end(root, ledger, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(f"failed_frac = {ledger.failed / ledger.attempted} fraction"
          f" ({ledger.failed} of {ledger.attempted} operations)")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
