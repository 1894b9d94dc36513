"""The four benchmark workloads.

Each workload turns (seed, index) into one input, runs one operation on it
through the public API of ``howe`` (or its CLI), checks the output, and
renders the output as the bytes that the digest gate hashes.  Inputs are a
pure function of (workload, seed, index), so equal seeds give equal inputs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import howe
from howe import report, sampling

from oracle import check_report
from tracer import TRACE_PREFIX

P_LARGE = 10007
P_SCAN = 31
Q_HEIGHTS = (50, 1000)  # pipeline_q alternates between the two heights
SAMPLE_DRAWS = 20  # draws per sample_types call in sample_fp
CLI_TIMEOUT_S = 60


class Item:
    """One generated input plus what a replay record needs."""

    __slots__ = ("field", "alpha", "beta", "seed", "payload")

    def __init__(self, field, alpha, beta, seed, payload):
        self.field = field
        self.alpha = alpha
        self.beta = beta
        self.seed = seed
        self.payload = payload


def _rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def _branch_values(rng: random.Random, lo: int, hi: int):
    vals = rng.sample(range(lo, hi + 1), 8)
    return vals[:4], vals[4:]


class Workload:
    name = ""
    op = ""  # what one operation is, for the printed summary
    instance = "configuration"  # what instances_per_s counts
    setup_code = ""  # run after `import howe` in the set-up child
    gate_size = 0
    trace_ops_per_second = 0  # traced pool size per second of --seconds
    block_ops = 1  # operations between two calibration probes
    instances_per_op = 1

    def make_input(self, seed: int, index: int) -> Item:
        raise NotImplementedError

    def run(self, item: Item, tracer=None):
        raise NotImplementedError

    def check(self, item: Item, output) -> str | None:
        raise NotImplementedError

    def digest_bytes(self, output) -> bytes:
        return output.encode() + b"\n"

    def command(self, item: Item) -> str:
        return (f"howe build --field={item.field} --alpha={','.join(map(str, item.alpha))}"
                f" --beta={','.join(map(str, item.beta))} --seed={item.seed}")

    def replay(self, item: Item) -> str:
        """The one-line record printed to stderr for a failed operation."""
        return (f"replay workload={self.name} field={item.field}"
                f" alpha={','.join(map(str, item.alpha))}"
                f" beta={','.join(map(str, item.beta))} seed={item.seed}"
                f" command: {self.command(item)}")


class Pipeline(Workload):
    """report.analyze followed by report.to_json on one configuration."""

    gate_size = 24
    op = "one configuration through report.analyze and report.to_json"

    def __init__(self, name, field_arg, field, value_range):
        self.name = name
        self.field_arg = field_arg
        self.field = field
        self.value_range = value_range

    def make_input(self, seed, index):
        alpha, beta = _branch_values(_rng(self.name, seed, index), *self.value_range(index))
        F = self.field
        rd = howe.validate([F(a) for a in alpha], [F(b) for b in beta])
        return Item(self.field_arg, alpha, beta, seed, rd)

    def run(self, item, tracer=None):
        return report.to_json(report.analyze(item.payload, item.seed))

    def check(self, item, output):
        return check_report(output)


def pipeline_fp() -> Workload:
    wl = Pipeline("pipeline_fp", f"p={P_LARGE}", howe.prime_field(P_LARGE),
                  lambda i: (0, P_LARGE - 1))
    wl.setup_code = f"howe.prime_field({P_LARGE})"
    wl.trace_ops_per_second = 40
    wl.block_ops = 40
    return wl


def pipeline_q() -> Workload:
    def heights(i):
        h = Q_HEIGHTS[i % len(Q_HEIGHTS)]
        return (-h, h)

    wl = Pipeline("pipeline_q", "rational", howe.rational_field(), heights)
    wl.setup_code = "howe.rational_field()"
    wl.trace_ops_per_second = 12
    wl.block_ops = 12
    return wl


class SampleFp(Workload):
    """One sampling.sample_types call of SAMPLE_DRAWS draws."""

    name = "sample_fp"
    op = f"one sampling.sample_types call of {SAMPLE_DRAWS} draws over F_{P_LARGE}"
    setup_code = f"howe.prime_field({P_LARGE})"
    gate_size = 3
    trace_ops_per_second = 12
    block_ops = 8
    instance = "draw"
    instances_per_op = SAMPLE_DRAWS

    def __init__(self):
        self.field = howe.prime_field(P_LARGE)

    def make_input(self, seed, index):
        op_seed = _rng(self.name, seed, index).randrange(2**31)
        return Item(f"p={P_LARGE}", (), (), op_seed, op_seed)

    def run(self, item, tracer=None):
        summary = sampling.sample_types(self.field, SAMPLE_DRAWS, item.payload)
        return json.dumps(summary.as_dict(), sort_keys=True)

    def check(self, item, output):
        d = json.loads(output)
        if d["count"] != SAMPLE_DRAWS or d["seed"] != item.payload:
            return "summary count or seed differs from the request"
        if sum(d["type_counts"].values()) != SAMPLE_DRAWS \
                or sum(d["total_counts"].values()) != SAMPLE_DRAWS:
            return "type tallies do not add up to the draw count"
        if d["irreducibility_failures"]:
            return f"{d['irreducibility_failures']} irreducibility failures"
        return None

    def command(self, item):
        return f"howe sample --field={item.field} --count={SAMPLE_DRAWS} --seed={item.seed}"


class CliOneshot(Workload):
    """One fresh `python -m howe.cli` process, cycling through four verbs."""

    name = "cli_oneshot"
    op = "one `python -m howe.cli` invocation (build F_31, build Q, verify-paper, scan)"
    setup_code = f"howe.prime_field({P_SCAN})"
    gate_size = 4
    trace_ops_per_second = 2
    block_ops = 2
    instance = "invocation"

    def __init__(self, root):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

    def make_input(self, seed, index):
        cycle, verb = divmod(index, 4)
        rng = _rng(self.name, seed, cycle)
        if verb == 0:  # the bundled I-1 reference example over F_31
            field, alpha, beta = f"p={P_SCAN}", [0, 1, -1, 20], [28, 16, 7, 27]
            argv = ["build", "--json"]
        elif verb == 1:
            field, (alpha, beta) = "rational", _branch_values(rng, -Q_HEIGHTS[0], Q_HEIGHTS[0])
            argv = ["build", "--json"]
        elif verb == 2:
            return Item("p=31", (), (), seed, ["verify-paper", "--json"])
        else:
            field, (alpha, beta) = f"p={P_SCAN}", _branch_values(rng, 0, P_SCAN - 1)
            argv = ["scan", "--json"]
        argv += [f"--field={field}", f"--alpha={','.join(map(str, alpha))}",
                 f"--beta={','.join(map(str, beta))}"]
        return Item(field, alpha, beta, seed, argv)

    def run(self, item, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "howe.cli", *item.payload]
        else:
            cmd = [sys.executable, self.child, *item.payload]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if tracer is not None:
            lines = [ln for ln in proc.stderr.splitlines() if ln.startswith(TRACE_PREFIX)]
            if lines:
                tracer.merge(json.loads(lines[-1][len(TRACE_PREFIX):]))
        return proc.stdout, proc.returncode

    def check(self, item, output):
        stdout, code = output
        if code != 0:
            return f"exit code {code}"
        verb = item.payload[0]
        if verb == "build":
            return check_report(stdout)
        doc = json.loads(stdout)
        if verb == "verify-paper":
            if doc["passed"] != doc["total"] or doc["total"] != 7:
                return f"{doc['passed']}/{doc['total']} reference examples pass"
            return None
        if not doc["agree"] or doc["symbolic"] != doc["scan"]:
            return "symbolic singular points disagree with the brute-force scan"
        return None

    def command(self, item):
        return "howe " + " ".join(item.payload)

    def digest_bytes(self, output):
        stdout, code = output
        return f"{stdout}\nexit {code}\n".encode()


def make(name: str, root: str) -> Workload:
    if name == "pipeline_fp":
        return pipeline_fp()
    if name == "pipeline_q":
        return pipeline_q()
    if name == "sample_fp":
        return SampleFp()
    if name == "cli_oneshot":
        return CliOneshot(root)
    raise ValueError(f"unknown workload {name!r}")
