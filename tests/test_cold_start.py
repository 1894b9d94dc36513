"""What a fresh ``howe`` process imports.

``import howe`` loads no submodule, ``import howe.cli`` loads no verb's
pipeline, and a verb loads only what it uses.  Each check runs a new
interpreter and compares its ``sys.modules`` with a bare interpreter's,
because what ``site`` imports differs between machines.  Module sets, not
times, are asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import howe

SRC = str(Path(howe.__file__).resolve().parents[1])
BUILD_F31 = ["build", "--json", "--field", "p=31",
             "--alpha", "0,1,-1,20", "--beta", "28,16,7,27"]
SCAN_F31 = ["scan", "--json", "--field", "p=31",
            "--alpha", "0,1,-1,20", "--beta", "28,16,7,27"]


def modules_after(code: str) -> set:
    """Modules a fresh interpreter holds after running ``code``, less those a
    bare interpreter holds."""
    probe = "import sys, json\n{}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

    def loaded(body):
        proc = subprocess.run([sys.executable, "-c", probe.format(body)], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        return set(json.loads(proc.stdout.splitlines()[-1]))

    return loaded(code) - loaded("")


def run_verb(argv) -> str:
    return ("import contextlib, io, howe.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert howe.cli.main({argv!r}) == 0")


def test_import_howe_loads_no_submodule():
    loaded = modules_after("import howe")
    assert {m for m in loaded if m.split(".")[0] == "howe"} == {"howe"}


def test_import_cli_loads_no_pipeline():
    loaded = modules_after("import howe.cli")
    assert "howe.cli" in loaded
    assert not loaded & {"dataclasses", "howe.reference", "howe.sampling", "howe.report"}


@pytest.mark.parametrize("argv,used,unused", [
    (BUILD_F31, {"howe.report", "howe.irreducible"},
     {"howe.reference", "howe.sampling", "dataclasses"}),
    (SCAN_F31, {"howe.singular"},
     {"howe.report", "howe.irreducible", "howe.reference", "howe.sampling"}),
])
def test_verb_loads_only_its_own_modules(argv, used, unused):
    loaded = modules_after(run_verb(argv))
    assert used <= loaded
    assert not loaded & unused
