"""The names the benchmark harness under ``bench/`` takes from ``howe`` exist.

The harness wraps functions by module and attribute name, and its kernels
and workloads import from ``howe`` directly, so moving or renaming one of
those names breaks every benchmark run.  These checks read ``bench/``
without changing it and fail in the tier-1 suite instead.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def resolve(dotted: str):
    """The object a dotted ``howe...`` name refers to, importing submodules
    that the package does not import itself."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 1):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[: i + 1]))
    return obj


def howe_names(path: Path) -> set:
    """Dotted names a source file takes from ``howe``: ``from howe import x``
    gives ``howe.x``, and an attribute chain on such a name (or on ``howe``
    itself) gives the whole chain."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "howe":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "howe":
                    aliases[alias.asname or "howe"] = alias.name if alias.asname else "howe"
    names = set(aliases.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            names.add(".".join([aliases[node.id], *reversed(chain)]))
    return names


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_spans_resolve(tracer):
    for name, (module, attr) in tracer.SPANS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_tracer_counters_resolve(tracer):
    for name, (module, cls, method) in tracer.COUNTERS.items():
        owner = getattr(importlib.import_module(module), cls, None)
        assert owner is not None and method in vars(owner), name


@pytest.mark.parametrize("filename", ["kernels.py", "workloads.py", "run.py", "cli_child.py"])
def test_names_taken_from_howe_exist(filename):
    names = howe_names(BENCH / filename)
    assert names
    for dotted in sorted(names):
        resolve(dotted)


def test_scan_sees_the_pipeline_entry_points():
    names = howe_names(BENCH / "kernels.py") | howe_names(BENCH / "workloads.py")
    assert {
        "howe.UniPoly", "howe.resultant", "howe.roots", "howe.validate",
        "howe.prime_field", "howe.rational_field", "howe.build_extension",
        "howe.report.analyze", "howe.report.to_json", "howe.sampling.sample_types",
    } <= names
