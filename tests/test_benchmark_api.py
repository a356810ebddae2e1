"""The names the benchmark under perfbench/ calls exist in tpwalk.

perfbench/spans.py is loaded as it stands, without running the benchmark,
and perfbench/workloads.py is read as source, so a name removed from the
package fails here instead of only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import tpwalk

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_names() -> set[str]:
    """Every attribute read from the package handle, tp.<name> or
    self.tp.<name>, in workloads.py."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        handle = node.value
        if (isinstance(handle, ast.Name) and handle.id == "tp"
                or isinstance(handle, ast.Attribute) and handle.attr == "tp"):
            names.add(node.attr)
    return names


def test_span_targets_exist():
    targets = _load_spans().TARGETS
    assert targets
    missing = [f"{layer}.{fn}" for layer, fn, _, _ in targets
               if not hasattr(importlib.import_module(f"tpwalk.{layer}"), fn)]
    assert missing == []


def test_workload_names_exist():
    names = _workload_names()
    assert "edge_walk_2xn_report" in names
    assert sorted(n for n in names if not hasattr(tpwalk, n)) == []
