"""Every entry point that the benchmark's tracer wraps (ENTRY_POINTS in
perfbench/spans.py) exists in bvbfv, so renaming one fails here before it
breaks a traced benchmark run.  perfbench/ is only read."""

import ast
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def entry_points():
    """ENTRY_POINTS as written in spans.py, read without running the file."""
    with open(os.path.join(ROOT, "perfbench", "spans.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "ENTRY_POINTS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no ENTRY_POINTS")


@pytest.mark.parametrize("module,path", entry_points())
def test_benchmark_entry_point_resolves(module, path):
    # resolved as the tracer resolves it: a function bound in the module, or
    # a method defined on the class itself
    owner = importlib.import_module(f"bvbfv.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(attr)), path
    else:
        assert callable(getattr(owner, path, None)), path
