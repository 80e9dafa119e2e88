"""The package imports nothing outside the standard library, and each
module uses every name it imports."""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "bvbfv")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def absolute_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_the_standard_library(module):
    outside = [name for name in absolute_imports(os.path.join(SRC, module))
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{module} imports {outside}"


def unused_imports(path):
    """The names a module binds by import (other than from __future__) and
    never reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_imports_no_name_it_never_uses(module):
    unused = unused_imports(os.path.join(SRC, module))
    assert not unused, f"{module} never uses {unused}"
