"""The package and the scripts import nothing outside the standard
library (the scripts may import the repository's own modules), and each
file uses every name it imports.  Each script also runs, on a small
input, in a subprocess."""

import ast
import functools
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "bvbfv")
SCRIPTS = os.path.join(ROOT, "scripts")
# (path, the names outside the standard library that it may import)
FILES = [(os.path.join(SRC, f), set()) for f in sorted(os.listdir(SRC)) if f.endswith(".py")]
FILES += [(os.path.join(SCRIPTS, f), {"bvbfv", "workloads", "corpus_report"})
          for f in sorted(os.listdir(SCRIPTS)) if f.endswith(".py")]
# a module of the package by its file name, a script by its path
IDS = [os.path.relpath(path, ROOT if own else SRC) for path, own in FILES]


def absolute_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path,own", FILES, ids=IDS)
def test_imports_only_the_standard_library(path, own):
    outside = [name for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | own]
    assert not outside, f"{path} imports {outside}"


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


@pytest.mark.parametrize("path,own", FILES, ids=IDS)
def test_imports_no_name_it_never_uses(path, own):
    unused = unused_imports(path)
    assert not unused, f"{path} never uses {unused}"


def run_script(*argv):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_ladder_runs_the_smallest_rung():
    out = run_script("ladder.py", "--theory", "bf", "--m", "3", "-k", "1")
    assert out.returncode == 0, out.stderr
    theory, m, _, _, digest = out.stdout.splitlines()[-1].split()
    assert (theory, m) == ("bf", "3") and len(digest) == 64


@functools.cache
def glue_self_comparison():
    """One glue pass of this checkout against itself, run once."""
    return run_script("ab_compare.py", ROOT, ROOT, "glue", "1")


def test_ab_compare_runs_one_glue_pass_against_itself():
    out = glue_self_comparison()
    assert out.returncode == 0, out.stderr
    assert "reference mismatches: 0" in out.stdout.splitlines()


def test_ab_compare_counts_equal_work_on_both_sides_of_a_self_comparison():
    out = glue_self_comparison()
    assert out.returncode == 0, out.stderr
    work = dict(line.split(": ", 1) for line in out.stdout.splitlines()
                if line.startswith("work "))
    assert set(work) == {"work A (one pass)", "work B (one pass)"}
    counts = work["work A (one pass)"].split()
    assert counts == work["work B (one pass)"].split()
    # four counts, each a positive integer
    nums = [int(x) for x in counts if x.isdigit()]
    assert len(nums) == 4 and all(nums)
