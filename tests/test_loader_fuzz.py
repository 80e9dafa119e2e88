"""Mutated inputs through `cli.main`: a corpus complex and theory configs
with values of the wrong type, extra keys, deleted keys and values nested
one level deeper.  Every run ends in an exit code (0, 1 or 2), and an input
error is a single `error:` line with no traceback."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, strategies as st

from bvbfv import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")

# JSON values of any kind (Python's json reads and writes NaN and the
# infinities too), small enough that a run on them stays cheap
json_scalars = st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def _paths(doc, at=()):
    """The paths (tuples of keys and indices) to doc and every value in it."""
    yield at
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, at + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, base):
    """base after one to three mutations at drawn places: a value replaced
    by a JSON scalar or any JSON value, wrapped in a list or an object,
    deleted, or an extra key added to an object."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = _get(doc, path)
        op = draw(st.sampled_from(["scalar", "replace", "wrap", "delete", "extra"]))
        if op == "extra" and isinstance(value, dict):
            value[draw(st.text(max_size=12))] = draw(json_values)
            continue
        if op == "scalar":
            new = draw(json_scalars)
        elif op == "replace":
            new = draw(json_values)
        elif op == "wrap":
            new = draw(st.sampled_from([[value], {"value": value}]))
        else:
            new = None
        if not path:
            doc = new
        elif op == "delete":
            del _get(doc, path[:-1])[path[-1]]
        else:
            _get(doc, path[:-1])[path[-1]] = new
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in err.getvalue()


def _write(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


with open(os.path.join(CORPUS, "interval.json")) as fh:
    INTERVAL = json.load(fh)

CONFIGS = [{"kind": "abelian_bf"}, {"kind": "scalar", "mass": "1/2"},
           {"kind": "electrodynamics", "codim": 1, "n": 2}]


@given(mutated(INTERVAL))
def test_mutated_complex_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, "complex.json", doc)
        _run(["complex", "check", path])
        _run(["cme", path, "--theory", "bf"])


@given(st.sampled_from(CONFIGS).flatmap(mutated))
def test_mutated_theory_config_exits_cleanly(config):
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, "theory.json", config)
        _run(["moduli", os.path.join(CORPUS, "interval.json"), "--theory", path])
