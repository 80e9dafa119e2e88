import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")


def run_cli(*args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.setdefault("BVBFV_CORPUS", CORPUS)
    return subprocess.run(
        [sys.executable, "-m", "bvbfv.cli", *args],
        capture_output=True,
        env=env,
        cwd=ROOT,
        **kw,
    )


def test_complex_check_passes():
    out = run_cli("complex", "check", "solid_torus")
    assert out.returncode == 0
    assert b"all checks passed" in out.stdout


def test_complex_check_bad_orientation_exits_one(tmp_path):
    bad = {
        "dimension": 2,
        "vertices": [0, 1, 2, 3],
        "top_simplices": [[0, 1, 2], [1, 2, 3]],
        "orientation_signs": [1, 1],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    out = run_cli("complex", "check", str(p))
    assert out.returncode == 1
    assert b"rror" in out.stderr or b"Incoherent" in out.stderr


def test_missing_file_exits_one():
    out = run_cli("complex", "check", "no_such_complex")
    assert out.returncode == 1


def test_target_check_exit_codes(tmp_path):
    out = run_cli("target", "check", os.path.join("corpus", "targets", "cs_so3.json"))
    assert out.returncode == 0
    # sigma-model target of the documented non-Poisson bivector
    # ({x0,x1} = 1, {x1,x2} = x1): the master equation must fail
    data = {
        "vars": [{"name": f"x{i}", "degree": 0} for i in range(3)]
        + [{"name": f"p{i}", "degree": 1} for i in range(3)],
        "omega_degree": 1,
        "omega": [
            ["0", "0", "0", "1", "0", "0"],
            ["0", "0", "0", "0", "1", "0"],
            ["0", "0", "0", "0", "0", "1"],
            ["1", "0", "0", "0", "0", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "1", "0", "0", "0"],
        ],
        "theta": [
            {"coeff": "1", "monomial": ["p0", "p1"]},
            {"coeff": "1", "monomial": ["x1", "p1", "p2"]},
        ],
    }
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(data))
    out = run_cli("target", "check", str(p))
    assert out.returncode == 2


def test_cme_subcommand():
    out = run_cli("cme", "cylinder", "--theory", "bf")
    assert out.returncode == 0
    out = run_cli("cme", "interval3", "--theory", "scalar", "--mass", "1/2")
    assert out.returncode == 0


def test_moduli_solid_torus_cs_text_report():
    out = run_cli("moduli", "solid_torus", "--theory", "cs")
    assert out.returncode == 0
    text = out.stdout.decode()
    assert "evolution_relation" in text
    assert "lagrangian" in text


def test_structured_report_contains_expected_keys():
    out = run_cli("--format", "structured", "moduli", "solid_torus",
                  "--theory", "cs")
    data = json.loads(out.stdout)
    for key in ("moduli", "moduli_symp", "lefschetz", "evolution_relation"):
        assert key in data["tables"]
    assert data["tables"]["moduli"] == {"-1": 0, "-2": 0, "0": 1, "1": 1}


def test_structured_determinism_byte_identical():
    a = run_cli("--format", "structured", "cme", "disk", "--theory", "bf")
    b = run_cli("--format", "structured", "cme", "disk", "--theory", "bf")
    assert a.stdout == b.stdout and a.returncode == 0


def test_report_roundtrip():
    out = run_cli("--format", "structured", "complex", "check", "torus")
    data = json.loads(out.stdout)
    assert json.dumps(data, indent=1, sort_keys=True).encode() + b"\n" == out.stdout


def test_glue_subcommand_meridian_longitude():
    out = run_cli("glue", "glue_solid_tori_meridian_to_longitude.json",
                  "--theory", "cs")
    assert out.returncode == 0, out.stderr
    assert b"mayer_vietoris_absolute_exact" in out.stdout


@pytest.mark.parametrize("theory", ["scalar", "ed"])
def test_glue_cotangent_theory_exits_one(theory):
    # intrinsic gluing needs the cup model; a cotangent theory is refused
    # up front with one error line instead of crashing midway
    out = run_cli("glue", "glue_solid_tori_meridian_to_meridian.json",
                  "--theory", theory)
    assert out.returncode == 1
    lines = out.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert b"Traceback" not in out.stderr


@pytest.mark.parametrize("spec", ["glue_solid_tori_meridian_to_meridian.json",
                                  "glue_solid_tori_meridian_to_longitude.json"])
def test_glue_ed_stratum_passes(spec):
    # the ed stratum is a cup model: it glues, and both Mayer-Vietoris
    # sequences are exact with the interface differential d: c -> A
    out = run_cli("--format", "structured", "glue", spec, "--theory", "ed", "--codim", "1")
    assert out.returncode == 0, out.stderr
    checks = json.loads(out.stdout)["checks"]
    assert checks["mayer_vietoris_absolute_exact"]
    assert checks["mayer_vietoris_partially_reduced_exact"]
    assert all(checks.values())


def malformed_glue_spec(tmp_path, pair):
    """The meridian-to-meridian gluing spec with its first pair replaced."""
    with open(os.path.join(CORPUS, "glue_solid_tori_meridian_to_meridian.json")) as fh:
        spec = json.load(fh)
    for side in ("left", "right"):
        spec[side] = os.path.join(CORPUS, spec[side])
    assert spec["interface_map"][0] == [0, 0]
    spec["interface_map"][0] = pair
    p = tmp_path / "bad_spec.json"
    p.write_text(json.dumps(spec))
    return p


def test_glue_malformed_interface_map_exits_one(tmp_path):
    out = run_cli("glue", str(malformed_glue_spec(tmp_path, [0, 0, 0])), "--theory", "cs")
    assert out.returncode == 1
    assert out.stderr.decode().startswith("error:")
    assert b"Traceback" not in out.stderr


def test_glue_boolean_interface_vertex_exits_one(tmp_path):
    # false is not the vertex 0, though it compares and hashes equal to it
    out = run_cli("glue", str(malformed_glue_spec(tmp_path, [False, 0])), "--theory", "cs")
    _assert_one_error_line(out)


@pytest.mark.parametrize("kind, field, value", [
    ("complex", "dimension", "x"),
    ("complex", "vertices", [[0], [1]]),
    ("complex", "vertices", 3),
    ("complex", "top_simplices", [[[0], 1]]),
    ("complex", "top_simplices", [1]),
    ("complex", "orientation_signs", 3),
    ("complex", "dimension", True),
    ("complex", "vertices", [False, True]),
    ("complex", "top_simplices", [[False, True]]),
    ("complex", "orientation_signs", [1.0]),
    ("complex", "orientation_signs", [True]),
    ("complex", "orientation", [-1]),
    ("target", "theta", [{"coeff": "1/0", "monomial": ["x0", "x1", "x2"]}]),
    # a whole file (field None): complexes with no top simplex
    ("complex", None, {"dimension": 2, "vertices": [], "top_simplices": []}),
    ("complex", None, {"dimension": -1, "vertices": [], "top_simplices": [[]]}),
], ids=["dimension_not_int", "vertex_id_list", "vertices_not_list",
        "top_simplex_vertex_list", "top_simplex_not_list", "orientation_signs_not_list",
        "dimension_bool", "vertex_id_bool", "top_simplex_vertex_bool", "orientation_sign_float",
        "orientation_sign_bool", "unknown_key", "coeff_zero_denominator", "no_top_simplex",
        "dimension_negative"])
def test_malformed_input_exits_one(tmp_path, kind, field, value):
    source = {"complex": "interval.json", "target": "targets/cs_so3.json"}[kind]
    with open(os.path.join(CORPUS, source)) as fh:
        data = json.load(fh)
    if field is None:
        data = value
    else:
        data[field] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    commands = [(kind, "check", str(p))]
    if kind == "complex":
        commands.append(("moduli", str(p), "--theory", "bf"))
    if field is None:
        # every subcommand that reads a complex, and every theory
        commands += [("moduli", str(p), "--theory", theory) for theory in ("cs", "scalar")]
        commands += [("moduli", str(p), "--theory", "ed", "--codim", "1"),
                     ("cme", str(p), "--theory", "bf"), ("slice-gh0", str(p), "--theory", "bf")]
    for argv in commands:
        out = run_cli(*argv)
        assert out.returncode == 1, argv
        lines = out.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert b"Traceback" not in out.stderr


def _assert_one_error_line(out):
    assert out.returncode == 1
    lines = out.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert b"Traceback" not in out.stderr


@pytest.mark.parametrize("config", [
    ["abelian_bf"],
    {"mass": "1"},
    {"kind": 3},
    {"kind": "scalar", "mass": [1]},
    {"kind": "abelian_bf", "n": "3"},
    {"kind": "abelian_bf", "codim": "1"},
    {"kind": "abelian_cs", "N": 5},
    {"kind": "scalar", "mass": float("inf")},
    {"kind": "scalar", "mass": True},
], ids=["not_object", "no_kind", "kind_not_string", "mass_list", "n_not_int",
        "codim_not_int", "unknown_key", "mass_infinite", "mass_bool"])
def test_malformed_theory_config_exits_one(tmp_path, config):
    p = tmp_path / "theory.json"
    p.write_text(json.dumps(config))
    _assert_one_error_line(run_cli("moduli", "interval", "--theory", str(p)))


@pytest.mark.parametrize("field, value", [("left", 3), ("right", ["disk.json"])])
def test_malformed_gluing_spec_exits_one(tmp_path, field, value):
    with open(os.path.join(CORPUS, "glue_solid_tori_meridian_to_meridian.json")) as fh:
        spec = json.load(fh)
    spec[field] = value
    p = tmp_path / "bad_spec.json"
    p.write_text(json.dumps(spec))
    _assert_one_error_line(run_cli("glue", str(p), "--theory", "cs"))


def _target_with(**fields):
    with open(os.path.join(CORPUS, "targets", "cs_so3.json")) as fh:
        data = json.load(fh)
    data.update(fields)
    return data


def _target_renamed(key, new_key):
    data = _target_with()
    data[new_key] = data.pop(key)
    return data


@pytest.mark.parametrize("data", [
    [1, 2],
    _target_with(vars=3),
    _target_with(omega=3),
    _target_with(theta={"coeff": "1"}),
    _target_with(vars=["x0", "x1", "x2"]),
    _target_with(vars=[{"name": f"x{i}", "degree": "one"} for i in range(3)]),
    _target_with(omega_degree="2"),
    _target_with(theta=[{"coeff": "1", "monomial": 3}]),
    _target_renamed("theta", "Theta"),
], ids=["not_object", "vars_not_list", "omega_not_list", "theta_not_list",
        "var_not_object", "degree_not_int", "omega_degree_not_int", "monomial_not_list",
        "unknown_key"])
def test_malformed_target_exits_one(tmp_path, data):
    p = tmp_path / "bad_target.json"
    p.write_text(json.dumps(data))
    _assert_one_error_line(run_cli("target", "check", str(p)))


def test_malformed_target_names_the_file_once(tmp_path):
    p = tmp_path / "bad_target.json"
    p.write_text(json.dumps(_target_with(vars=3)))
    out = run_cli("target", "check", str(p))
    _assert_one_error_line(out)
    assert out.stderr.decode() == (
        "error: target file: expected vars [{name, degree}], omega [rows], "
        "an integer omega_degree and theta [{coeff, monomial}]\n")


def test_unknown_keys_are_named(tmp_path):
    # a misspelt key is refused by name, not read as an absent one: the
    # orientation, theta and n would each fall back to a default
    with open(os.path.join(CORPUS, "interval.json")) as fh:
        cx = json.load(fh)
    cx["orientation"] = [-1]
    cases = [("orientation", cx, ("complex", "check")),
             ("Theta", _target_renamed("theta", "Theta"), ("target", "check")),
             ("N", {"kind": "abelian_cs", "N": 5}, None)]
    for key, data, command in cases:
        p = tmp_path / f"{key}.json"
        p.write_text(json.dumps(data))
        argv = (*command, str(p)) if command else ("moduli", "disk", "--theory", str(p))
        out = run_cli(*argv)
        _assert_one_error_line(out)
        assert repr(key) in out.stderr.decode(), argv


@pytest.mark.parametrize("kind, alias", [("abelian_bf", "bf"), ("abelian_cs", "cs"),
                                         ("electrodynamics", "ed")])
def test_canonical_theory_kind_matches_its_alias(kind, alias):
    # run_cli sets BVBFV_CORPUS: a canonical kind still builds as a kind
    argv = ("--format", "structured", "cme", "disk", "--theory")
    out = run_cli(*argv, kind)
    assert out.returncode == 0, out.stderr
    assert out.stdout == run_cli(*argv, alias).stdout


def test_missing_theory_config_exits_one():
    _assert_one_error_line(run_cli("cme", "disk", "--theory", "no_such_theory.json"))


@pytest.mark.parametrize("extra", [
    ("--theory", "bf"),
    ("--theory", "cs"),
    ("--theory", "ed"),
    ("--theory", "bf", "--codim", "1"),
], ids=["bf", "cs", "ed", "bf_codim_1"])
def test_mass_without_a_mass_term_exits_one(extra):
    _assert_one_error_line(run_cli("cme", "disk", *extra, "--mass", "1"))


def test_parser_built_once(monkeypatch, tmp_path):
    import argparse

    from bvbfv import cli

    counts = [0]
    orig = argparse.ArgumentParser.__init__

    def counting(self, *a, **kw):
        counts[0] += 1
        orig(self, *a, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setenv("BVBFV_CORPUS", CORPUS)
    out = str(tmp_path / "out.json")
    built = []
    for argv in (["complex", "check", "interval"],
                 ["target", "check", os.path.join("targets", "cs_so3.json")],
                 ["cme", "interval", "--theory", "bf"],
                 ["moduli", "interval", "--theory", "scalar"],
                 ["slice-gh0", "circle", "--theory", "cs"]):
        before = counts[0]
        assert cli.main([*argv, "--out", out]) in (0, 2)
        built.append(counts[0] - before)
    assert built[1:] == [0, 0, 0, 0], built


def test_import_builds_no_parser():
    # the parser is built by the first main call, so importing the CLI
    # stays cheap
    code = ("import bvbfv.cli\n"
            "assert bvbfv.cli.build_parser.cache_info().currsize == 0")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert out.returncode == 0, out.stderr


def test_no_state_crosses_between_calls(monkeypatch, capsys):
    # one process runs a mixed sequence; each op must give what a fresh
    # process gives
    from bvbfv import cli

    monkeypatch.setenv("BVBFV_CORPUS", CORPUS)
    # argparse wraps its usage line at the terminal width, which a
    # subprocess writing to a pipe does not have
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    structured = ["--format", "structured"]
    sequence = [
        ["cme", "interval3", "--theory", "scalar", "--mass", "1/2", *structured],
        ["cme", "interval3", "--theory", "scalar", *structured],
        ["cme", "disk", "--theory", "bf", "--codim", "1", *structured],
        ["cme", "disk", "--theory", "bf", *structured],
        [*structured, "slice-gh0", "circle", "--theory", "cs"],
        ["slice-gh0", "circle", "--theory", "cs", *structured],
        ["cme", "disk", "--theory", "bf", "--codim", "x", *structured],
        [*structured, "complex", "check", "disk"],
    ]
    codes = []
    for argv in sequence:
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, captured.out.encode(), captured.err.encode()) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 0, 0, 2, 0]


def test_no_shared_elimination_scope_outlives_main(monkeypatch, tmp_path):
    # each op opens the memo of shared eliminations and drops it on every
    # exit path: passing verdicts, a failing verdict, an input error, a
    # gluing error and an exception that main does not catch
    from bvbfv import cli, complexes

    monkeypatch.setenv("BVBFV_CORPUS", CORPUS)
    out = str(tmp_path / "out.json")
    spec = os.path.join(CORPUS, "glue_solid_tori_meridian_to_longitude.json")
    for argv, code in [(["moduli", "torus", "--theory", "cs"], 0),
                       (["moduli", "interval", "--theory", "scalar"], 2),
                       (["moduli", "no_such_complex", "--theory", "cs"], 1),
                       (["glue", spec, "--theory", "scalar"], 1)]:
        assert cli.main([*argv, "--format", "structured", "--out", out]) == code, argv
        assert complexes._memo is None, argv

    def crash(t):
        assert complexes._memo is not None
        raise RuntimeError("crash inside the op")

    monkeypatch.setattr(cli, "check_ghost_grading", crash)
    with pytest.raises(RuntimeError):
        cli.main(["moduli", "torus", "--theory", "cs", "--out", out])
    assert complexes._memo is None


def test_each_op_starts_with_an_empty_memo(monkeypatch, tmp_path):
    # the same op twice in one process: the second run is served nothing
    # from the first, so it eliminates every block the first did
    from bvbfv import cli, complexes

    calls = []
    kernel_basis = complexes.kernel_basis

    def recording(q, rows=None):
        calls[-1].append((complexes._memo, len(complexes._memo)))
        return kernel_basis(q, rows)

    monkeypatch.setattr(complexes, "kernel_basis", recording)
    argv = ["moduli", os.path.join(CORPUS, "torus.json"), "--theory", "cs",
            "--format", "structured", "--out", str(tmp_path / "out.json")]
    for _ in range(2):
        calls.append([])
        assert cli.main(argv) == 0
    first, second = calls
    assert first and len(second) == len(first)
    assert second[0][1] == 0 and second[0][0] is not first[0][0]


# the matrices that only the master-equation check reads
CME_ONLY = ("S_mat", "S_bdry_mat", "alpha_bdry", "P")


def _matrix_builds(monkeypatch, argv):
    """Runs one op in-process and counts the theory matrices it builds, per
    theory and name."""
    from collections import Counter

    from bvbfv import cli
    from bvbfv.theories import LinearTheory

    builds = Counter()
    build = LinearTheory._build

    def counting(t, name):
        builds[id(t), name] += 1
        return build(t, name)

    monkeypatch.setattr(LinearTheory, "_build", counting)
    assert cli.main([*argv, "--format", "structured", "--out", os.devnull]) in (0, 2)
    return builds


@pytest.mark.parametrize("argv", [
    ["moduli", "solid_torus", "--theory", "bf"],
    ["moduli", "disk", "--theory", "ed"],
    ["moduli", "interval", "--theory", "scalar", "--mass", "1/2"],
    ["slice-gh0", "solid_torus", "--theory", "cs"],
    ["slice-gh0", "disk", "--theory", "scalar"],
    ["glue", "glue_solid_tori_meridian_to_longitude.json", "--theory", "cs"],
], ids=lambda argv: "-".join(argv[:4:3]))
def test_only_the_cme_builds_the_action(monkeypatch, argv):
    monkeypatch.setenv("BVBFV_CORPUS", CORPUS)
    builds = _matrix_builds(monkeypatch, argv)
    assert builds and max(builds.values()) == 1
    assert not {name for _, name in builds} & set(CME_ONLY), builds


@pytest.mark.parametrize("theory", ["bf", "ed", "scalar"])
def test_cme_builds_each_matrix_once(monkeypatch, theory):
    monkeypatch.setenv("BVBFV_CORPUS", CORPUS)
    builds = _matrix_builds(monkeypatch, ["cme", "disk", "--theory", theory])
    assert {name for _, name in builds} >= set(CME_ONLY)
    assert set(builds.values()) == {1}, builds


def test_slice_gh0():
    out = run_cli("slice-gh0", "solid_torus", "--theory", "cs")
    assert out.returncode == 0
    assert b"moduli_dim" in out.stdout


def test_empty_report_is_valid():
    from bvbfv.cli import RunReport, emit_report, parse_report

    rep = RunReport("noop", []).finish()
    blob = emit_report(rep, "structured")
    parsed = parse_report(blob)
    assert parsed["checks"] == {}
    assert rep.ok


@pytest.mark.parametrize("command", ["moduli", "cme"])
def test_ghost_mismatch_is_a_failed_verdict(monkeypatch, tmp_path, command):
    # no corpus file mismatches and the CLI cannot corrupt a pairing, so the
    # grading check the CLI calls is made to raise
    from bvbfv import cli
    from bvbfv.complexes import GhostMismatch

    def mismatch(t):
        raise GhostMismatch("pairing of ghosts 0 and 0 is not -1")

    monkeypatch.setattr(cli, "check_ghost_grading", mismatch)
    out = tmp_path / "out.json"
    code = cli.main([command, os.path.join(CORPUS, "disk.json"), "--theory", "bf",
                     "--format", "structured", "--out", str(out)])
    assert code == 2
    report = cli.parse_report(out.read_bytes())
    assert report["checks"]["ghost_grading"] is False
    assert "ghost_mismatch" in report["tables"]
