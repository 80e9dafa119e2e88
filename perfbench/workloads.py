"""Op lists of the bvbfv benchmark workloads.

An op is the argv of one `bvbfv` CLI call, without the output flags.  Every
path is relative to the root of the checkout and names a shipped corpus
file, so the program sees nothing but the CLI argv and the corpus.
"""

GLUE_SPECS = (
    "corpus/glue_solid_tori_meridian_to_meridian.json",
    "corpus/glue_solid_tori_meridian_to_longitude.json",
)

COMPLEXES = (
    # (name, dimension), in the order of corpus/manifest.json
    ("annulus", 2), ("circle", 1), ("cylinder", 2), ("disk", 2),
    ("disk_fan", 2), ("interval", 1), ("interval3", 1), ("point", 0),
    ("solid_torus", 3), ("solid_torus_reversed", 3), ("sphere", 2),
    ("torus", 2), ("torus_times_interval", 3), ("two_points", 0),
)

TARGETS = ("bf_gl2_n4", "cs_cubic_minus", "cs_cubic_plus", "cs_so3",
           "example5_so3", "psm_so3")

# Smallest complex dimension on which the CLI builds each theory.
THEORY_MIN_DIM = {"bf": 1, "cs": 0, "scalar": 0, "ed": 2}


def _cx(name):
    return f"corpus/{name}.json"


def _small_sweep():
    ops = [["complex", "check", _cx(name)] for name, _ in COMPLEXES]
    for name, dim in COMPLEXES:
        if dim > 2:
            continue
        for theory, min_dim in THEORY_MIN_DIM.items():
            if dim >= min_dim:
                for sub in ("cme", "moduli", "slice-gh0"):
                    ops.append([sub, _cx(name), "--theory", theory])
    ops += [["target", "check", f"corpus/targets/{t}.json"] for t in TARGETS]
    return ops


# name -> (timed ops, largest op, probes).  The largest op is the one on the
# biggest input; `max_op_s` is its time.  Probes are ops known to fail at
# the seed: they run once per run, untimed, so a fix shows in `ok_ops`
# without moving `pass_s`.
WORKLOADS = {
    "cotangent_les": (
        [
            ["moduli", _cx("solid_torus"), "--theory", "scalar"],
            ["moduli", _cx("torus"), "--theory", "ed"],
            ["moduli", _cx("solid_torus"), "--theory", "ed"],
        ],
        ["moduli", _cx("solid_torus"), "--theory", "ed"],
        [],
    ),
    "cup_moduli": (
        [
            [sub, _cx(cx), "--theory", theory]
            for cx in ("solid_torus", "torus_times_interval")
            for theory in ("bf", "cs")
            for sub in ("cme", "moduli")
        ],
        ["moduli", _cx("torus_times_interval"), "--theory", "bf"],
        [],
    ),
    "glue": (
        [["glue", spec, "--theory", "cs"] for spec in GLUE_SPECS],
        ["glue", GLUE_SPECS[0], "--theory", "cs"],
        [["glue", spec, "--theory", theory]
         for spec in GLUE_SPECS for theory in ("scalar", "ed")],
    ),
    "small_sweep": (
        _small_sweep(),
        ["moduli", _cx("torus"), "--theory", "ed"],
        [],
    ),
}


def op_id(argv):
    return " ".join(argv)
