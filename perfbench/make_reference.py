#!/usr/bin/env python3
"""Write reference.json: the exit code and the sha256 of the structured
report of every timed op of every workload, as the checked-out program
gives them.

    python3 perfbench/make_reference.py

Run it from the root of a checkout only when the benchmark's op lists
change, on the commit whose outputs are the reference.  It refuses ops that
crash or exit 1, because the timed ops must all succeed (exit 0) or report
a failed verdict (exit 2).
"""

import json
import os
import sys

from run import OUT_DIR, REFERENCE, ROOT, import_cli, run_op
from workloads import WORKLOADS, op_id


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    os.chdir(ROOT)
    cli = import_cli()
    ref = {}
    for ops, _, _ in WORKLOADS.values():
        for argv in ops:
            if op_id(argv) in ref:
                continue
            _, wall, _, code, digest = run_op(cli, argv)
            print(f"{wall:8.3f} s  exit {code}  {op_id(argv)}")
            if code not in (0, 2):
                sys.exit(f"error: {op_id(argv)} gave {code}")
            ref[op_id(argv)] = {"exit": code, "sha256": digest}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
