"""Regenerate reference.json: every STRIDE-th sweep row of the default-seed runs.

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only when a change is meant to alter the sweep outputs, and say so
in the change; checks.py compares the default-seed rows against this file.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import REFERENCE_FILE, read_csv
from run import OUT, child_env, spawn
from workloads import DEFAULT_SEED, round_for

STRIDE = {"z_scaling.csv": 40, "depths.csv": 16, "ret.csv": 2}


def main() -> int:
    workdir = OUT / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for workload in ("z-scaling", "depth-scan"):
        for inv in round_for(workload, DEFAULT_SEED):
            _, _, _, code = spawn([sys.executable, "-m", "blochdecay.cli", *inv.argv],
                                  workdir, child_env())
            if code != 0:
                print((workdir / "stderr.txt").read_text(), file=sys.stderr)
                return 1
            name = inv.artifacts[0]
            _, _, rows = read_csv(workdir / name)
            reference[name] = {"argv": inv.argv, "stride": STRIDE[name],
                               "rows": rows[::STRIDE[name]]}
    lines = []
    for name, ref in reference.items():  # one row per line, so diffs stay readable
        rows = ",\n".join(json.dumps(r) for r in ref["rows"])
        lines.append(f'{json.dumps(name)}: {{"argv": {json.dumps(ref["argv"])}, '
                     f'"stride": {ref["stride"]}, "rows": [\n{rows}]}}')
    REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    shutil.rmtree(workdir)
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
