#!/usr/bin/env python3
"""Record ``bench/reference.json``: the warm-up call's outputs at the default seed.

    python3 bench/record_reference.py

``run.py`` compares every full-size run at the default seed against this file
(discrete outputs exactly, continuous ones within rtol 1e-9). Re-record it only
in a change that is meant to alter the library's outputs, and say so there.
"""

import json
import sys

import run


def main() -> None:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH)]
    import workloads

    reference = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, run.ROOT)
        warm = workload.call(workload.prepare(workloads.master_seed(run.DEFAULT_SEED, 0)))
        reference[name] = workload.digest(warm)
    with open(run.BENCH / "reference.json", "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(name)}: {json.dumps(d)}" for name, d in reference.items()))
        fh.write("\n}\n")


if __name__ == "__main__":
    main()
