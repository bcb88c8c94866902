"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is everything before the first timed call: importing ``daisymimo``,
loading the workload's config and preparing the first call's inputs.

    python3 bench/setup_probe.py WORKLOAD SEED SIZE
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402  (imports daisymimo and numpy)


def main() -> None:
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = workloads.make(name, BENCH.parent, size)
    workload.prepare(workloads.master_seed(seed, 0))
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
