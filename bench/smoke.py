#!/usr/bin/env python3
"""Smoke self-test of the benchmark at a tiny size (about half a minute).

    python3 bench/smoke.py

Runs every workload of ``BENCHMARK.json`` with tracing off and on, with tiny
per-call sizes, and asserts that every metric the file names is printed as
``metric <name> = <value> <unit>`` with its unit, that the final JSON line
carries exactly those metrics, and that every output check passed.
"""

import io
import json
import re
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH)]
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            buf = io.StringIO()
            run.run(workload["name"], run.DEFAULT_SEED + 1, 0.01, bool(trace), size="tiny", out=buf)
            lines = buf.getvalue().splitlines()
            where = f"{workload['name']} --trace {trace}"
            printed = {}
            for line in lines:
                match = re.fullmatch(r"metric (\S+) = (\S+) (\S+)(?: .*)?", line)
                if match:
                    printed[match.group(1)] = match.group(3)
            for metric in declared:
                if printed.get(metric["name"]) != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} printed as {printed.get(metric['name'])!r}")
            result = json.loads(lines[-1])
            if sorted(result["metrics"]) != sorted(m["name"] for m in declared):
                problems.append(f"{where}: JSON metrics {sorted(result['metrics'])}")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                problems.append(f"{where}: {json.dumps({k: v for k, v in result.items() if k != 'metrics'})}")
            if "failed_share" not in printed:
                problems.append(f"{where}: failed_share not printed")
            print(f"{where}: {len(printed)} metrics printed", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
