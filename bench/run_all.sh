#!/bin/sh
# Run every workload of the benchmark, each in its own process, and print all
# their metrics: sh bench/run_all.sh [SEED] [SECONDS] [TRACE]
set -e
for workload in mse_m256 ber_m256_16qam slot_m256_c32; do
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "${1:-0}" --seconds "${2:-20}" --trace "${3:-0}"
done
