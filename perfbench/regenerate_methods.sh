#!/bin/sh
# Regenerate the optimized method files the stepsearch and certify workloads read.
# Run from the root of a source checkout:  sh perfbench/regenerate_methods.sh
# Seed 123, 20 starts and r_tol 1e-4 are the settings of the acceptance suite's searches.
# (3,2,3) takes a few minutes; the other two take seconds.
set -e
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
for target in "2 2 3" "2 3 4" "3 2 3"; do
    set -- $target
    python3 -m sspmsrk.cli optimize --stages "$1" --steps "$2" --order "$3" \
        --starts 20 --seed 123 --r-tol 1e-4 --out "perfbench/methods/opt_$1_$2_$3.msrk"
done
