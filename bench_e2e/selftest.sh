#!/usr/bin/env bash
# Self-test of the benchmark's output checks: every workload must report
# zero failures on a clean run and count failures when a wrong output is
# planted (--plant-fault). Run from the repository root:
#   bash bench_e2e/selftest.sh
set -euo pipefail
run() {
    cargo run --release --offline --quiet --manifest-path bench_e2e/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 1 --trace 0 "${@:2}" 2>/dev/null | tail -n 1
}
field() {
    python3 -c 'import json, sys; print(json.loads(sys.argv[1])[sys.argv[2]])' "$1" "$2"
}
status=0
for w in infer-n1 infer-n8 calibrate; do
    clean=$(run "$w")
    planted=$(run "$w" --plant-fault)
    echo "$w: clean failed=$(field "$clean" failed)/$(field "$clean" attempted)," \
        "planted failed=$(field "$planted" failed)/$(field "$planted" attempted)"
    if [[ $(field "$clean" failed) != 0 || $(field "$clean" correct) != True ]]; then
        echo "  FAIL: clean run reported failures"; status=1
    fi
    if [[ $(field "$planted" failed) == 0 || $(field "$planted" correct) != False ]]; then
        echo "  FAIL: planted fault went unnoticed"; status=1
    fi
done
exit $status
