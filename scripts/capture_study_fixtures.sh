#!/usr/bin/env bash
# Recapture the per-study golden fixtures in tests/golden/studies/:
# for each study bench, its --quick stdout tables (<bench>.txt) and
# the result store its last study leaves behind (<bench>.jsonl).
# The study_fixture_* ctests compare fresh runs against these.
#
# Run only after a deliberate change to simulated timing, from a
# freshly built tree:
#
#   scripts/capture_study_fixtures.sh [BUILD_DIR]   (default: build)

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
out="$root/tests/golden/studies"
mkdir -p "$out"

for bench in fig_net_scaling fig_mem_scaling fig_consistency fig_tm \
             fig_sec; do
    "$build/bench/$bench" --quick --results="$out/$bench.jsonl" \
        > "$out/$bench.txt"
    echo "captured $bench"
done
