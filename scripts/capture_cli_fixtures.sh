#!/usr/bin/env bash
# Recapture the scmp command-line fixtures in tests/golden/cli/:
# the `scmp --list` text (list.txt) and the --csv output of every
# run tests/cli_fixture.cmake lists (runs.txt). The cli_fixture
# ctest compares fresh runs against these.
#
# Run only after a deliberate change to the CLI's output or to
# simulated timing, from a freshly built tree:
#
#   scripts/capture_cli_fixtures.sh [BUILD_DIR]   (default: build)

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
out="$root/tests/golden/cli"
mkdir -p "$out"

cmake -DSCMP="$build/examples/scmp" -DGOLDEN="$out" \
    -DOUT="$build/tests/cli" -DCAPTURE=ON \
    -P "$root/tests/cli_fixture.cmake"
echo "captured $out/list.txt and $out/runs.txt"
