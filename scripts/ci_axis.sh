#!/usr/bin/env bash
# One leg of the CI `axes` matrix: build the ASan/UBSan tree and
# exercise one non-default machine axis under the coherence checker.
#
#   scripts/ci_axis.sh <axis> <value>
#
#   net          split | tree             interconnect fabric
#   dram         fcfs | frfcfs            banked-DRAM scheduler
#   consistency  invalidate | update      weak ordering, per protocol
#   tm           eager | lazy             TM conflict manager
#   sec          waypart | color | rand   isolation mode
#   fuzz         matrix                   the full fixed-seed fuzz
#                                         matrix (every axis's pass)
#
# Each leg runs its directed tests, mutation death test and checked
# smoke where the axis has them, then fuzzes the axis value over
# seeds (and fabrics) with the checker attached — every seed must
# come back with zero violations. The argument-free
# check_fuzz_smoke is identical for every value, so it is its own
# leg (fuzz matrix) rather than part of each one.
#
# BUILD_DIR (default build-asan) selects the sanitizer build tree;
# CMake reads its generator from CMAKE_GENERATOR (CI sets Ninja).

set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <axis> <value>" >&2
    exit 2
fi
axis=$1
value=$2
build=${BUILD_DIR:-build-asan}
cd "$(dirname "$0")/.."

build_asan() {
    cmake -B "$build" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
    cmake --build "$build" -j "$(nproc)" --target "$@"
}

scmp="$build/examples/scmp"

# Fuzz one axis setting under the checker over four seeds x every
# fabric; the args are the axis's own flags.
fuzz_fabrics() {
    for seed in 1 2 3 4; do
        for net in atomic split tree; do
            "$scmp" fuzz --check "$@" \
                --net="$net" --clusters=4 --segments=2 \
                --seed="$seed" --fuzz-steps=20000
        done
    done
}

case $axis/$value in
  net/split | net/tree)
    # The tree's snoop filter and the split bus's two-channel
    # queuing are exactly where a directory bit or an occupancy
    # counter goes wrong silently.
    build_asan scmp
    for seed in 1 2 3 4; do
        "$scmp" fuzz --check \
            --net="$value" --clusters=4 --segments=2 \
            --seed="$seed" --fuzz-steps=20000
        if [ "$value" = tree ]; then
            # One- and four-entry directories evict on nearly every
            # new line, so the flat directory's eviction and
            # slot-reuse paths run at maximum churn.
            for cap in 1 4; do
                "$scmp" fuzz --check \
                    --net=tree --clusters=4 --segments=2 \
                    --sf-cap="$cap" --seed="$seed" --fuzz-steps=20000
            done
        fi
    done
    ;;
  dram/fcfs | dram/frfcfs)
    # Queued fills reorder miss completion; on the tree every fill
    # crosses NUMA segment memories while a deliberately tiny snoop
    # filter forces eviction back-invalidations (the bounded
    # directory panics if it ever exceeds its capacity).
    build_asan scmp
    for seed in 1 2 3 4; do
        "$scmp" fuzz --check \
            --mem=banked --channels=2 --mem-banks=2 \
            --mem-sched="$value" \
            --seed="$seed" --fuzz-steps=20000
        "$scmp" fuzz --check \
            --net=tree --clusters=4 --segments=2 \
            --mem=banked --mem-sched="$value" \
            --sf-cap=32 --seed="$seed" --fuzz-steps=20000
    done
    ;;
  consistency/invalidate | consistency/update)
    # Store buffers reorder commit against retirement, read bypass
    # serves loads out of the buffer, and fences must drain: the
    # litmus suite pins the semantics, fenced fuzzing checks them.
    build_asan scmp test_litmus
    "$build/tests/test_litmus"
    fuzz_fabrics --consistency=weak --sb-entries=4 \
        --protocol="$value"
    ;;
  tm/eager | tm/lazy)
    # Speculative sets, commit-time publication, engine-unwound
    # aborts and the fallback lock fail as a silently lost or
    # doubled update; a two-entry set forces capacity aborts.
    build_asan scmp test_tm tm_mutation_death
    "$build/tests/test_tm"
    "$build/tests/tm_mutation_death"
    fuzz_fabrics --tm="$value" --tm-set-entries=2
    ;;
  sec/waypart | sec/color | sec/rand)
    # Every fill goes through new placement arithmetic, and the
    # failure mode is a line quietly resident where another domain
    # can see it.
    build_asan scmp test_sec sec_mutation_death
    "$build/tests/test_sec"
    "$build/tests/sec_mutation_death"
    "$scmp" secpp --sec-epochs=16 \
        --assoc=4 --isolation="$value" \
        --isolation-domains=2 --rekey-fills=256 --check
    fuzz_fabrics --isolation="$value" \
        --isolation-domains=2 --assoc=4 --rekey-fills=256
    ;;
  fuzz/matrix)
    build_asan check_fuzz_smoke
    "$build/tests/check_fuzz_smoke"
    ;;
  *)
    echo "$0: unknown axis/value '$axis/$value'" >&2
    exit 2
    ;;
esac
