#!/usr/bin/env bash
# Recapture the bench golden fixtures:
#   tests/golden/studies/  for each study bench, its --quick stdout
#                          tables (<bench>.txt) and the result store
#                          its last study leaves behind (<bench>.jsonl)
#   tests/golden/benches/  the --quick stdout of every other bench
#                          except fig_twospeed (it prints host wall
#                          times), and of two example runs
# The study_fixture_* and bench_fixture_* ctests compare fresh runs
# against these.
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

out="$root/tests/golden/benches"
mkdir -p "$out"
for bench in fig2_barnes fig3_mp3d fig4_cholesky tab3_barnes_speedup \
             tab4_barnes_missrate tab5_load_latency tab6_single_chip \
             tab7_mcm tab_area_model fig5_multiprog \
             fig6_multiprog_speedup ablation_bus ablation_cache \
             ablation_engine ablation_organization ablation_protocol; do
    "$build/bench/$bench" --quick > "$out/$bench.txt"
    echo "captured $bench"
done
"$build/examples/design_space" mp3d --quick --sizes=8K,64K \
    --procs=1,2 > "$out/design_space.txt"
echo "captured design_space"
"$build/examples/compute_server" --procs=1,2 --scc=32K,128K \
    --requests=2000 --model=hybrid --topk=2 --csv \
    > "$out/compute_server.txt"
echo "captured compute_server"
