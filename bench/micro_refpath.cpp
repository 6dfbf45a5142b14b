/**
 * @file
 * Microbenchmarks of the reference fast path introduced by the
 * hot-path overhaul, one per optimization layer: the same-line
 * filter hit against the plain hit path, the MRU tag probe, the
 * flat MSHR table against its workload, Scalar increments, and a
 * small engine+machine stream that exercises all of them together.
 * Companion to micro_primitives (which benches the primitives the
 * fast path is built from); scmpbench/ measures the end-to-end
 * workloads.
 */

#include <benchmark/benchmark.h>

#include "core/machine.hh"
#include "exec/arena.hh"
#include "exec/engine.hh"
#include "mem/mshr_table.hh"
#include "mem/scc.hh"
#include "mem/tag_array.hh"
#include "net/atomic_bus.hh"
#include "sim/stats.hh"

namespace
{

using namespace scmp;

/** A warmed SCC hammered on one resident line — the filter's best
 *  case (and, with fastPath off, the plain hit path's). */
void
BM_SccSameLineHit(benchmark::State &state)
{
    SccParams params;
    params.fastPath = state.range(0) != 0;
    stats::Group root("bench");
    AtomicBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 2, params, &bus);
    bus.attach(&scc);
    scc.access(0, RefType::Read, 0x1000, 0);
    Cycle now = 200;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scc.access(0, RefType::Read, 0x1000, now));
        now += 2;
    }
    state.SetLabel(params.fastPath ? "fastPath" : "plain");
}
BENCHMARK(BM_SccSameLineHit)->Arg(0)->Arg(1);

/** Ping-pong between a few hot lines — the multi-entry filter's
 *  reason to exist; one entry would thrash. */
void
BM_SccAlternatingLineHits(benchmark::State &state)
{
    SccParams params;
    params.fastPath = state.range(0) != 0;
    stats::Group root("bench");
    AtomicBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 2, params, &bus);
    bus.attach(&scc);
    const Addr lines[3] = {0x1000, 0x2000, 0x3000};
    Cycle now = 0;
    for (Addr a : lines)
        now = scc.access(0, RefType::Read, a, now) + 10;
    int i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scc.access(0, RefType::Read, lines[i], now));
        i = (i + 1) % 3;
        now += 2;
    }
    state.SetLabel(params.fastPath ? "fastPath" : "plain");
}
BENCHMARK(BM_SccAlternatingLineHits)->Arg(0)->Arg(1);

/** Repeat writes to a Modified line — the write-filter case. */
void
BM_SccWriteModifiedHit(benchmark::State &state)
{
    stats::Group root("bench");
    AtomicBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 2, SccParams{}, &bus);
    bus.attach(&scc);
    scc.access(0, RefType::Write, 0x1000, 0);
    Cycle now = 200;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scc.access(0, RefType::Write, 0x1000, now));
        now += 2;
    }
}
BENCHMARK(BM_SccWriteModifiedHit);

/** The MSHR table under its real workload: allocate on miss, look
 *  up a few times while in flight, then retire. */
void
BM_MshrChurn(benchmark::State &state)
{
    MshrTable table;
    Addr addr = 0x1000;
    for (auto _ : state) {
        table.set(addr, 100);
        benchmark::DoNotOptimize(table.find(addr));
        benchmark::DoNotOptimize(table.find(addr + 0x40));
        table.erase(addr);
        addr += 0x40;
    }
}
BENCHMARK(BM_MshrChurn);

/** Repeat probe of one line — the MRU hint's target pattern. */
void
BM_TagProbeMruHit(benchmark::State &state)
{
    TagArray tags(64 << 10, 16, 4);
    for (Addr addr = 0; addr < (64 << 10); addr += 16)
        tags.fill(tags.victim(addr), addr, CoherenceState::Shared);
    for (auto _ : state)
        benchmark::DoNotOptimize(tags.probe(0x1230));
}
BENCHMARK(BM_TagProbeMruHit);

/** A statistics increment — pure integer add since the overhaul. */
void
BM_ScalarIncrement(benchmark::State &state)
{
    stats::Group root("bench");
    stats::Scalar counter(&root, "counter", "bench counter");
    for (auto _ : state) {
        ++counter;
        counter += 3;
    }
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ScalarIncrement);

/** Everything together: fibers dispatching through the engine into
 *  a real machine, mostly same-line hits. */
void
BM_MachineRefStream(benchmark::State &state)
{
    for (auto _ : state) {
        MachineConfig config;
        config.numClusters = 2;
        config.cpusPerCluster = 2;
        config.arenaBytes = 1 << 20;
        Machine machine(config);
        Arena arena(1 << 16);
        Engine engine(&machine, &arena, EngineOptions{});
        auto *data = arena.alloc<Shared<std::uint64_t>>(64);
        for (CpuId cpu = 0; cpu < 4; ++cpu) {
            engine.spawn(cpu, [data, cpu](ThreadCtx &ctx) {
                for (int i = 0; i < 4096; ++i)
                    data[(cpu * 8 + i % 8) % 64].ld(ctx);
            });
        }
        engine.run();
        benchmark::DoNotOptimize(engine.totalRefs());
    }
    state.SetItemsProcessed((std::int64_t)state.iterations() *
                            4 * 4096);
}
BENCHMARK(BM_MachineRefStream);

} // namespace

BENCHMARK_MAIN();
