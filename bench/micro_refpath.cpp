/**
 * @file
 * Microbenchmarks of the reference path, one per layer: SCC hits on
 * a few hot lines, the write hit on a Modified line, MSHR fills,
 * merges and retirements through an SCC, the tag probe, Scalar
 * increments, and a small engine+machine stream that exercises all
 * of them together. Companion to micro_primitives (which benches
 * the primitives the path is built from); scmpbench/ measures the
 * end-to-end workloads and reads several of these by name.
 */

#include <benchmark/benchmark.h>

#include "core/machine.hh"
#include "exec/arena.hh"
#include "exec/engine.hh"
#include "mem/scc.hh"
#include "mem/tag_array.hh"
#include "net/atomic_bus.hh"
#include "sim/stats.hh"

namespace
{

using namespace scmp;

/** A warmed SCC read on state.range(0) resident lines in turn:
 *  one line is the repeat same-line hit, a few are the ping-pong
 *  between an object's fields, a stack slot and a lock word. */
void
BM_SccSameLineHit(benchmark::State &state)
{
    stats::Group root("bench");
    AtomicBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 2, SccParams{}, &bus);
    bus.attach(&scc);
    const Addr lines[3] = {0x1000, 0x2000, 0x3000};
    const int hot = (int)state.range(0);
    Cycle now = 0;
    for (int i = 0; i < hot; ++i)
        now = scc.access(0, RefType::Read, lines[i], now) + 10;
    int i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scc.access(0, RefType::Read, lines[i], now));
        if (++i == hot)
            i = 0;
        now += 2;
    }
}
BENCHMARK(BM_SccSameLineHit)->Arg(1)->Arg(3);

/** Repeat writes to a Modified line: a write hit with no bus op. */
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

/** An MSHR's whole life through an SCC: one port misses a new line
 *  (fill and MSHR allocated), the other port merges into the fill
 *  while it is in flight, and the first reference at the ready
 *  cycle retires it. Once the cache is full each miss also evicts.
 *  Three references and one bus transaction per iteration. */
void
BM_MshrChurn(benchmark::State &state)
{
    stats::Group root("bench");
    AtomicBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 2, SccParams{}, &bus);
    bus.attach(&scc);
    Addr addr = 0x1000;
    Cycle now = 0;
    for (auto _ : state) {
        Cycle ready = scc.access(0, RefType::Read, addr, now);
        benchmark::DoNotOptimize(
            scc.access(1, RefType::Read, addr, now + 1));
        benchmark::DoNotOptimize(
            scc.access(0, RefType::Read, addr, ready));
        addr += 16;
        now = ready + 1;
    }
}
BENCHMARK(BM_MshrChurn);

/** Repeat probe of one resident line in a full 4-way set (named
 *  for the pattern; scmpbench/run.py reads it by this name). */
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
