/**
 * @file
 * Google-benchmark microbenchmarks of the simulator primitives:
 * fiber context switches, engine dispatch, arena allocation,
 * tag-array lookups, SCC hit/miss paths, bus and tree-fabric
 * transactions, the RNG and the pipeline model. These bound the
 * simulator's refs/second throughput.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "cpu/pipeline.hh"
#include "exec/arena.hh"
#include "exec/engine.hh"
#include "exec/fiber.hh"
#include "mem/bus.hh"
#include "mem/scc.hh"
#include "mem/tag_array.hh"
#include "net/tree.hh"
#include "sim/rng.hh"

namespace
{

using namespace scmp;

void
BM_FiberSwitch(benchmark::State &state)
{
    std::uint64_t count = 0;
    Fiber fiber([&count] {
        for (;;) {
            ++count;
            Fiber::yieldToCaller();
        }
    });
    for (auto _ : state)
        fiber.resume();
    benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_FiberSwitch);

void
BM_ArenaAlloc(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Arena arena(1 << 20);
        state.ResumeTiming();
        for (int i = 0; i < 1000; ++i)
            benchmark::DoNotOptimize(arena.allocBytes(64));
    }
}
BENCHMARK(BM_ArenaAlloc);

void
BM_TagLookupHit(benchmark::State &state)
{
    TagArray tags(64 << 10, 16, 1);
    for (Addr addr = 0; addr < (64 << 10); addr += 16)
        tags.fill(tags.victim(addr), addr, CoherenceState::Shared);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tags.lookup(addr));
        addr = (addr + 16) & ((64 << 10) - 1);
    }
}
BENCHMARK(BM_TagLookupHit);

void
BM_SccHit(benchmark::State &state)
{
    stats::Group root("bench");
    SnoopyBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 2, SccParams{}, &bus);
    bus.attach(&scc);
    // Warm one line, then hit it forever.
    scc.access(0, RefType::Read, 0x1000, 0);
    Cycle now = 200;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scc.access(0, RefType::Read, 0x1000, now));
        now += 2;
    }
}
BENCHMARK(BM_SccHit);

void
BM_SccMissStream(benchmark::State &state)
{
    stats::Group root("bench");
    SnoopyBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 2, SccParams{}, &bus);
    bus.attach(&scc);
    Addr addr = 0;
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scc.access(0, RefType::Read, addr, now));
        addr += 16;  // every access a fresh line
        now += 2;
    }
}
BENCHMARK(BM_SccMissStream);

void
BM_BusTransaction(benchmark::State &state)
{
    stats::Group root("bench");
    SnoopyBus bus(&root, BusParams{});
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bus.transaction(0, BusOp::Read, now * 16, now));
        now += 4;
    }
}
BENCHMARK(BM_BusTransaction);

/** A snooper that never holds a line. */
class NullSnooper : public Snooper
{
  public:
    explicit NullSnooper(ClusterId id) : _id(id) {}
    SnoopResult snoop(BusOp, Addr, Cycle) override { return {}; }
    ClusterId snooperId() const override { return _id; }

  private:
    ClusterId _id;
};

void
BM_TreeTransaction(benchmark::State &state)
{
    // The fabric workload's tree: 8 caches in 4 segments, a
    // 512-entry snoop filter and banked NUMA memory. Lines are drawn
    // from a pool 4x the filter's bound, so most transactions install
    // a line and evict another.
    stats::Group root("bench");
    NetParams net;
    net.topology = NetTopology::Tree;
    net.segments = 4;
    net.snoopFilterCapacity = 512;
    DramParams dram;
    dram.kind = MemBackendKind::Banked;
    HierarchicalNet tree(&root, BusParams{}, net, 8, dram);
    std::vector<NullSnooper> caches;
    caches.reserve(8);
    for (int i = 0; i < 8; ++i)
        caches.emplace_back(i);
    for (auto &cache : caches)
        tree.attach(&cache);

    Rng rng(1);
    std::uint64_t count = 0;
    auto step = [&] {
        Addr line = rng.range(4 * 512) * 64;
        BusOp op = (count & 3) == 3 ? BusOp::ReadExcl : BusOp::Read;
        Cycle now = count * 4;
        return tree.transaction((ClusterId)(count++ & 7), op, line,
                                now);
    };
    // Fill the directory first: only the steady state is timed.
    for (int i = 0; i < 4 * 512; ++i)
        step();
    for (auto _ : state)
        benchmark::DoNotOptimize(step());
    state.SetItemsProcessed((std::int64_t)state.iterations());
}
BENCHMARK(BM_TreeTransaction);

/** Null memory: every access completes instantly. */
class NullMemory : public MemorySystem
{
  public:
    Cycle
    access(CpuId, RefType, Addr, Cycle now, std::uint32_t) override
    {
        return now;
    }
};

void
BM_EngineRefStream(benchmark::State &state)
{
    for (auto _ : state) {
        NullMemory memory;
        Arena arena(1 << 16);
        Engine engine(&memory, &arena, EngineOptions{});
        auto *data = arena.alloc<Shared<std::uint64_t>>(64);
        for (CpuId cpu = 0; cpu < 4; ++cpu) {
            engine.spawn(cpu, [data](ThreadCtx &ctx) {
                for (int i = 0; i < 4096; ++i)
                    data[i % 64].ld(ctx);
            });
        }
        engine.run();
        benchmark::DoNotOptimize(engine.totalRefs());
    }
    state.SetItemsProcessed((std::int64_t)state.iterations() *
                            4 * 4096);
}
BENCHMARK(BM_EngineRefStream);

void
BM_EngineDispatch(benchmark::State &state)
{
    // Equal-speed threads over a null memory: each reference puts
    // its thread a cycle ahead of the others, so every reference
    // dispatches another thread. Only Engine::run() is timed.
    const int threads = (int)state.range(0);
    const int refsPerThread = (1 << 17) / threads;
    double seconds = 0;
    for (auto _ : state) {
        NullMemory memory;
        Arena arena(1 << 16);
        Engine engine(&memory, &arena, EngineOptions{});
        auto *data = arena.alloc<Shared<std::uint64_t>>(64);
        for (CpuId cpu = 0; cpu < threads; ++cpu) {
            engine.spawn(cpu, [data, refsPerThread](ThreadCtx &ctx) {
                for (int i = 0; i < refsPerThread; ++i)
                    data[i % 64].ld(ctx);
            });
        }
        auto start = std::chrono::steady_clock::now();
        engine.run();
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        state.SetIterationTime(elapsed.count());
        seconds += elapsed.count();
        benchmark::DoNotOptimize(engine.totalRefs());
    }
    double refs = (double)state.iterations() * threads * refsPerThread;
    state.SetItemsProcessed((std::int64_t)refs);
    state.counters["ns_per_ref"] = seconds * 1e9 / refs;
}
BENCHMARK(BM_EngineDispatch)->Arg(4)->Arg(32)->UseManualTime();

void
BM_Rng(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Rng);

void
BM_PipelineModel(benchmark::State &state)
{
    InstrMix mix = InstrMix::barnes();
    Pipeline pipeline(PipelineParams{});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pipeline.run(mix, 100000, 7).cycles);
    }
    state.SetItemsProcessed((std::int64_t)state.iterations() *
                            100000);
}
BENCHMARK(BM_PipelineModel);

} // namespace

BENCHMARK_MAIN();
