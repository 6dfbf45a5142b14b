/**
 * @file
 * Writing your own workload against the scmp public API.
 *
 * This example implements a small parallel histogram/reduction
 * kernel from scratch — the kind of code you would write to study
 * a new sharing pattern on the shared-cluster-cache machine — and
 * sweeps it over two cluster organizations. It demonstrates:
 *
 *   - allocating simulated shared data from the Arena,
 *   - instrumented accesses via Shared<T>,
 *   - ANL-style synchronization (locks, barriers, self-scheduling),
 *   - cluster-topology-aware partitioning,
 *   - post-run verification and metric extraction.
 *
 * Usage:
 *   custom_workload [--items=N] [--buckets=N]
 */

#include <cstdio>
#include <deque>
#include <optional>
#include <vector>

#include "core/parallel_run.hh"
#include "sim/config.hh"
#include "sim/rng.hh"

namespace
{

using namespace scmp;

/**
 * Parallel histogram: threads self-schedule chunks of a shared
 * input array and accumulate into per-cluster partial histograms
 * (low coherence traffic), then thread 0 reduces the partials —
 * a classic shared-memory pattern.
 */
class Histogram : public ParallelWorkload
{
  public:
    Histogram(int items, int buckets)
        : _numItems(items), _numBuckets(buckets)
    {
    }

    std::string name() const override { return "histogram"; }

    void
    setup(Arena &arena, const Topology &topo) override
    {
        _topo = topo;
        _input = arena.alloc<Shared<std::uint32_t>>(
            (std::size_t)_numItems);
        _partials = arena.alloc<Shared<std::uint32_t>>(
            (std::size_t)topo.totalCpus() * _numBuckets);
        _result = arena.alloc<Shared<std::uint32_t>>(
            (std::size_t)_numBuckets);

        Rng rng(2026);
        for (int i = 0; i < _numItems; ++i) {
            _input[i].raw() =
                (std::uint32_t)rng.range((std::uint64_t)
                                             _numBuckets);
        }
        _barrier.emplace(arena, topo.totalCpus());
        _counter.emplace(arena, _numItems);
    }

    void
    threadMain(ThreadCtx &ctx, int tid,
               const Topology &topo) override
    {
        auto *mine = _partials + (std::size_t)tid * _numBuckets;

        // Phase 1: self-scheduled chunks into lock-free
        // per-thread partials. Cluster-mates' partials share SCC
        // lines, so intra-cluster sharing stays cheap while there
        // is no inter-cluster write traffic at all.
        constexpr int chunk = 64;
        for (;;) {
            std::int64_t first = _counter->nextChunk(ctx, chunk);
            if (first < 0)
                break;
            std::int64_t last = std::min<std::int64_t>(
                first + chunk, _numItems);
            for (std::int64_t i = first; i < last; ++i) {
                std::uint32_t bucket = _input[i].ld(ctx);
                mine[bucket].rmw(ctx, [](std::uint32_t v) {
                    return v + 1;
                });
                ctx.work(3);
            }
        }
        ctx.barrier(*_barrier);

        // Phase 2: buckets are striped over the threads; each
        // thread reduces its buckets across every partial.
        int n = topo.totalCpus();
        for (int b = _numBuckets * tid / n;
             b < _numBuckets * (tid + 1) / n; ++b) {
            std::uint32_t sum = 0;
            for (int t = 0; t < n; ++t)
                sum += _partials[t * _numBuckets + b].ld(ctx);
            _result[b].st(ctx, sum);
            ctx.work(4);
        }
        ctx.barrier(*_barrier);
    }

    bool
    verify() override
    {
        // Host-side recount must match the simulated result.
        std::vector<std::uint32_t> expect(
            (std::size_t)_numBuckets, 0);
        for (int i = 0; i < _numItems; ++i)
            ++expect[_input[i].raw()];
        for (int b = 0; b < _numBuckets; ++b) {
            if (_result[b].raw() != expect[(std::size_t)b])
                return false;
        }
        return true;
    }

  private:
    int _numItems;
    int _numBuckets;
    Topology _topo;
    Shared<std::uint32_t> *_input = nullptr;
    Shared<std::uint32_t> *_partials = nullptr;
    Shared<std::uint32_t> *_result = nullptr;
    std::optional<SimBarrier> _barrier;
    std::optional<TaskCounter> _counter;
};

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    int items = config.getIntAs<int>("items", 100000);
    int buckets = config.getIntAs<int>("buckets", 256);
    config.rejectUnread();

    std::printf("%-22s %12s %10s %12s %8s\n", "configuration",
                "cycles", "rd-miss", "invalidations", "ok");
    for (int procs : {1, 2, 4, 8}) {
        Histogram workload(items, buckets);
        MachineConfig machine;
        machine.cpusPerCluster = procs;
        machine.scc.sizeBytes = 64 << 10;
        auto result = runParallel(machine, workload);
        std::printf("4 clusters x %d procs   %12llu %9.2f%% %12llu %8s\n",
                    procs, (unsigned long long)result.cycles,
                    100.0 * result.readMissRate,
                    (unsigned long long)result.invalidations,
                    result.verified ? "yes" : "NO");
        if (!result.verified)
            return 1;
    }
    return 0;
}
