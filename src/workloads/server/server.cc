#include "server.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/parallel_run.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace scmp::server
{

ServerWorkload::ServerWorkload(ServerParams params)
    : _params(params)
{
    panic_if(_params.requests == 0, "server needs requests");
    panic_if(_params.offeredLoad <= 0,
             "server offered load must be positive");
    panic_if(_params.nominalService == 0,
             "server nominal service time must be non-zero");
    panic_if(_params.arrival == ArrivalMode::Closed &&
                 _params.thinkTime == 0,
             "server closed-loop think time must be non-zero");
}

std::string
ServerWorkload::name() const
{
    // The store key is config x name x scale, so everything that
    // changes the input stream must be in the name.
    char buf[80];
    if (_params.arrival == ArrivalMode::Closed) {
        // Closed loop ignores offeredLoad; the think time is what
        // shapes its stream.
        std::snprintf(buf, sizeof(buf),
                      "server-closed-t%llu-r%llu",
                      (unsigned long long)_params.thinkTime,
                      (unsigned long long)_params.requests);
    } else {
        std::snprintf(buf, sizeof(buf), "server-l%.2f-r%llu",
                      _params.offeredLoad,
                      (unsigned long long)_params.requests);
    }
    return buf;
}

void
ServerWorkload::setup(Arena &arena, const Topology &topo)
{
    int cpus = topo.totalCpus();
    Rng rng(_params.seed);

    arena.alignTo(4096);
    _board = arena.alloc<Shared<std::uint32_t>>(
        (int)RequestClass::NumClasses);

    _shards.assign(cpus, Shard{});
    _latencies.assign(cpus, {});
    std::vector<std::int32_t> perm(heapNodes);
    for (int p = 0; p < cpus; ++p) {
        Shard &shard = _shards[p];
        arena.alignTo(4096);
        shard.table = arena.alloc<Shared<std::uint32_t>>(tableSize);
        shard.hashHead =
            arena.alloc<Shared<std::int32_t>>(hashSize);
        shard.hashNext =
            arena.alloc<Shared<std::int32_t>>(windowSize);
        shard.cover = arena.alloc<Shared<std::uint32_t>>(coverWords);
        shard.heap = arena.alloc<Shared<std::int32_t>>(heapNodes);

        std::uint32_t key = 0;
        for (int i = 0; i < tableSize; ++i) {
            key += 1 + (std::uint32_t)rng.range(13);
            shard.table[i].raw() = key;
        }
        for (int i = 0; i < hashSize; ++i)
            shard.hashHead[i].raw() = -1;
        for (int i = 0; i < windowSize; ++i)
            shard.hashNext[i].raw() = -1;
        for (int i = 0; i < coverWords; ++i)
            shard.cover[i].raw() = (std::uint32_t)rng.next();
        // Sattolo shuffle: the heap links form one full cycle, so
        // a chase of any length stays on the shard and never
        // short-circuits in a small loop.
        std::iota(perm.begin(), perm.end(), 0);
        for (int i = heapNodes - 1; i > 0; --i)
            std::swap(perm[i], perm[rng.range((std::uint64_t)i)]);
        for (int i = 0; i < heapNodes; ++i)
            shard.heap[i].raw() = perm[i];

        _latencies[p].reserve(_params.requests / cpus + 1);
    }
}

void
ServerWorkload::serve(ThreadCtx &ctx, Shard &shard,
                      RequestClass cls, Rng &rng)
{
    switch (cls) {
      case RequestClass::Lookup: {
        // eqntott flavour: binary search in the shard's sorted
        // table, then touch the found row.
        std::uint32_t key =
            (std::uint32_t)rng.range(tableSize * 7);
        int lo = 0, hi = tableSize - 1;
        while (lo < hi) {
            int mid = (lo + hi) / 2;
            if (shard.table[mid].ld(ctx) < key)
                lo = mid + 1;
            else
                hi = mid;
        }
        (void)shard.table[lo].ld(ctx);
        ctx.work(18);
        break;
      }
      case RequestClass::Compress: {
        // compress flavour: two hash-chain dictionary inserts with
        // a bounded chain walk, overwriting the oldest window slot.
        for (int round = 0; round < 2; ++round) {
            std::uint32_t h =
                (std::uint32_t)rng.range(hashSize);
            std::int32_t head = shard.hashHead[h].ld(ctx);
            std::int32_t node = head;
            for (int depth = 0; node >= 0 && depth < 3; ++depth)
                node = shard.hashNext[node & (windowSize - 1)]
                           .ld(ctx);
            std::uint32_t slot =
                shard.cursor++ & (windowSize - 1);
            shard.hashNext[slot].st(ctx, head);
            shard.hashHead[h].st(ctx, (std::int32_t)slot);
        }
        ctx.work(20);
        break;
      }
      case RequestClass::Logic: {
        // espresso flavour: AND a 16-word stretch of the cover and
        // write back a summary word.
        std::uint32_t start =
            (std::uint32_t)rng.range(coverWords - 16);
        std::uint32_t acc = ~0u;
        for (int i = 0; i < 16; ++i)
            acc &= shard.cover[start + i].ld(ctx);
        shard.cover[start].st(ctx, acc | 1u);
        ctx.work(18);
        break;
      }
      case RequestClass::Gc:
      default: {
        // xlisp flavour: chase the heap's link cycle, then rewrite
        // the final link (a mark that preserves the cycle).
        std::int32_t node =
            (std::int32_t)rng.range(heapNodes);
        for (int hop = 0; hop < 24; ++hop)
            node = shard.heap[node].ld(ctx) & (heapNodes - 1);
        std::int32_t link = shard.heap[node].ld(ctx);
        shard.heap[node].st(ctx, link);
        ctx.work(14);
        break;
      }
    }
}

void
ServerWorkload::threadMain(ThreadCtx &ctx, int tid,
                           const Topology &topo)
{
    int cpus = topo.totalCpus();
    Shard &shard = _shards[tid];
    std::vector<Cycle> &latencies = _latencies[tid];

    // Per-processor arrivals. Open loop: Poisson at rate
    // offeredLoad / nominalService — the next arrival is
    // independent of when the previous request finished, so under
    // overload the queue (and the measured latency) grows. Closed
    // loop: one client per processor that thinks for an
    // exponential time AFTER its previous request completes, so
    // in-flight work is bounded by the population and latency
    // self-limits.
    Rng rng(_params.seed ^
            (0x9e3779b97f4a7c15ull * (std::uint64_t)(tid + 1)));
    const bool closed = _params.arrival == ArrivalMode::Closed;
    double rate =
        closed ? 1.0 / (double)_params.thinkTime
               : _params.offeredLoad / (double)_params.nominalService;
    Cycle arrival = 0;
    for (std::uint64_t r = tid; r < _params.requests;
         r += (std::uint64_t)cpus) {
        Cycle gap = (Cycle)std::max<std::int64_t>(
            1, (std::int64_t)std::llround(rng.exponential(rate)));
        arrival = closed ? ctx.now() + gap : arrival + gap;
        ctx.idleUntil(arrival);

        std::uint64_t pick = rng.range(100);
        RequestClass cls = pick < 35   ? RequestClass::Lookup
                           : pick < 65 ? RequestClass::Compress
                           : pick < 85 ? RequestClass::Logic
                                       : RequestClass::Gc;
        serve(ctx, shard, cls, rng);
        // Shared statistics board: unlocked read-modify-write,
        // like MP3D's cell counters — the deliberate true-sharing
        // hotspot of the scenario.
        _board[(int)cls].rmw(
            ctx, [](std::uint32_t v) { return v + 1; });

        latencies.push_back(ctx.now() - arrival);
    }
}

std::uint64_t
ServerWorkload::completed() const
{
    std::uint64_t total = 0;
    for (const auto &thread : _latencies)
        total += thread.size();
    return total;
}

bool
ServerWorkload::verify()
{
    return completed() == _params.requests;
}

namespace
{

/** Nearest-rank percentile of a sorted sample. */
double
percentile(const std::vector<Cycle> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    double rank = q * (double)sorted.size();
    std::size_t index = rank <= 1.0
                            ? 0
                            : (std::size_t)std::ceil(rank) - 1;
    index = std::min(index, sorted.size() - 1);
    return (double)sorted[index];
}

} // namespace

void
ServerWorkload::annotate(RunResult &result) const
{
    std::vector<Cycle> all;
    all.reserve(completed());
    for (const auto &thread : _latencies)
        all.insert(all.end(), thread.begin(), thread.end());
    if (all.empty())
        return;
    std::sort(all.begin(), all.end());

    result.requests = all.size();
    result.latencyP50 = percentile(all, 0.50);
    result.latencyP95 = percentile(all, 0.95);
    result.latencyP99 = percentile(all, 0.99);
    result.throughput =
        result.cycles > 0
            ? (double)all.size() / ((double)result.cycles / 1000.0)
            : 0;
}

} // namespace scmp::server
