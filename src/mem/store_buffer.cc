#include "store_buffer.hh"

#include "mem/scc.hh"
#include "sim/logging.hh"

namespace scmp
{

StoreBufferStats::StoreBufferStats(stats::Group *parent)
    : group(parent, "storebuf"),
      storesBuffered(&group, "storesBuffered",
                     "stores retired into a store buffer"),
      storesDrained(&group, "storesDrained",
                    "buffered stores drained onto a cache"),
      loadsForwarded(&group, "loadsForwarded",
                     "loads served by store-buffer read bypass"),
      fences(&group, "fences", "full fences executed"),
      drainStallCycles(&group, "drainStallCycles",
                       "cycles stalled on a full store buffer"),
      fenceWaitCycles(&group, "fenceWaitCycles",
                      "cycles spent waiting for fence drains")
{
}

StoreBuffer::StoreBuffer(SharedClusterCache *cache, int localCpu,
                         int cacheIdx, CpuId cpu, int capacity,
                         StoreBufferStats *stats)
    : _cache(cache), _localCpu(localCpu), _cacheIdx(cacheIdx),
      _cpu(cpu), _capacity(capacity), _stats(stats)
{
    panic_if(!cache, "store buffer needs a cache to drain into");
    panic_if(capacity <= 0,
             "store buffer capacity must be positive");
    panic_if(!stats, "store buffer needs the shared stats block");
}

Cycle
StoreBuffer::drainHead(Cycle floor)
{
    Entry entry = _fifo.front();
    _fifo.pop_front();
    Cycle start = std::max(entry.ready, floor);
    if (_observer)
        _observer->onStoreDrainStart(_cpu, _cacheIdx, entry.addr,
                                     entry.seq);
    Cycle done = _cache->access(_localCpu, RefType::Write,
                                entry.addr, start);
    if (_observer)
        _observer->onStoreDrainEnd(_cpu, _cacheIdx, entry.addr);
    _drainFree = std::max(_drainFree, done);
    ++_stats->storesDrained;
    return start;
}

void
StoreBuffer::drainDue(Cycle now)
{
    // Lazy background drain: one transaction in flight at a time
    // (`_drainFree` serializes the issue slots), preserving the
    // processor's own store order on the interconnect while keeping
    // drains off the busy periods the processor itself creates.
    while (!_fifo.empty() &&
           std::max(_fifo.front().ready, _drainFree) <= now) {
        drainHead(_drainFree);
    }
}

Cycle
StoreBuffer::store(Addr addr, Cycle now)
{
    drainDue(now);
    // Under pressure the buffer streams: a full FIFO stalls the
    // processor only until the head transaction is handed to the
    // interconnect — an issued-but-in-flight store occupies the
    // fabric's queues, not a buffer slot. The fabrics serialize the
    // overlapping requests through their own arbitration.
    Cycle retire = now;
    while ((int)_fifo.size() >= _capacity)
        retire = std::max(retire, drainHead(retire) + 1);
    if (retire > now)
        _stats->drainStallCycles += retire - now;
    std::uint64_t seq =
        _observer ? _observer->onStoreBuffered(_cpu, _cacheIdx, addr)
                  : 0;
    _fifo.push_back({addr, retire, seq});
    ++_stats->storesBuffered;
    return retire;
}

bool
StoreBuffer::forward(Addr addr, Cycle now)
{
    if (_fifo.empty())
        return false;
    // Word granularity matches the oracle's: a load forwards only
    // from a pending store to the SAME 8-byte word; partial overlap
    // within a line still goes to the cache.
    const Addr word = addr & ~(Addr)7;
    for (auto it = _fifo.rbegin(); it != _fifo.rend(); ++it) {
        if ((it->addr & ~(Addr)7) != word)
            continue;
        if (_observer)
            _observer->onLoadForwarded(_cpu, addr);
        ++_stats->loadsForwarded;
        (void)now;
        return true;
    }
    return false;
}

Cycle
StoreBuffer::fence(Cycle now)
{
#ifndef SCMP_CONSISTENCY_MUTATION
    // Flush everything, in order but streamed: unlike the lazy
    // background drain, a fence pushes the whole buffer onto the
    // interconnect back-to-back and completes when the last
    // transaction does. A flush of K stores costs roughly one
    // latency plus K transfer occupancies instead of K full
    // latencies. Commit order is still the issue order, so the
    // oracle's FIFO rule holds.
    while (!_fifo.empty())
        drainHead(now);
#else
    // Deliberately broken fence for the oracle teeth test
    // (tests/consistency_mutation_death.cpp): retire the fence
    // without draining. The checker's onFence must kill the run.
#endif
    if (_observer)
        _observer->onFence(_cpu);
    ++_stats->fences;
    Cycle done = std::max(now, _drainFree);
    _stats->fenceWaitCycles += done - now;
    return done;
}

} // namespace scmp
