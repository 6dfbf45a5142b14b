/**
 * @file
 * Per-CPU store buffers — the weak-ordering half of the
 * `--consistency` axis.
 *
 * Under sequential consistency (the default, and the contract every
 * golden fixture pins) a processor stalls on every write until the
 * memory system has globally performed it. A store buffer breaks
 * that coupling: the write retires into a bounded per-CPU FIFO in
 * one cycle and drains onto the cache/interconnect lazily, off the
 * processor's critical path. Loads probe the FIFO youngest-first
 * and forward a pending value for their own word (read bypass);
 * everything else still goes to the cache.
 *
 * Ordering contract (weak ordering, Dubois/Scheurich/Briggs): the
 * FIFO preserves each processor's own program store order on the
 * interconnect, and a full fence — issued by the engine at the ANL
 * LOCK/UNLOCK/BARRIER entry points, the workloads' only
 * synchronization surface — drains the buffer completely before the
 * synchronization access issues. Between fences, stores from
 * different processors may become visible in any interleaving; the
 * order-tolerant oracle in src/check accepts exactly that latitude
 * and nothing more.
 *
 * Timing model: each drain is a normal write access through the
 * owning processor's SCC port — drains contend for banks and the
 * bus like any other reference, they are just asynchronous to the
 * processor. The background drain is lazy and serialized (one
 * transaction in flight, entries chained on `_drainFree`), runs
 * after the owner's loads — the processor has priority for its own
 * cache port — and is stamped with the cycle it would have issued
 * at; the fabrics already order concurrent requesters by
 * `max(now, nextFree)`, so a drain carrying an older timestamp than
 * a reference another processor already issued is serviced exactly
 * like any out-of-order arrival from the engine-free fuzz driver.
 * Under pressure the buffer streams instead: a fence, or a store
 * arriving at a full FIFO, pushes entries onto the interconnect
 * back-to-back and lets the fabric arbitration serialize them, so
 * a flush costs one latency plus K transfer occupancies rather
 * than K full latencies.
 */

#ifndef SCMP_MEM_STORE_BUFFER_HH
#define SCMP_MEM_STORE_BUFFER_HH

#include <cstdint>
#include <deque>
#include <string>

#include "mem/coherence_observer.hh"
#include "sim/names.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace scmp
{

class SharedClusterCache;

/** Memory consistency model — one axis of the design space. */
enum class ConsistencyModel : std::uint8_t
{
    /** Sequential consistency: every store stalls (the default). */
    Sc,
    /** Weak ordering: buffered stores, fences at sync points. */
    Weak,
};

inline std::span<const NameRow<ConsistencyModel>>
nameTable(ConsistencyModel)
{
    static constexpr NameRow<ConsistencyModel> names[] = {
        {"sc", ConsistencyModel::Sc,
         "sequential consistency: every store stalls (the paper's, "
         "default)"},
        {"weak", ConsistencyModel::Weak,
         "weak ordering: per-CPU store buffers (--sb-entries=N), "
         "fences at\nthe ANL lock/unlock/barrier points"},
    };
    return names;
}

/** Consistency selection. Dead under Sc (see core/design_fields.hh). */
struct ConsistencyParams
{
    ConsistencyModel model = ConsistencyModel::Sc;

    /** Weak only: store-buffer entries per processor. */
    int storeBufferEntries = 8;
};

/** Machine-wide store-buffer statistics (shared by all buffers). */
struct StoreBufferStats
{
    explicit StoreBufferStats(stats::Group *parent);

    stats::Group group;
    stats::Scalar storesBuffered;   //!< stores retired into a FIFO
    stats::Scalar storesDrained;    //!< drains performed on a cache
    stats::Scalar loadsForwarded;   //!< loads served by read bypass
    stats::Scalar fences;           //!< full fences executed
    stats::Scalar drainStallCycles; //!< CPU cycles stalled on full
    stats::Scalar fenceWaitCycles;  //!< CPU cycles waiting at fences
};

/**
 * One processor's bounded FIFO store buffer. Owned by the Machine
 * (one per CPU under --consistency=weak); never constructed under
 * sequential consistency, so the default configuration carries no
 * buffer state at all.
 */
class StoreBuffer
{
  public:
    /**
     * @param cache    The cache the buffer drains into.
     * @param localCpu The owner's port index on that cache.
     * @param cacheIdx The cache's bus index (observer identity).
     * @param cpu      The owning processor (observer identity).
     * @param capacity FIFO entries; full forces a drain stall.
     * @param stats    Machine-wide counters (shared, never null).
     */
    StoreBuffer(SharedClusterCache *cache, int localCpu,
                int cacheIdx, CpuId cpu, int capacity,
                StoreBufferStats *stats);

    /** Attach the correctness observer (null detaches). */
    void setObserver(CoherenceObserver *observer)
    {
        _observer = observer;
    }

    /**
     * Retire a store into the buffer.
     * @return the cycle the processor may continue — @p now unless
     *         a full buffer forced it to wait for the head drain.
     */
    Cycle store(Addr addr, Cycle now);

    /**
     * Read bypass: serve a load from the youngest pending store to
     * the same word, if any. Call drainDue() first.
     * @return true when forwarded (the load is complete at @p now).
     */
    bool forward(Addr addr, Cycle now);

    /** Drain every entry whose issue slot has passed @p now. */
    void drainDue(Cycle now);

    /**
     * Full fence: drain everything, in order.
     * @return the cycle the last drain completed (>= @p now).
     */
    Cycle fence(Cycle now);

    bool empty() const { return _fifo.empty(); }
    int occupancy() const { return (int)_fifo.size(); }
    int capacity() const { return _capacity; }

  private:
    /** A retired store awaiting its turn on the interconnect. */
    struct Entry
    {
        Addr addr;
        Cycle ready;       //!< earliest cycle the drain may issue
        std::uint64_t seq; //!< oracle write sequence (0 unchecked)
    };

    /**
     * Drain the head entry, issuing no earlier than @p floor (and
     * never before the entry retired); returns the issue cycle.
     * Completion is folded into `_drainFree`.
     */
    Cycle drainHead(Cycle floor);

    SharedClusterCache *_cache;
    int _localCpu;
    int _cacheIdx;
    CpuId _cpu;
    int _capacity;
    StoreBufferStats *_stats;
    CoherenceObserver *_observer = nullptr;

    std::deque<Entry> _fifo;
    /** Completion cycle of the most recent drain (serializer). */
    Cycle _drainFree = 0;
};

} // namespace scmp

#endif // SCMP_MEM_STORE_BUFFER_HH
