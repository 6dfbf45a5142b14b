/**
 * @file
 * The Shared Cluster Cache (SCC) — the paper's central structure.
 *
 * A banked, multi-ported, non-blocking write-back data cache shared
 * by every processor in a cluster. Banks are interleaved on cache
 * lines; each processor has a dedicated port, so contention arises
 * only when two processors touch the same bank in the same cycle.
 * Outstanding misses are tracked in an MSHR file, so a second
 * processor referencing an in-flight line merges with the existing
 * miss instead of issuing a new bus transaction — the mechanism
 * behind the paper's inter-processor prefetching effect.
 */

#ifndef SCMP_MEM_SCC_HH
#define SCMP_MEM_SCC_HH

#include <vector>

#include "mem/cache_params.hh"
#include "mem/coherence_observer.hh"
#include "mem/mshr_table.hh"
#include "mem/tag_array.hh"
#include "net/interconnect.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace scmp
{

/** One cluster's shared data cache. */
class SharedClusterCache : public Snooper
{
  public:
    /**
     * @param parent   Statistics parent group.
     * @param cluster  This cluster's id (bus snoop identity).
     * @param numCpus  Processors sharing this cache.
     * @param params   Geometry/timing.
     * @param bus      The inter-cluster interconnect.
     */
    SharedClusterCache(stats::Group *parent, ClusterId cluster,
                       int numCpus, const SccParams &params,
                       Interconnect *bus);

    /**
     * Perform a data reference from a processor in this cluster.
     *
     * @param localCpu Processor index within the cluster.
     * @param type     Read or Write.
     * @param addr     Simulated byte address.
     * @param now      Issue cycle.
     * @return cycle at which the processor may continue.
     */
    Cycle access(int localCpu, RefType type, Addr addr, Cycle now);

    /// @name Snooper interface (called by the bus).
    /// @{
    SnoopResult snoop(BusOp op, Addr lineAddr, Cycle when) override;
    ClusterId snooperId() const override { return _cluster; }
    /// @}

    /**
     * Attach a correctness observer (src/check). The cache reports
     * its tag/state transitions to it; null detaches.
     */
    void setObserver(CoherenceObserver *observer)
    {
        _observer = observer;
    }

    /**
     * Attach an observability recorder (src/obs). Port references
     * and MSHR lifecycle events are reported when attached; the
     * reference fast path pays exactly one branch when not.
     */
    void setRecorder(obs::Recorder *recorder)
    {
        _recorder = recorder;
    }

    /** Coherence state of the line containing @p addr (tests). */
    CoherenceState stateOf(Addr addr) const;

    /** Bank index serving @p addr (tests: line interleaving). */
    BankId bankOf(Addr addr) const;

    int numBanks() const { return (int)_bankNextFree.size(); }
    const SccParams &params() const { return _params; }
    const TagArray &tags() const { return _tags; }

    /** Read miss rate so far (read misses / reads). */
    double readMissRate() const;

    /** Overall miss rate (all misses / all accesses). */
    double missRate() const;

  private:
    /** Handle a miss by @p domain; returns data-ready cycle. */
    Cycle handleMiss(RefType type, Addr lineAddr, Cycle now,
                     int domain);

    /**
     * Rand-isolation epoch turn: write back and drop every resident
     * line, clear the filters and MSHRs, and re-derive the tag
     * array's per-domain index keys. Deterministic — triggered by
     * fill counts, never by wall time.
     */
    void rekeyFlush(Cycle now);

    /**
     * One processor port's last-hit filter — the reference fast
     * path. Armed on a plain hit; a repeat reference to the same
     * line replays exactly the hit path's side effects (bank
     * arbitration, LRU touch, one stat increment) without the MSHR
     * probe or the tag walk.
     *
     * Validity is re-proven on every use rather than trusted:
     *   - fillEpoch must equal _fillEpoch. handleMiss() is the only
     *     place an MSHR entry is created or a tag moves (fill or
     *     eviction), and it bumps the epoch — so an epoch match
     *     means no MSHR entry can exist for the armed line and the
     *     armed CacheLine pointer still holds that line.
     *   - the live coherence state must still permit the hit: any
     *     valid state for a read, Modified for a write. Remote
     *     snoops that invalidate or demote the line are caught
     *     here (and flushFilters() clears matching filters
     *     outright when a snoop lands).
     */
    struct RefFilter
    {
        CacheLine *line = nullptr;
        Addr lineAddr = invalidAddr;
        std::size_t bank = 0;
        std::uint64_t fillEpoch = 0;
    };

    /**
     * Each port keeps a handful of armed lines, round-robin
     * replaced — workloads ping-pong between a few hot lines (an
     * object's fields, a stack slot, a lock word) and a single
     * entry would thrash. Entries are independent: each one's
     * validity is re-proven at use by the epoch + state checks.
     */
    struct FilterSet
    {
        static constexpr int entries = 4;
        RefFilter entry[entries];
        unsigned victim = 0;
    };

    /** Arm an entry of @p set after a plain hit on @p line. */
    void
    armFilter(FilterSet &set, CacheLine *line, Addr lineAddr)
    {
        RefFilter *slot = &set.entry[set.victim];
        for (RefFilter &f : set.entry) {
            if (f.lineAddr == lineAddr) {
                slot = &f;  // refresh in place, keep the others
                break;
            }
        }
        if (slot == &set.entry[set.victim])
            set.victim = (set.victim + 1) % FilterSet::entries;
        slot->line = line;
        slot->lineAddr = lineAddr;
        slot->bank = (std::size_t)bankOf(lineAddr);
        slot->fillEpoch = _fillEpoch;
    }

    /** Drop every filter armed on @p lineAddr (snoop landed). */
    void
    flushFilters(Addr lineAddr)
    {
        for (FilterSet &set : _filters) {
            for (RefFilter &f : set.entry) {
                if (f.lineAddr == lineAddr)
                    f = RefFilter{};
            }
        }
    }

    ClusterId _cluster;
    SccParams _params;
    Interconnect *_bus;
    CoherenceObserver *_observer = nullptr;
    obs::Recorder *_recorder = nullptr;
    TagArray _tags;
    std::vector<Cycle> _bankNextFree;

    /** In-flight fills: line address → completion cycle. */
    MshrTable _mshrs;

    /** Per-port reference filters (index = localCpu). */
    std::vector<FilterSet> _filters;

    /** Bumped by every handleMiss (fill/evict/MSHR-allocate). */
    std::uint64_t _fillEpoch = 0;

    /**
     * Security domain of each local processor (localCpu % domains;
     * all zero when isolation is off).
     */
    std::vector<int> _domainByPort;

    /** Fills since the last rand-isolation rekey flush. */
    std::uint64_t _fillsSinceRekey = 0;

    stats::Group statsGroup;

  public:
    /// @name Statistics
    /// @{
    stats::Scalar readHits;
    stats::Scalar readMisses;
    stats::Scalar writeHits;
    stats::Scalar writeMisses;
    stats::Scalar upgradeHits;    //!< write hits needing BusUpgr
    stats::Scalar mergedMisses;   //!< misses merged into an MSHR
    stats::Scalar writeBacks;
    stats::Scalar invalidationsReceived;
    stats::Scalar updatesReceived;
    stats::Scalar updatesBroadcast;
    stats::Scalar interventionsSupplied;
    stats::Scalar bankConflictCycles;
    stats::Scalar missStallCycles;
    stats::Scalar rekeyFlushes;   //!< rand-isolation epoch turns
    /// @}
};

} // namespace scmp

#endif // SCMP_MEM_SCC_HH
