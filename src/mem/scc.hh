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
 * behind the paper's inter-processor prefetching effect. The MSHR
 * file is kept in the tag array (CacheLine::readyAt): a fill
 * allocates the line it is fetching, so every outstanding miss has
 * a resident line, and one tag probe answers both questions.
 */

#ifndef SCMP_MEM_SCC_HH
#define SCMP_MEM_SCC_HH

#include <cstdint>
#include <vector>

#include "mem/cache_params.hh"
#include "mem/coherence_observer.hh"
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
     * and MSHR lifecycle events are reported when attached; a
     * reference pays exactly one branch when not.
     */
    void setRecorder(obs::Recorder *recorder)
    {
        _recorder = recorder;
    }

    /** Coherence state of the line containing @p addr (tests). */
    CoherenceState stateOf(Addr addr) const;

    /**
     * Bank index serving @p addr: consecutive lines live in
     * consecutive banks. A mask when the bank count is a power of
     * two (every configuration the paper studies), else a modulo.
     */
    BankId
    bankOf(Addr addr) const
    {
        std::uint64_t line = addr >> _lineShift;
        return (BankId)(_banksPow2 ? line & _bankMask
                                   : line % _bankNextFree.size());
    }

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
     * line with its MSHR, and re-derive the tag array's per-domain
     * index keys. Deterministic — triggered by fill counts, never by
     * wall time.
     */
    void rekeyFlush(Cycle now);

    ClusterId _cluster;
    SccParams _params;
    Interconnect *_bus;
    CoherenceObserver *_observer = nullptr;
    obs::Recorder *_recorder = nullptr;
    TagArray _tags;
    std::vector<Cycle> _bankNextFree;

    /// @name Bank decode (bankOf).
    /// @{
    int _lineShift;           //!< log2 of the line size
    bool _banksPow2;          //!< bank count is a power of two
    std::uint64_t _bankMask;  //!< bank count - 1
    /// @}

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
