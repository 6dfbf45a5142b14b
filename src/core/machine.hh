/**
 * @file
 * The whole simulated machine: clusters of processors around
 * shared cluster caches, snooping on one inter-cluster bus.
 *
 * This is the paper's base architecture (its Figure 1): each
 * cluster has one SCC for data, a private instruction cache per
 * processor, and access to main memory over the shared snoopy bus.
 */

#ifndef SCMP_CORE_MACHINE_HH
#define SCMP_CORE_MACHINE_HH

#include <memory>
#include <vector>

#include "core/ref_tap.hh"
#include "exec/engine.hh"
#include "mem/icache.hh"
#include "mem/scc.hh"
#include "mem/store_buffer.hh"
#include "net/interconnect.hh"
#include "obs/recorder.hh"
#include "sim/names.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "tm/tm_manager.hh"
#include "tm/tm_params.hh"

namespace scmp
{

namespace check
{
class CoherenceChecker;
}

/**
 * Cluster organization (the paper's Section 2.1 alternatives).
 *
 * SharedCache is the paper's proposal: processors in a cluster
 * share one multiported SCC and only the four SCCs snoop the bus.
 * PrivateCaches is the conventional alternative it argues against:
 * every processor has its own cache and snoops the bus directly,
 * so coherence traffic grows with the processor count.
 */
enum class ClusterOrganization
{
    SharedCache,
    PrivateCaches,
};

inline std::span<const NameRow<ClusterOrganization>>
nameTable(ClusterOrganization)
{
    static constexpr NameRow<ClusterOrganization> names[] = {
        {"shared", ClusterOrganization::SharedCache,
         "one SCC per cluster (the paper's proposal, default)"},
        {"private", ClusterOrganization::PrivateCaches,
         "one cache per processor, all snooping the bus"},
    };
    return names;
}

/**
 * Full machine configuration — one design-space point. Every field
 * is a row of core/design_fields.hh or listed there as instrumentation.
 */
struct MachineConfig
{
    /** Clusters on the bus (the paper simulates four). */
    int numClusters = 4;

    /** Processors sharing each SCC (the paper sweeps 1,2,4,8). */
    int cpusPerCluster = 1;

    /** Shared cluster cache vs per-processor private caches. */
    ClusterOrganization organization =
        ClusterOrganization::SharedCache;

    /**
     * PrivateCaches only: each processor's cache capacity. Zero
     * means "the SCC size", i.e. every private cache is as large
     * as the whole shared cache would have been — the comparison
     * that isolates coherence traffic from capacity.
     */
    std::uint64_t privateCacheBytes = 0;

    SccParams scc;
    BusParams bus;
    /** Which fabric carries the bus ops (src/net). */
    NetParams net;
    /** Which memory backend times line fetches (src/dram). */
    DramParams dram;
    /** Memory consistency model (src/mem/store_buffer). */
    ConsistencyParams consistency;
    /** Hardware transactional memory (src/tm). */
    TmParams tm;
    ICacheParams icache;
    EngineOptions engine;

    /** Simulated shared-heap capacity for the workload. */
    std::size_t arenaBytes = 64ull << 20;

    /**
     * Attach the coherence checker (src/check): golden-memory
     * oracle on every reference plus invariant sweeps over the tag
     * arrays. Also enabled by the SCMP_CHECK environment variable,
     * so any existing binary can run checked without a flag. Zero
     * cost when off.
     */
    bool checkCoherence = false;

    /** Full tag sweep every N bus transactions (0 = every one). */
    std::uint64_t checkWalkInterval = 4096;

    /**
     * Observability recorder configuration (src/obs). Also driven
     * by the SCMP_OBS family of environment variables, mirroring
     * SCMP_CHECK. Like checkCoherence, this is instrumentation, not
     * part of the simulated design point: it never enters the sweep
     * point key and never perturbs simulated time.
     */
    obs::RecorderConfig obs;

    /**
     * Optional reference-stream tap (src/model's reuse-distance
     * profiler). Instrumentation like `obs` and `checkCoherence`:
     * one branch per reference when attached, zero cost when null,
     * never part of the sweep point key, and never shared across
     * concurrently running machines (the tap is not thread-safe).
     */
    RefTap *refTap = nullptr;

    int totalCpus() const { return numClusters * cpusPerCluster; }

    /** Caches on the fabric: one per cluster, or one per processor. */
    int
    cacheCount() const
    {
        return organization == ClusterOrganization::PrivateCaches
                   ? totalCpus()
                   : numClusters;
    }

    /** Sanity-check user-supplied values; fatal on error. */
    void check() const;
};

/**
 * The machine model: implements the engine's MemorySystem
 * interface, routing each processor's references to its cluster's
 * SCC and instruction cache.
 */
class Machine : public MemorySystem
{
  public:
    explicit Machine(const MachineConfig &config);
    ~Machine() override;

    Cycle access(CpuId cpu, RefType type, Addr addr, Cycle now,
                 std::uint32_t instrGap) override;

    /**
     * Full fence on @p cpu: drain its store buffer completely.
     * No-op (returns @p now) under sequential consistency.
     */
    Cycle fence(CpuId cpu, Cycle now) override;

    /// @name Hardware transactional memory (MemorySystem TM
    /// surface; all no-ops / disabled under --tm=off).
    /// @{
    TmPolicy tmPolicy() const override;
    Cycle tmBegin(CpuId cpu, Cycle now) override;
    bool tmPoll(CpuId cpu) const override;
    Cycle tmCommit(CpuId cpu, Cycle now, bool *committed) override;
    Cycle tmAbort(CpuId cpu, Cycle now) override;
    void tmFallback(CpuId cpu) override;
    /** The manager, or null under --tm=off. */
    TmManager *tmManager() { return _tm.get(); }
    /** TM counters, or null under --tm=off. */
    const TmStats *tmStats() const { return _tmStats.get(); }
    /// @}

    /// @name Topology accessors.
    /// @{
    const MachineConfig &config() const { return _config; }
    ClusterId clusterOf(CpuId cpu) const;
    int localIndexOf(CpuId cpu) const;
    /** Caches on the bus (clusters, or cpus when private). */
    int numCaches() const { return (int)_sccs.size(); }
    /** The cache serving @p cpu (its SCC or its private cache). */
    SharedClusterCache &cacheOf(CpuId cpu);
    const SharedClusterCache &cacheOf(CpuId cpu) const;
    /** Index on the bus of the cache serving @p cpu. */
    int cacheIndexOf(CpuId cpu) const;
    SharedClusterCache &scc(ClusterId cluster);
    const SharedClusterCache &scc(ClusterId cluster) const;
    /** @p cpu's store buffer; null under sequential consistency. */
    StoreBuffer *storeBuffer(CpuId cpu);
    ICache &icache(CpuId cpu);
    Interconnect &bus() { return *_bus; }
    const Interconnect &bus() const { return *_bus; }
    stats::Group &statsRoot() { return _root; }
    /// @}

    /** Re-point a processor's instruction stream (multiprog). */
    void setIStream(CpuId cpu, Addr codeBase, std::uint64_t bytes);

    /// @name Correctness checking (src/check).
    /// @{
    /** Attach the oracle/invariant checker; idempotent. */
    void enableChecker();
    bool checking() const { return _checker != nullptr; }
    /** The attached checker, or null when not checking. */
    const check::CoherenceChecker *checker() const
    {
        return _checker.get();
    }
    /// @}

    /// @name Observability (src/obs).
    /// @{
    /** Attach the recorder per config().obs; idempotent. */
    void enableObs();
    /** The attached recorder, or null when not observing. */
    obs::Recorder *recorder() { return _recorder.get(); }
    /**
     * Close the recorder at the run's finish cycle: final interval
     * sample, final phase snapshot, output files. Idempotent; the
     * destructor falls back to the last dispatch time seen.
     */
    void finishObs(Cycle end);
    /// @}

    /// @name Machine-wide metrics for the experiment harnesses.
    /// @{
    /** Read miss rate aggregated over all SCCs. */
    double readMissRate() const;
    /** All misses / all accesses over all SCCs. */
    double missRate() const;
    /** Invalidations actually performed system-wide. */
    std::uint64_t invalidations() const;
    /** Total SCC accesses (reads + writes). */
    std::uint64_t dataAccesses() const;
    /// @}

  private:
    MachineConfig _config;
    stats::Group _root;
    std::unique_ptr<Interconnect> _bus;
    std::vector<std::unique_ptr<stats::Group>> _clusterGroups;
    std::vector<std::unique_ptr<SharedClusterCache>> _sccs;
    std::vector<std::unique_ptr<ICache>> _icaches;
    std::unique_ptr<check::CoherenceChecker> _checker;

    /**
     * Weak ordering only: the shared counter block and one store
     * buffer per processor. Both stay null/empty under sequential
     * consistency, so the default machine carries no buffer state,
     * no extra stats group, and pays one predictable branch per
     * reference.
     */
    std::unique_ptr<StoreBufferStats> _sbStats;
    std::vector<std::unique_ptr<StoreBuffer>> _storeBuffers;
    bool _weak = false;

    /**
     * Transactional memory only: the conflict manager and its
     * counters. Both stay null under --tm=off (the default), same
     * discipline as the store buffers — no state, no stats group,
     * one predictable branch per reference.
     */
    std::unique_ptr<TmStats> _tmStats;
    std::unique_ptr<TmManager> _tm;

    /// @name Per-processor routing tables, built once in the
    /// constructor so the reference hot path is three array loads —
    /// no per-reference division, branching on the organization, or
    /// bounds-checked accessor calls.
    /// @{
    std::vector<SharedClusterCache *> _cacheByCpu;
    std::vector<ICache *> _icacheByCpu;
    std::vector<int> _localIndexByCpu;
    std::vector<int> _cacheIndexByCpu;
    /** Instruction fetch modelled at all (config.icache.enabled). */
    bool _ifetch = false;
    /// @}

    /**
     * Declared last: destroyed before everything its registered
     * column closures read (bus, SCCs), never after.
     */
    std::unique_ptr<obs::Recorder> _recorder;
};

} // namespace scmp

#endif // SCMP_CORE_MACHINE_HH
