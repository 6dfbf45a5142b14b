/**
 * @file
 * The pluggable inter-cluster fabric behind the SCCs.
 *
 * Every topology implements the same contract the paper's snoopy
 * bus established: a transaction serializes at some arbitration
 * point, broadcasts to the snoopers that may hold the line, and
 * line fetches terminate in a MemoryBackend (src/dram) — the flat
 * default answers a fixed memoryLatency after the winning grant,
 * exactly the paper's timing. Implementations differ only in where
 * contention queues form (one atomic bus, split request/response
 * channels, or leaf segments under a root bus) and in which
 * snoopers get probed.
 */

#ifndef SCMP_NET_INTERCONNECT_HH
#define SCMP_NET_INTERCONNECT_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dram/memory_backend.hh"
#include "net/net_params.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace scmp
{

class CoherenceObserver;

namespace obs
{
class Recorder;
}

/** Result of broadcasting a transaction to one snooper. */
struct SnoopResult
{
    bool hadCopy = false;        //!< snooper held the line
    bool suppliedDirty = false;  //!< snooper held it Modified
    bool invalidated = false;    //!< snooper dropped its copy
};

/** Interface every bus client implements to observe transactions. */
class Snooper
{
  public:
    virtual ~Snooper() = default;

    /**
     * React to another client's transaction. Writebacks are not
     * broadcast: the line was Modified, so no other client holds
     * it, and memory absorbs the data.
     * @param op       The transaction kind.
     * @param lineAddr Line-aligned address.
     * @param when     Bus-grant cycle of the transaction.
     */
    virtual SnoopResult snoop(BusOp op, Addr lineAddr,
                              Cycle when) = 0;

    /**
     * The source id this snooper's own transactions carry. It
     * equals the attach index (Interconnect::attach checks once),
     * and the fabrics skip self-snooping by that index.
     */
    virtual ClusterId snooperId() const = 0;
};

/** The inter-cluster fabric plus main memory timing. */
class Interconnect
{
  public:
    Interconnect(stats::Group *parent, const BusParams &params,
                 const DramParams &dram = DramParams{});
    virtual ~Interconnect() = default;

    /**
     * Register a snooping client (an SCC). The n-th snooper
     * attached must report snooperId() n; a mismatch panics.
     */
    void attach(Snooper *snooper);

    /**
     * Attach a correctness observer (src/check). Notified after
     * every transaction's snoop broadcast; null detaches.
     */
    void setObserver(CoherenceObserver *observer)
    {
        _observer = observer;
    }

    /**
     * Attach an observability recorder (src/obs). One branch per
     * transaction when attached, nothing when null.
     */
    void setRecorder(obs::Recorder *recorder)
    {
        _recorder = recorder;
    }

    /**
     * Execute one transaction.
     *
     * @param source Requesting cluster (skipped during snooping).
     * @param op     Transaction kind.
     * @param lineAddr Line-aligned address.
     * @param now    Request cycle.
     * @param remoteCopyOut Optional: set to true when any other
     *         snooper held the line (drives exclusive-fill and
     *         last-copy decisions in the update protocol).
     * @return cycle at which the requester's miss data is ready;
     *         address-only ops (Upgrade/Update) return the cycle
     *         their broadcast completed and WriteBack returns its
     *         grant cycle (write-buffered).
     */
    virtual Cycle transaction(ClusterId source, BusOp op,
                              Addr lineAddr, Cycle now,
                              bool *remoteCopyOut = nullptr) = 0;

    /** Short topology name ("atomic", "split", "tree"). */
    virtual const char *topologyName() const = 0;

    /**
     * Fraction of cycles the fabric was occupied up to @p now: the
     * busy cycles of every channel over numChannels() * @p now.
     */
    double utilization(Cycle now) const;

    /// @name Per-channel occupancy introspection.
    /// The atomic bus is one channel; the split bus exposes its
    /// request and response phases; the tree exposes the root plus
    /// every leaf segment. Drives the obs occupancy series.
    /// @{
    virtual int numChannels() const { return 1; }
    virtual const char *channelName(int channel) const;
    virtual Cycle channelBusyCycles(int channel) const = 0;
    /// @}

    /** Count of invalidations actually performed system-wide. */
    std::uint64_t invalidationsPerformed() const
    {
        return (std::uint64_t)invalidations.value();
    }

    const BusParams &params() const { return _params; }
    const DramParams &dramParams() const { return _dram; }

    /// @name Memory backend introspection (src/dram).
    /// One backend per fabric — except the tree with the banked
    /// model, which owns one per segment (NUMA). Drives the obs
    /// occupancy/row-hit series and the mem-scaling bench metrics.
    /// @{
    int numMemories() const { return (int)_memories.size(); }
    MemoryBackend &memory(int index)
    {
        return *_memories[(std::size_t)index];
    }
    const MemoryBackend &memory(int index) const
    {
        return *_memories[(std::size_t)index];
    }
    /// @}

  protected:
    /** Bump the per-op transaction counters. */
    void countOp(BusOp op);

    /** Aggregate outcome of one snoop broadcast. */
    struct SnoopOutcome
    {
        bool remoteCopy = false;
        bool dirtySupplied = false;
        int snooped = 0;
    };

    /**
     * Probe attached snoopers with index in [first, last), skipping
     * @p source, counting invalidations into the stats. The atomic
     * and split buses broadcast over the full range; the tree probes
     * one segment's sub-range at a time. A writeback probes nobody
     * but reports the same fan-out in SnoopOutcome::snooped.
     */
    SnoopOutcome snoopRange(std::size_t first, std::size_t last,
                            ClusterId source, BusOp op,
                            Addr lineAddr, Cycle when);

    /**
     * Create one memory backend per the construction-time
     * DramParams, owned by this fabric. @p name becomes the banked
     * model's stats group under "bus" and its obs column prefix.
     */
    MemoryBackend *addBackend(const std::string &name);

    BusParams _params;
    DramParams _dram;
    std::vector<Snooper *> _snoopers;
    CoherenceObserver *_observer = nullptr;
    obs::Recorder *_recorder = nullptr;

  private:
    stats::Group statsGroup;

  public:
    /// @name Statistics
    /// Shared by every topology; their declaration order is the
    /// "bus" stats group's dump order.
    /// @{
    stats::Scalar transactions;
    stats::Scalar reads;
    stats::Scalar readExcls;
    stats::Scalar upgrades;
    stats::Scalar updates;
    stats::Scalar writeBacks;
    stats::Scalar invalidations;
    stats::Scalar interventions;  //!< dirty lines supplied by SCCs
    stats::Scalar waitCycles;     //!< cycles spent arbitrating
    /// @}

  protected:
    /** The shared stats group, for subclass-specific scalars. */
    stats::Group *busStats() { return &statsGroup; }

  private:
    /**
     * Declared last: backends parent their stats under statsGroup,
     * so they must be destroyed before it.
     */
    std::vector<std::unique_ptr<MemoryBackend>> _memories;
};

/**
 * Build the fabric selected by @p net with the memory backend
 * selected by @p dram.
 *
 * @param numCaches Snoopers that will attach (the tree needs the
 *        total up front to lay out its cache→segment map).
 */
std::unique_ptr<Interconnect> makeInterconnect(
    stats::Group *parent, const BusParams &bus,
    const NetParams &net, const DramParams &dram, int numCaches);

} // namespace scmp

#endif // SCMP_NET_INTERCONNECT_HH
