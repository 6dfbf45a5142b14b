/**
 * @file
 * Hierarchical interconnect: leaf bus segments under a root bus.
 *
 * The caches are split into N contiguous leaf segments, each with
 * its own snoopy bus; a root bus joins the segments and owns the
 * path to memory. An inclusive snoop-filter directory at the
 * junction records, per line, which segments may hold a copy, so
 * a transaction only crosses the root into segments whose presence
 * bit is set — local sharing never leaves its segment, and the
 * root stops scaling with the cache count. This is the
 * hierarchical-cluster direction of Chen et al. applied to the
 * paper's SCC machine.
 *
 * With the banked DRAM backend each segment owns a local memory:
 * lines are row-interleaved across segments, a fill from the home
 * segment's memory is local, and a fill from any other segment
 * pays the NUMA remote penalty on top of its banked timing. A
 * real junction directory is also SRAM-bounded, so NetParams can
 * cap it: at capacity the LRU line is evicted and its flagged
 * segments are back-invalidated, preserving inclusion.
 */

#ifndef SCMP_NET_TREE_HH
#define SCMP_NET_TREE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/interconnect.hh"
#include "sim/line_map.hh"

namespace scmp
{

/** N leaf bus segments joined by a root bus with a snoop filter. */
class HierarchicalNet : public Interconnect
{
  public:
    HierarchicalNet(stats::Group *parent, const BusParams &params,
                    const NetParams &net, int numCaches,
                    const DramParams &dram = DramParams{});

    Cycle transaction(ClusterId source, BusOp op, Addr lineAddr,
                      Cycle now, bool *remoteCopyOut = nullptr)
        override;

    const char *topologyName() const override { return "tree"; }

    int numChannels() const override { return 1 + _segments; }
    const char *channelName(int channel) const override
    {
        return _channelNames[(std::size_t)channel].c_str();
    }
    Cycle channelBusyCycles(int channel) const override
    {
        return channel == 0 ? _rootBusy
                            : _segBusy[(std::size_t)(channel - 1)];
    }

    /** Leaf segments actually configured (clamped to the caches). */
    int segments() const { return _segments; }

    /**
     * Snoop-filter presence mask for @p lineAddr (bit s = segment s
     * may hold a copy). Inclusive: a stale 1 costs a filtered
     * snoop, a missing 1 would break coherence. Exposed for the
     * directed cross-segment tests.
     */
    std::uint32_t presenceMask(Addr lineAddr) const;

    /** Lines the snoop-filter directory currently tracks. */
    std::size_t snoopFilterSize() const { return _slotOf.size(); }

    /** Configured directory bound (0 = unbounded). */
    std::uint64_t snoopFilterCapacity() const { return _sfCap; }

    /** NUMA home segment of @p lineAddr (banked backend only). */
    int homeSegment(Addr lineAddr) const
    {
        return (int)((lineAddr >> _rowShift) % (Addr)_segments);
    }

    /// @name Tree statistics (absent on atomic configs).
    /// @{
    stats::Scalar rootTransactions;  //!< transactions crossing root
    stats::Scalar rootWaitCycles;    //!< cycles waiting for root
    stats::Scalar crossSegSnoops;    //!< remote segments snooped
    stats::Scalar snoopsFiltered;    //!< cache probes filter saved
    stats::Scalar filterEvictions;   //!< directory entries evicted
    stats::Scalar backInvalidations; //!< copies dropped by evictions
    stats::Scalar remoteFills;       //!< fills from a remote segment
    /// @}

  private:
    NetParams _net;
    int _numCaches;
    int _segments;

    /** Cache index → owning segment (contiguous, balanced). */
    std::vector<int> _segOfCache;
    /** Segment s covers caches [_segFirst[s], _segFirst[s+1]). */
    std::vector<std::size_t> _segFirst;

    std::vector<Cycle> _segFree;
    std::vector<Cycle> _segBusy;
    Cycle _rootFree = 0;
    Cycle _rootBusy = 0;

    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);

    /**
     * Inclusive directory entry: a line's segment presence bitmask
     * and its neighbours in the recency list, as indices into
     * _entries (front = most recent). Dropping a 1 bit without
     * probing the segment would break coherence, so eviction
     * back-invalidates (see evictFilterVictim).
     */
    struct FilterEntry
    {
        Addr line = invalidAddr;
        std::uint32_t mask = 0;
        std::uint32_t prev = noSlot;  //!< more recent neighbour
        std::uint32_t next = noSlot;  //!< less recent neighbour
    };

    /**
     * Track @p lineAddr, new to the directory, with @p mask at the
     * front of the recency list, evicting the least recent line
     * first when the directory is full.
     */
    void filterInsert(Addr lineAddr, std::uint32_t mask,
                      Cycle when);

    /** Retire the entry in @p slot (its line's last copy is gone). */
    void filterErase(std::uint32_t slot);

    /**
     * Evict the least recent entry: probe every flagged segment
     * with an invalidating op so no cache keeps a copy the filter
     * no longer tracks.
     * @return the victim's slot, unlinked and free for reuse.
     */
    std::uint32_t evictFilterVictim(Cycle when);

    /// @name Recency list over _entries.
    /// @{
    void unlink(std::uint32_t slot);
    void linkFront(std::uint32_t slot);
    /// @}

    /** Line → index of its entry in _entries. */
    LineMap<std::uint32_t> _slotOf;
    /**
     * Directory entries, grown on demand up to the bound; slots
     * that erased entries left are reused through _freeSlots.
     */
    std::vector<FilterEntry> _entries;
    std::vector<std::uint32_t> _freeSlots;
    std::uint32_t _mru = noSlot;  //!< front of the recency list
    std::uint32_t _lru = noSlot;  //!< back: the next victim
    std::size_t _sfCap;           //!< _net.snoopFilterCapacity

    /** One backend per segment (banked) vs one shared (flat). */
    bool _perSegmentMem = false;
    /** log2 of the DRAM row size: rows interleave the homes. */
    int _rowShift = 0;

    std::vector<std::string> _channelNames;
};

} // namespace scmp

#endif // SCMP_NET_TREE_HH
