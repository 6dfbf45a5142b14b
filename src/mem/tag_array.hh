/**
 * @file
 * A set-associative tag/state array with LRU replacement.
 *
 * Holds no data payload — workload data lives host-side in the
 * arena; the simulator tracks only tags and coherence state, which
 * is all the paper's timing model needs.
 *
 * The array optionally enforces a security-isolation placement
 * policy (src/sec): way partitioning, set coloring or randomized
 * indexing per security domain. With the default SecParams
 * (IsolationMode::None) every method follows the exact pre-axis
 * code path, so the paper's machine stays bit-identical.
 */

#ifndef SCMP_MEM_TAG_ARRAY_HH
#define SCMP_MEM_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "mem/cache_params.hh"
#include "sec/sec_params.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace scmp
{

/** One cache line's bookkeeping. */
struct CacheLine
{
    Addr tag = invalidAddr;
    std::uint64_t lruStamp = 0;

    /**
     * Cycle the line's outstanding fill completes; 0 when none.
     * This is the SCC's MSHR file: a miss allocates its MSHR on the
     * line it fills, and the entry leaves with the line or at the
     * first reference on or after this cycle.
     */
    Cycle readyAt = 0;

    CoherenceState state = CoherenceState::Invalid;

    /** Security domain that filled the line (0 when not isolated). */
    std::uint16_t domain = 0;

    bool valid() const { return state != CoherenceState::Invalid; }
};

static_assert(sizeof(CacheLine) == 32,
              "CacheLine must stay 32 bytes, two per host cache line");

/** Tag store for one cache (SCC or instruction cache). */
class TagArray
{
  public:
    /**
     * @param sizeBytes Total capacity; must be a power of two.
     * @param lineBytes Line size; must be a power of two.
     * @param assoc     Ways per set; must divide the set count out.
     * @param sec       Isolation policy; default none (bit-identical
     *                  to the pre-axis array).
     */
    TagArray(std::uint64_t sizeBytes, std::uint32_t lineBytes,
             std::uint32_t assoc, const SecParams &sec = SecParams{});

    /** Line-aligned address of @p addr. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & _lineMask;
    }

    /** Raw (un-isolated) set index for an address. */
    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> _lineShift) & _setMask;
    }

    /**
     * Set index @p domain's fills of @p addr land in. Equal to
     * setIndex() under none and waypart; the domain's colored
     * region under color; the domain's keyed hash under rand.
     */
    std::uint64_t setIndexFor(Addr addr, int domain) const;

    /**
     * Look up a line.
     * @return pointer to the line, or nullptr on miss. Updates LRU
     *         on hit.
     */
    CacheLine *lookup(Addr addr);

    /**
     * Look up without touching LRU state. Scans the set's ways in
     * order. Domain agnostic: under color/rand every domain's
     * candidate set is probed, so a snoop or a cross-domain sharer
     * always finds the single resident copy — isolation constrains
     * placement, never coherence.
     */
    CacheLine *probe(Addr addr);
    const CacheLine *probe(Addr addr) const;

    /**
     * Re-stamp a line already known to be resident (a probe that
     * hit). Equivalent to the LRU side effect of lookup().
     */
    void
    touch(CacheLine *line)
    {
        line->lruStamp = ++_stampCounter;
    }

    /**
     * Choose the victim way for @p domain's fill of @p addr
     * (invalid first, then LRU). Under waypart only the domain's
     * own ways are eligible; under color/rand the search covers the
     * domain's own candidate set. Does not modify the line.
     */
    CacheLine *victim(Addr addr, int domain = 0);

    /**
     * Install @p addr over @p line (which must belong to the right
     * set) with the given state and no outstanding fill; updates
     * LRU and records the filling domain.
     */
    void fill(CacheLine *line, Addr addr, CoherenceState state,
              int domain = 0);

    /** Invalidate a line if present. @return true if it was valid. */
    bool invalidate(Addr addr);

    /**
     * Reset a resident line to the empty way: no tag, no state, no
     * recency stamp, no domain and no outstanding fill.
     */
    static void
    invalidate(CacheLine *line)
    {
        *line = CacheLine{};
    }

    /** Number of valid lines (tests / occupancy stats). */
    std::uint64_t validLines() const;

    /** Valid lines resident in @p set (per-set occupancy obs). */
    std::uint64_t setOccupancy(std::uint64_t set) const;

    std::uint64_t numSets() const { return _numSets; }
    std::uint32_t assoc() const { return _assoc; }

    /** High-water LRU stamp (invariant: no line stamp exceeds it). */
    std::uint64_t lruStampCounter() const { return _stampCounter; }
    std::uint32_t lineBytes() const { return _lineBytes; }
    std::uint64_t sizeBytes() const { return _sizeBytes; }

    /// @name Isolation policy (src/sec).
    /// @{
    bool isolated() const
    {
        return _sec.mode != IsolationMode::None;
    }
    const SecParams &secParams() const { return _sec; }

    /**
     * The partition invariant for one resident line: does the line
     * sit where its recorded domain's policy says it may? The
     * coherence checker walks this over every valid line.
     */
    bool placementValid(const CacheLine &line, std::uint64_t set,
                        std::uint32_t way) const;

    /**
     * Rand only: advance the rekey epoch and re-derive every
     * domain's index key. The caller (the SCC) must flush the
     * array around this — resident lines hash to their old sets.
     */
    void rekey();
    std::uint64_t rekeyEpoch() const { return _rekeyEpoch; }
    /// @}

    /** Iterate every line (tests, invariant checks). */
    template <typename Fn>
    void
    forEachLine(Fn fn) const
    {
        for (const auto &line : _lines)
            fn(line);
    }

    /** Mutable variant (the SCC's rekey flush walks with it). */
    template <typename Fn>
    void
    forEachLine(Fn fn)
    {
        for (auto &line : _lines)
            fn(line);
    }

  private:
    /** Re-derive the per-domain rand index keys for this epoch. */
    void deriveKeys();

    std::uint64_t _sizeBytes;
    std::uint32_t _lineBytes;
    std::uint32_t _assoc;
    SecParams _sec;
    int _lineShift;
    std::uint64_t _numSets;
    Addr _lineMask;          //!< ~(lineBytes - 1), precomputed
    std::uint64_t _setMask;  //!< numSets - 1, precomputed
    std::uint64_t _stampCounter = 0;
    std::vector<CacheLine> _lines;

    /// @name Isolation geometry (meaningful only when isolated).
    /// @{
    std::uint64_t _setsPerDomain = 0;  //!< color region size
    std::uint32_t _waysPerDomain = 0;  //!< waypart slice size
    std::uint64_t _rekeyEpoch = 0;
    std::vector<std::uint64_t> _domainKeys;  //!< rand index keys
    /// @}
};

} // namespace scmp

#endif // SCMP_MEM_TAG_ARRAY_HH
