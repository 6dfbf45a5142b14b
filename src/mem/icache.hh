/**
 * @file
 * Per-processor instruction cache with a synthetic fetch stream.
 *
 * The paper gives each processor a private 16 KB instruction cache.
 * Our direct-execution workloads have no real instruction trace, so
 * each processor walks a synthetic PC through its process's code
 * segment as a sequence of loop episodes: a loop body of a few
 * hundred bytes to a few KB runs for many iterations, then control
 * moves elsewhere in the text. Small-text programs (compress) fit
 * entirely; large-text programs (gcc, spice) miss on every episode
 * change, and context switches between processes with different
 * segments cause the cold restarts the multiprogramming study
 * measures.
 */

#ifndef SCMP_MEM_ICACHE_HH
#define SCMP_MEM_ICACHE_HH

#include "mem/cache_params.hh"
#include "mem/tag_array.hh"
#include "net/interconnect.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace scmp
{

/** One processor's instruction cache plus its synthetic PC walk. */
class ICache
{
  public:
    /**
     * @param parent  Statistics parent.
     * @param name    Group name (e.g. "icache0").
     * @param cluster Cluster id (bus source for miss fetches).
     * @param params  Geometry.
     * @param bus     Bus used for miss fills (may be null when the
     *                cache is disabled).
     */
    ICache(stats::Group *parent, const std::string &name,
           ClusterId cluster, const ICacheParams &params,
           Interconnect *bus);

    /**
     * Point the synthetic PC at a (new) code segment. Called at
     * process start and on every context switch.
     */
    void setStream(Addr codeBase, std::uint64_t footprintBytes);

    /**
     * Fetch @p instrs instructions' worth of code.
     * @param now Current cycle.
     * @return extra stall cycles caused by instruction misses.
     */
    Cycle fetch(std::uint32_t instrs, Cycle now);

    double
    missRate() const
    {
        std::uint64_t total = fetches.value();
        return total ? (double)misses.value() / (double)total : 0.0;
    }

    const ICacheParams &params() const { return _params; }

  private:
    /** Line-aligned length of the process's text segment. */
    std::uint64_t roundedFootprint() const;

    /** Start the next loop episode of the synthetic PC walk. */
    void newEpisode();

    ICacheParams _params;
    ClusterId _cluster;
    Interconnect *_bus;
    TagArray _tags;
    int _lineShift;  //!< log2 of the line size
    Addr _codeBase = 0;
    std::uint64_t _footprint = 0;
    Rng _rng;
    std::uint64_t _loopBase = 0;
    std::uint64_t _loopBytes = 0;
    std::uint64_t _loopOffset = 0;
    std::uint64_t _iterationsLeft = 0;

    stats::Group statsGroup;

  public:
    /// @name Statistics
    /// @{
    stats::Scalar fetches;  //!< line fetch lookups
    stats::Scalar misses;
    stats::Scalar stallCycles;
    /// @}
};

} // namespace scmp

#endif // SCMP_MEM_ICACHE_HH
