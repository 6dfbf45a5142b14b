/**
 * @file
 * Reuse-distance (LRU stack distance) profiling of the data
 * reference stream.
 *
 * The analytic fast path rests on one observation (Mattson 1970,
 * applied to shared caches by Barai et al., see PAPERS.md): the
 * number of distinct cache lines touched between two references to
 * the same line — the reuse distance — decides whether the second
 * reference hits in an LRU cache of any given capacity. One pass
 * over the reference stream therefore yields a histogram from
 * which the miss rate of EVERY cache size on the sweep axis can be
 * predicted, without re-simulating.
 *
 * The stream comes from one functional run of the workload, the
 * profiling pass of model/profile_run.hh. The profiler maintains the
 * histogram at three scopes in the same pass:
 *  - machine: all processors interleaved (a single shared cache),
 *  - cluster: processors of one cluster interleaved (the SCC the
 *    paper sweeps — the scope the evaluator reads), and
 *  - cpu: each processor's own stream (private caches, and the
 *    raw material for predicting other cluster groupings by
 *    histogram merge).
 *
 * Exact stack distances come from a last-access-time bitmap per
 * scope (BasicStackDistance below): one probe of a flat line table,
 * a few bitmap words and one prefix query of a Fenwick tree over
 * 64-slot words, with no heap allocation per reference.
 *
 * The three scope families run on three worker threads beside the
 * pass (DESIGN.md §14). onRef() only counts the reference and
 * appends it to a ring of fixed-size chunks (under SHARDS, only if
 * some line size tracks it). A machine worker runs the machine
 * stacks and the sharing masks over each chunk and writes, per
 * reference and line size, whether the line is tracked and whether
 * the cluster's and the CPU's copies were invalidated by a remote
 * write; a cluster worker and a CPU worker then run their stacks
 * over the same chunk. Each histogram depends only on its own
 * scope's ordered stream and those stale bits, so the profile is
 * bit for bit what one thread running the scopes in turn produces.
 * profile() hands over the chunk being filled and waits for the
 * workers to finish it.
 *
 * For the fast screen the profiler also supports SHARDS-style
 * spatial sampling: only lines whose address hash falls under a
 * threshold are tracked, and measured distances/counts are scaled
 * by the sampling rate — the standard fixed-rate SHARDS estimator.
 * Rate 1 (the default) is exact and what the unit tests and
 * tests/golden/profiles pin down.
 */

#ifndef SCMP_MODEL_REUSE_PROFILE_HH
#define SCMP_MODEL_REUSE_PROFILE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/line_map.hh"
#include "sim/types.hh"

/*
 * x86-64 targets no POPCNT by default, which makes std::popcount a
 * libgcc call; under GCC the stack tracker's two popcount loops get
 * a POPCNT clone, picked once at load time. Clang, whose rules for
 * multiversioned redeclarations differ, builds the plain code.
 * ThreadSanitizer builds skip the clones:
 * their load-time resolver would run instrumented before the
 * sanitizer's runtime is up, and crash.
 */
#if defined(__x86_64__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define SCMP_POPCNT_CLONES \
    __attribute__((target_clones("popcnt", "default")))
#else
#define SCMP_POPCNT_CLONES
#endif

namespace scmp::model
{

/**
 * Log2-bucketed reuse-distance histogram.
 *
 * Bucket 0 counts distance-0 reuses (no distinct line in
 * between); bucket b >= 1 counts distances in [2^(b-1), 2^b).
 * Cache capacities on the sweep axis are powers of two, so "all
 * distances below capacity" is an exact prefix of buckets.
 */
struct ReuseHistogram
{
    /** Distances up to 2^47 lines — beyond any simulated heap. */
    static constexpr int numBuckets = 48;

    std::array<std::uint64_t, numBuckets> buckets{};
    std::uint64_t cold = 0;    //!< first-touch (infinite distance)
    /**
     * References invalidated by a remote writer since this scope
     * last held the line: sure misses under write-invalidate,
     * whatever the reuse distance says. Disjoint from the distance
     * buckets — a reference is classified as either a coherence
     * miss or a distance sample, never both.
     */
    std::uint64_t coherence = 0;
    std::uint64_t samples = 0; //!< all counted references

    /** Bucket index for a finite distance. */
    static int bucketOf(std::uint64_t distance);

    /** Count @p weight references at finite @p distance. */
    void addDistance(std::uint64_t distance,
                     std::uint64_t weight = 1);

    /** Count @p weight first-touch references. */
    void addCold(std::uint64_t weight = 1);

    /** Count @p weight coherence (invalidation) misses. */
    void addCoherence(std::uint64_t weight = 1);

    /** Element-wise sum (commutative and associative). */
    ReuseHistogram &merge(const ReuseHistogram &other);

    /**
     * The histogram with every distance multiplied by @p factor (a
     * power of two): the standard approximation for interleaving
     * @p factor statistically similar streams, used when
     * predicting a cluster grouping the profile was not captured
     * under. Counts are preserved; distances shift buckets.
     */
    ReuseHistogram dilated(std::uint32_t factor) const;

    /** Reuses with distance < @p capacityLines (a power of two). */
    std::uint64_t hitsUnder(std::uint64_t capacityLines) const;

    /**
     * Expected hits in a @p sets x @p assoc LRU cache under the
     * standard Poisson conflict model: a distance-d reuse hits
     * when fewer than `assoc` of the d intervening lines landed in
     * its set, P = sum_{k<assoc} e^{-d/sets} (d/sets)^k / k!.
     * Distances use each bucket's geometric midpoint.
     */
    double expectedHits(std::uint64_t sets,
                        std::uint32_t assoc) const;

    std::uint64_t reuses() const { return samples - cold; }

    bool operator==(const ReuseHistogram &) const = default;
};

/** Reads and writes of one interleave scope, one line size. */
struct ScopeProfile
{
    ReuseHistogram reads;
    ReuseHistogram writes;

    ReuseHistogram combined() const;
    ScopeProfile &merge(const ScopeProfile &other);

    bool operator==(const ScopeProfile &) const = default;
};

/** All scopes for one profiled line size. */
struct LineProfile
{
    std::uint32_t lineBytes = 0;
    ScopeProfile machine;
    std::vector<ScopeProfile> clusters; //!< one per cluster
    std::vector<ScopeProfile> cpus;     //!< one per processor
};

/** The product of one profiling pass. */
struct ReuseProfile
{
    int numClusters = 0;     //!< topology the pass ran under
    int cpusPerCluster = 0;
    std::uint64_t references = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Instructions issued by the pass (for the cycle model). */
    std::uint64_t instructions = 0;
    /** Sampling rate the histograms were scaled by (1 = exact). */
    std::uint32_t sampleRate = 1;
    std::vector<LineProfile> lines;

    /** The profile for @p lineBytes, or nullptr. */
    const LineProfile *lineFor(std::uint32_t lineBytes) const;

    int totalCpus() const { return numClusters * cpusPerCluster; }
};

/**
 * Merge per-processor scope profiles into @p groups equal groups
 * (group g owns consecutive processors), dilating each group's
 * distances by its member count — the cross-topology prediction
 * path for cluster groupings the pass was not captured under.
 */
std::vector<ScopeProfile> mergeCpuScopes(
    const std::vector<ScopeProfile> &cpus, int groups);

/** The line record of a plain StackDistance: the line's time slot. */
struct StackSlot
{
    std::uint32_t slot = 0;
};

/**
 * Exact LRU stack-distance tracker over one interleaved stream.
 *
 * Last-access-time formulation: each live line owns the time slot
 * of its latest access, and the stack distance of a reuse is the
 * number of live lines in later slots. The layout keeps every
 * reference to a few flat-array touches:
 *  - a LineMap (src/sim/line_map.hh) from line to its record,
 *    updated in place on reuse;
 *  - a bitmap of live slots, one bit per slot;
 *  - a Fenwick tree over the bitmap's 64-slot words, holding only
 *    the sealed words below the one the clock is filling; inside a
 *    word, std::popcount counts.
 * A reuse counts the live bits above its slot: the rest of its
 * word, one prefix query for the sealed words, and the clock's word.
 *
 * When the clock runs out of slots, the stack compacts: every
 * record's slot becomes its rank among the live slots (recency
 * order kept), and the bitmap regrows to 16x the live lines, so a
 * compaction costs O(live lines) once per ~15 accesses per live
 * line. The compaction check runs before the lookup, so no record
 * is ever held across one.
 *
 * @tparam Line the per-line record: a `slot` member for the
 *         tracker, plus whatever per-line state the owner keeps
 *         beside it (ReuseProfiler keeps the machine scope's
 *         sharing masks there, so one probe serves both).
 */
template <typename Line>
class BasicStackDistance
{
  public:
    BasicStackDistance();

    static constexpr std::uint64_t coldDistance = ~0ull;

    /**
     * Record one access to @p line.
     * @param record set to the line's record (value-initialized on
     *        first touch); valid until the next access.
     * @return the reuse distance, or coldDistance on first touch.
     */
    SCMP_POPCNT_CLONES std::uint64_t access(std::uint64_t line,
                                            Line *&record);

    /**
     * access() without the record. Defined out of line, so only
     * reuse_profile.cc calls the cloned overload and emits its
     * load-time resolver.
     */
    std::uint64_t access(std::uint64_t line);

    std::uint64_t liveLines() const { return _lines.size(); }

    /** Start loading @p line's record ahead of its access(). */
    void prefetch(std::uint64_t line) const { _lines.prefetch(line); }

  private:
    std::uint64_t distanceAbove(std::uint64_t slot) const;
    void release(std::uint64_t slot);
    std::uint32_t claim();
    SCMP_POPCNT_CLONES void compact();
    void treeAdd(std::size_t word, int delta);
    std::uint64_t treePrefix(std::size_t words) const;

    LineMap<Line> _lines;
    std::vector<std::uint64_t> _live; //!< one bit per slot: live?
    /** Fenwick tree (1-based) over the words below the clock's. */
    std::vector<std::uint32_t> _tree;
    std::uint64_t _sealed = 0; //!< live slots counted by the tree
    std::uint64_t _clock = 0;  //!< next slot to hand out
};

/** Stack distance over a plain stream (no per-line state). */
using StackDistance = BasicStackDistance<StackSlot>;

/** Knobs for one profiling pass. */
struct ProfilerConfig
{
    /** Machine shape of the pass (scope layout). */
    int numClusters = 4;
    int cpusPerCluster = 1;

    /** Line sizes to profile (each adds a set of stacks). */
    std::vector<std::uint32_t> lineSizes = {16};

    /**
     * SHARDS spatial sampling: track only lines whose address hash
     * falls in 1/2^sampleShift of the hash space, scaling counts
     * and distances back up by 2^sampleShift. 0 = exact.
     */
    std::uint32_t sampleShift = 0;
};

/**
 * The one-pass profiler, fed the data-reference stream in issue
 * order by the functional profiling pass (src/model/profile_run).
 * Its scopes run on three worker threads (see the file comment),
 * which the destructor joins.
 */
class ReuseProfiler
{
  public:
    /** References per chunk of the ring onRef() fills. */
    static constexpr std::size_t chunkRefs = 16384;
    /** Chunks in the ring: the producer waits when all are full. */
    static constexpr std::size_t ringChunks = 4;

    explicit ReuseProfiler(ProfilerConfig config);
    ~ReuseProfiler();

    ReuseProfiler(const ReuseProfiler &) = delete;
    ReuseProfiler &operator=(const ReuseProfiler &) = delete;

    /** One data reference, in issue order. */
    void onRef(CpuId cpu, RefType type, Addr addr);

    /** Stamp the pass's instruction count (profile_run does). */
    void setInstructions(std::uint64_t instructions);

    /**
     * The profile of every reference so far: waits for the
     * workers to finish them. Rethrows an exception a worker
     * caught (a failed allocation, say).
     */
    const ReuseProfile &profile();

    const ProfilerConfig &config() const { return _config; }

  private:
    struct Ref;
    class Pipeline;

    ProfilerConfig _config;
    ReuseProfile _profile;
    Ref *_fill = nullptr;     //!< the chunk being filled
    std::size_t _filled = 0;  //!< references in it
    std::unique_ptr<Pipeline> _pipeline;
};

} // namespace scmp::model

#endif // SCMP_MODEL_REUSE_PROFILE_HH
