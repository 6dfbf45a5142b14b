#include "reuse_profile.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/logging.hh"

namespace scmp::model
{

namespace
{

/** splitmix64 finalizer — the sampling hash over line addresses. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Does SHARDS at @p sampleShift track @p line? */
bool
sampled(std::uint64_t line, std::uint32_t sampleShift)
{
    return !sampleShift || (mix64(line) >> (64 - sampleShift)) == 0;
}

/** Slots of a fresh stack, and the fewest a compaction leaves. */
constexpr std::uint64_t minSlots = 4096;

/** Slots per live line (plus the next access) after a compaction. */
constexpr std::uint64_t headroom = 16;

} // namespace

int
ReuseHistogram::bucketOf(std::uint64_t distance)
{
    if (distance == 0)
        return 0;
    int bucket = 64 - std::countl_zero(distance);
    return bucket < numBuckets ? bucket : numBuckets - 1;
}

void
ReuseHistogram::addDistance(std::uint64_t distance,
                            std::uint64_t weight)
{
    buckets[(std::size_t)bucketOf(distance)] += weight;
    samples += weight;
}

void
ReuseHistogram::addCold(std::uint64_t weight)
{
    cold += weight;
    samples += weight;
}

void
ReuseHistogram::addCoherence(std::uint64_t weight)
{
    coherence += weight;
    samples += weight;
}

ReuseHistogram &
ReuseHistogram::merge(const ReuseHistogram &other)
{
    for (int b = 0; b < numBuckets; ++b)
        buckets[(std::size_t)b] += other.buckets[(std::size_t)b];
    cold += other.cold;
    coherence += other.coherence;
    samples += other.samples;
    return *this;
}

ReuseHistogram
ReuseHistogram::dilated(std::uint32_t factor) const
{
    panic_if(factor == 0, "dilation factor must be positive");
    int shift = std::bit_width(factor) - 1;
    ReuseHistogram out;
    out.cold = cold;
    out.coherence = coherence;
    out.samples = samples;
    // Distance 0 stays 0; every other bucket shifts by log2(factor).
    out.buckets[0] = buckets[0];
    for (int b = 1; b < numBuckets; ++b) {
        int to = std::min(b + shift, numBuckets - 1);
        out.buckets[(std::size_t)to] += buckets[(std::size_t)b];
    }
    return out;
}

std::uint64_t
ReuseHistogram::hitsUnder(std::uint64_t capacityLines) const
{
    if (capacityLines == 0)
        return 0;
    // Capacity 2^k admits buckets 0..k exactly (bucket k covers
    // [2^(k-1), 2^k)). Non-powers of two round down.
    int top = 64 - std::countl_zero(capacityLines) - 1;
    if ((capacityLines & (capacityLines - 1)) != 0)
        top = std::min(top, numBuckets - 1);
    std::uint64_t hits = 0;
    for (int b = 0; b <= top && b < numBuckets; ++b)
        hits += buckets[(std::size_t)b];
    return hits;
}

double
ReuseHistogram::expectedHits(std::uint64_t sets,
                             std::uint32_t assoc) const
{
    panic_if(sets == 0 || assoc == 0, "degenerate cache geometry");
    // Conflict model: a distance-d reuse survives with probability
    // exp(-gamma (d/capacity)^beta). Purely random set mapping
    // would give the exponential (beta = 1) Poisson survival, but
    // the workloads' regular layouts spread lines near-uniformly
    // over the sets, so conflicts stay rare while the intervening
    // footprint is below capacity and ramp up sharply as it wraps —
    // a sharper-than-exponential knee. beta = 2, gamma = 0.7 fits
    // the simulated direct-mapped SCC across the SPLASH kernels
    // within the tolerance the cross-validation suite pins down.
    constexpr double beta = 2.0;
    constexpr double gamma = 0.7;
    double capacity = (double)sets * (double)assoc;
    double hits = 0;
    for (int b = 0; b < numBuckets; ++b) {
        std::uint64_t n = buckets[(std::size_t)b];
        if (!n)
            continue;
        // Geometric midpoint of the bucket's distance range.
        double d = b == 0 ? 0.0 : 1.5 * std::ldexp(1.0, b - 1);
        double p =
            std::exp(-gamma * std::pow(d / capacity, beta));
        hits += (double)n * p;
    }
    return hits;
}

ReuseHistogram
ScopeProfile::combined() const
{
    ReuseHistogram out = reads;
    out.merge(writes);
    return out;
}

ScopeProfile &
ScopeProfile::merge(const ScopeProfile &other)
{
    reads.merge(other.reads);
    writes.merge(other.writes);
    return *this;
}

const LineProfile *
ReuseProfile::lineFor(std::uint32_t lineBytes) const
{
    for (const LineProfile &line : lines)
        if (line.lineBytes == lineBytes)
            return &line;
    return nullptr;
}

std::vector<ScopeProfile>
mergeCpuScopes(const std::vector<ScopeProfile> &cpus, int groups)
{
    panic_if(groups <= 0, "need a positive group count");
    panic_if(cpus.empty() || (int)cpus.size() % groups != 0,
             "cannot split ", cpus.size(),
             " per-cpu profiles into ", groups, " equal groups");
    int per = (int)cpus.size() / groups;
    std::vector<ScopeProfile> out((std::size_t)groups);
    for (int g = 0; g < groups; ++g) {
        ScopeProfile sum;
        for (int i = 0; i < per; ++i)
            sum.merge(cpus[(std::size_t)(g * per + i)]);
        out[(std::size_t)g].reads =
            sum.reads.dilated((std::uint32_t)per);
        out[(std::size_t)g].writes =
            sum.writes.dilated((std::uint32_t)per);
    }
    return out;
}

template <typename Line>
BasicStackDistance<Line>::BasicStackDistance()
    : _live(minSlots / 64, 0), _tree(minSlots / 64 + 1, 0)
{
}

template <typename Line>
void
BasicStackDistance<Line>::treeAdd(std::size_t word, int delta)
{
    for (std::size_t i = word + 1; i < _tree.size(); i += i & (0 - i))
        _tree[i] += (std::uint32_t)delta;
}

template <typename Line>
std::uint64_t
BasicStackDistance<Line>::treePrefix(std::size_t words) const
{
    std::uint64_t sum = 0;
    for (std::size_t i = words; i > 0; i -= i & (0 - i))
        sum += _tree[i];
    return sum;
}

template <typename Line>
std::uint64_t
BasicStackDistance<Line>::distanceAbove(std::uint64_t slot) const
{
    // Live slots after @p slot: the rest of its own word, the
    // sealed words up to the clock's word, and the clock's word
    // (in range: access() compacts before the clock runs out).
    std::size_t word = slot >> 6;
    std::size_t open = _clock >> 6;
    std::uint64_t distance =
        std::popcount(_live[word] & (~0ull << (slot & 63) << 1));
    if (word == open)
        return distance;
    distance += _sealed - treePrefix(word + 1);
    return distance + std::popcount(_live[open]);
}

template <typename Line>
void
BasicStackDistance<Line>::release(std::uint64_t slot)
{
    std::size_t word = slot >> 6;
    _live[word] &= ~(1ull << (slot & 63));
    if (word < (_clock >> 6)) {
        treeAdd(word, -1);
        --_sealed;
    }
}

template <typename Line>
std::uint32_t
BasicStackDistance<Line>::claim()
{
    std::uint64_t slot = _clock++;
    std::size_t word = slot >> 6;
    _live[word] |= 1ull << (slot & 63);
    if ((_clock & 63) == 0) {
        // The clock left this word: seal its count into the tree.
        int count = std::popcount(_live[word]);
        treeAdd(word, count);
        _sealed += (std::uint64_t)count;
    }
    return (std::uint32_t)slot;
}

template <typename Line>
void
BasicStackDistance<Line>::compact()
{
    // Each record's new slot is its rank among the live slots, so
    // recency order survives: the live slots in earlier words (an
    // exclusive prefix count per word, kept in the tree's storage
    // until the rebuild below) plus those below it in its word.
    std::uint64_t live = 0;
    for (std::size_t w = 0; w < _live.size(); ++w) {
        _tree[w] = (std::uint32_t)live;
        live += (std::uint64_t)std::popcount(_live[w]);
    }
    panic_if(live != _lines.size(), "stack tracker holds ", live,
             " live slots for ", _lines.size(), " lines");
    _lines.forEach([this](Addr, Line &record) {
        std::uint64_t below = _live[record.slot >> 6] &
                              ((1ull << (record.slot & 63)) - 1);
        record.slot = _tree[record.slot >> 6] +
                      (std::uint32_t)std::popcount(below);
    });

    std::uint64_t slots =
        std::max(minSlots, std::bit_ceil(headroom * (live + 1)));
    panic_if(slots > (1ull << 32),
             "stack tracker outgrew 32-bit slots at ", live,
             " live lines");
    _live.assign(slots / 64, 0);
    std::fill_n(_live.begin(), live / 64, ~0ull);
    if (live % 64)
        _live[live / 64] = (1ull << (live % 64)) - 1;
    _clock = live;

    // The full words are the sealed ones; build their tree in
    // linear time (each node pushes its sum to its parent).
    std::size_t sealed = live / 64;
    _tree.assign(slots / 64 + 1, 0);
    for (std::size_t i = 1; i <= sealed; ++i)
        _tree[i] = 64;
    for (std::size_t i = 1; i < _tree.size(); ++i) {
        std::size_t parent = i + (i & (0 - i));
        if (parent < _tree.size())
            _tree[parent] += _tree[i];
    }
    _sealed = 64 * sealed;
}

template <typename Line>
std::uint64_t
BasicStackDistance<Line>::access(std::uint64_t line, Line *&record)
{
    // Compact before the lookup: a compaction rewrites every
    // record's slot, so no record may be held across one.
    if (_clock == _live.size() * 64)
        compact();
    record = _lines.find(line);
    std::uint64_t distance = coldDistance;
    if (record) {
        distance = distanceAbove(record->slot);
        release(record->slot);
    } else {
        _lines.set(line, Line{});
        record = _lines.find(line);
    }
    // One call site, so each clone inlines claim().
    record->slot = claim();
    return distance;
}

template <typename Line>
std::uint64_t
BasicStackDistance<Line>::access(std::uint64_t line)
{
    Line *record;
    return access(line, record);
}

template class BasicStackDistance<StackSlot>;

/** One queued reference: 16 bytes, so a chunk is 256 KiB. */
struct ReuseProfiler::Ref
{
    Addr addr;
    std::int16_t cpu;
    bool write;
};

/**
 * The ring of chunks and the three scope workers. Each handoff is a
 * Stage, guarded by its own mutex. The producer's fields, each
 * stage and each worker's stack state start on their own cache
 * lines, and each worker builds its stacks on its own thread, so no
 * thread's per-reference writes land on a line another one reads.
 */
class ReuseProfiler::Pipeline
{
  public:
    explicit Pipeline(const ProfilerConfig &config);
    ~Pipeline();

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** The chunk the producer fills first. */
    Ref *first() { return _refs.data(); }

    /**
     * Hand the chunk being filled, holding @p count references, to
     * the workers; returns the next chunk once they are done with
     * its previous contents.
     */
    Ref *publish(std::size_t count);

    /** publish(), then wait for the workers to finish every chunk. */
    Ref *drain(std::size_t count);

    /** Rethrow a worker's exception, else copy out its histograms. */
    void collect(ReuseProfile &profile) const;

  private:
    /** Flag bits the machine worker writes per reference and line. */
    static constexpr std::uint8_t trackedBit = 1;      //!< SHARDS keeps it
    static constexpr std::uint8_t clusterStaleBit = 2; //!< see MachineLine
    static constexpr std::uint8_t cpuStaleBit = 4;

    /** References a worker looks ahead to prefetch a line record. */
    static constexpr std::size_t prefetchAhead = 4;

    /** Chunks one side of a handoff has finished. */
    struct alignas(64) Stage
    {
        std::mutex mutex;
        std::condition_variable advanced;
        std::uint64_t done = 0; //!< guarded by mutex
        bool closed = false;    //!< no chunk follows: guarded by mutex

        /** Wait for chunk @p k; false if the stage closed first. */
        bool
        waitPast(std::uint64_t k)
        {
            std::unique_lock lock(mutex);
            advanced.wait(lock, [&] { return done > k || closed; });
            return done > k;
        }

        void
        advance()
        {
            {
                std::lock_guard lock(mutex);
                ++done;
            }
            advanced.notify_all();
        }

        void
        close()
        {
            {
                std::lock_guard lock(mutex);
                closed = true;
            }
            advanced.notify_all();
        }
    };

    /**
     * The machine scope's line record: the line's time slot plus
     * its write-invalidate sharing state. Two processor bitmasks
     * decide, for any grouping, whether an access finds the
     * group's copy invalidated by a remote write: the group held
     * the line before (`ever` intersects the group) but no member
     * touched it since the last write (`sinceWrite` misses the
     * group) and the writer is remote.
     */
    struct MachineLine
    {
        std::uint64_t ever = 0;
        std::uint64_t sinceWrite = 0;
        std::uint32_t slot = 0;
        std::int16_t lastWriter = -1;
    };

    /** What every worker keeps besides its stacks. */
    struct Worker
    {
        std::uint32_t sampleShift = 0;
        std::exception_ptr error; //!< the first thing that failed

        /** Count one reference at distance @p d into @p scope. */
        void
        record(ScopeProfile &scope, bool write, std::uint64_t d,
               bool stale) const
        {
            ReuseHistogram &hist = write ? scope.writes : scope.reads;
            std::uint64_t weight = 1ull << sampleShift;
            if (d == StackDistance::coldDistance)
                hist.addCold(weight);
            else if (stale)
                hist.addCoherence(weight);
            else
                hist.addDistance(d << sampleShift, weight);
        }
    };

    /**
     * The machine scope, one stack per line size, whose records
     * also carry the sharing masks, so one probe serves both. For
     * each reference it writes the flag bits the other two read.
     */
    struct alignas(64) MachineWorker : Worker
    {
        struct Scope
        {
            std::uint32_t lineShift = 0;
            BasicStackDistance<MachineLine> stack;
            ScopeProfile profile;
        };
        std::vector<Scope> scopes;
        std::array<std::uint64_t, 64> clusterBits{}; //!< per cpu
        std::array<std::uint8_t, 64> clusterOf{};    //!< per cpu

        void start(const ProfilerConfig &config);
        void process(const Ref *refs, std::uint8_t *flags,
                     std::size_t count);
        void collect(ReuseProfile &profile) const;
    };

    /**
     * The cluster or the CPU scope: one stack per group of
     * processors and line size.
     */
    struct alignas(64) GroupWorker : Worker
    {
        /** Where the groups' profiles go in a LineProfile. */
        using Output = std::vector<ScopeProfile> LineProfile::*;

        GroupWorker(int cpusPerGroup, std::uint8_t staleBit,
                    Output output)
            : cpusPerGroup(cpusPerGroup), staleBit(staleBit),
              output(output)
        {
        }

        struct Scopes
        {
            std::uint32_t lineShift = 0;
            std::vector<StackDistance> stacks;
            std::vector<ScopeProfile> profiles;
        };
        const int cpusPerGroup;
        const std::uint8_t staleBit;
        const Output output;
        std::vector<Scopes> scopes;
        std::array<std::uint8_t, 64> groupOf{}; //!< per cpu

        void start(const ProfilerConfig &config);
        void process(const Ref *refs, const std::uint8_t *flags,
                     std::size_t count);
        void collect(ReuseProfile &profile) const;
    };

    /** One worker's thread: set up, then chunks from @p in on. */
    template <typename W>
    void work(W &worker, Stage &in, Stage &out);
    void stop();

    const ProfilerConfig _config;
    const std::size_t _lineCount;
    std::vector<Ref> _refs;           //!< ringChunks x chunkRefs
    std::vector<std::uint8_t> _flags; //!< ... x line sizes

    /** Written by the producer only. */
    struct alignas(64)
    {
        std::uint64_t published = 0;
        /** References per chunk slot, set before publishing it. */
        std::array<std::size_t, ringChunks> sizes{};
    } _producer;

    Stage _produced;
    Stage _machineDone;
    Stage _clusterDone;
    Stage _cpuDone;
    MachineWorker _machine;
    GroupWorker _cluster;
    GroupWorker _cpu;

    /** Declared after all they use; ~Pipeline joins them. */
    std::vector<std::thread> _threads;
};

void
ReuseProfiler::Pipeline::MachineWorker::start(
    const ProfilerConfig &config)
{
    sampleShift = config.sampleShift;
    for (std::uint32_t lineBytes : config.lineSizes) {
        Scope &scope = scopes.emplace_back();
        scope.lineShift = (std::uint32_t)std::countr_zero(lineBytes);
    }
    int per = config.cpusPerCluster;
    std::uint64_t bits = per >= 64 ? ~0ull : (1ull << per) - 1;
    for (int cpu = 0; cpu < config.numClusters * per; ++cpu) {
        clusterOf[(std::size_t)cpu] = (std::uint8_t)(cpu / per);
        clusterBits[(std::size_t)cpu] = bits << (cpu / per * per);
    }
}

void
ReuseProfiler::Pipeline::MachineWorker::process(const Ref *refs,
                                                std::uint8_t *flags,
                                                std::size_t count)
{
    std::size_t lines = scopes.size();
    for (std::size_t i = 0; i < count; ++i, flags += lines) {
        if (i + prefetchAhead < count) {
            Addr ahead = refs[i + prefetchAhead].addr;
            for (Scope &scope : scopes) {
                std::uint64_t line = ahead >> scope.lineShift;
                if (sampled(line, sampleShift))
                    scope.stack.prefetch(line);
            }
        }
        const Ref &ref = refs[i];
        std::size_t cpu = (std::size_t)ref.cpu;
        for (std::size_t l = 0; l < lines; ++l) {
            Scope &scope = scopes[l];
            std::uint64_t line = ref.addr >> scope.lineShift;
            if (!sampled(line, sampleShift)) {
                flags[l] = 0;
                continue;
            }
            MachineLine *sh;
            record(scope.profile, ref.write,
                   scope.stack.access(line, sh), false);

            // Write-invalidate sharing state. A group's copy is
            // stale when the group held the line, nobody in it
            // touched it since the last write, and that writer is
            // outside the group — a sure miss regardless of reuse
            // distance. The machine scope (one shared cache) never
            // pays coherence.
            std::uint64_t cpuBit = 1ull << cpu;
            std::uint64_t clBits = clusterBits[cpu];
            bool written = sh->lastWriter >= 0;
            bool cpuStale = written && sh->lastWriter != ref.cpu &&
                            (sh->ever & cpuBit) &&
                            !(sh->sinceWrite & cpuBit);
            bool clusterStale =
                written &&
                clusterOf[(std::size_t)sh->lastWriter] !=
                    clusterOf[cpu] &&
                (sh->ever & clBits) && !(sh->sinceWrite & clBits);
            sh->ever |= cpuBit;
            if (ref.write) {
                sh->lastWriter = ref.cpu;
                sh->sinceWrite = cpuBit;
            } else {
                sh->sinceWrite |= cpuBit;
            }
            flags[l] = trackedBit |
                       (clusterStale ? clusterStaleBit : 0) |
                       (cpuStale ? cpuStaleBit : 0);
        }
    }
}

void
ReuseProfiler::Pipeline::MachineWorker::collect(
    ReuseProfile &profile) const
{
    for (std::size_t l = 0; l < scopes.size(); ++l)
        profile.lines[l].machine = scopes[l].profile;
}

void
ReuseProfiler::Pipeline::GroupWorker::start(
    const ProfilerConfig &config)
{
    sampleShift = config.sampleShift;
    int cpus = config.numClusters * config.cpusPerCluster;
    std::size_t groups = (std::size_t)(cpus / cpusPerGroup);
    for (std::uint32_t lineBytes : config.lineSizes) {
        Scopes &scope = scopes.emplace_back();
        scope.lineShift = (std::uint32_t)std::countr_zero(lineBytes);
        scope.stacks.resize(groups);
        scope.profiles.resize(groups);
    }
    for (int cpu = 0; cpu < cpus; ++cpu)
        groupOf[(std::size_t)cpu] = (std::uint8_t)(cpu / cpusPerGroup);
}

void
ReuseProfiler::Pipeline::GroupWorker::process(
    const Ref *refs, const std::uint8_t *flags, std::size_t count)
{
    std::size_t lines = scopes.size();
    for (std::size_t i = 0; i < count; ++i, flags += lines) {
        if (i + prefetchAhead < count) {
            const Ref &ahead = refs[i + prefetchAhead];
            const std::uint8_t *aheadFlags =
                flags + prefetchAhead * lines;
            std::size_t group = groupOf[(std::size_t)ahead.cpu];
            for (std::size_t l = 0; l < lines; ++l) {
                if (aheadFlags[l])
                    scopes[l].stacks[group].prefetch(
                        ahead.addr >> scopes[l].lineShift);
            }
        }
        const Ref &ref = refs[i];
        std::size_t group = groupOf[(std::size_t)ref.cpu];
        for (std::size_t l = 0; l < lines; ++l) {
            if (!flags[l])
                continue;
            Scopes &scope = scopes[l];
            record(scope.profiles[group], ref.write,
                   scope.stacks[group].access(ref.addr >>
                                              scope.lineShift),
                   flags[l] & staleBit);
        }
    }
}

void
ReuseProfiler::Pipeline::GroupWorker::collect(
    ReuseProfile &profile) const
{
    for (std::size_t l = 0; l < scopes.size(); ++l)
        profile.lines[l].*output = scopes[l].profiles;
}

ReuseProfiler::Pipeline::Pipeline(const ProfilerConfig &config)
    : _config(config), _lineCount(config.lineSizes.size()),
      _refs(ringChunks * chunkRefs),
      _flags(ringChunks * chunkRefs * _lineCount),
      _cluster(config.cpusPerCluster, clusterStaleBit,
               &LineProfile::clusters),
      _cpu(1, cpuStaleBit, &LineProfile::cpus)
{
    _threads.reserve(3);
    try {
        _threads.emplace_back(
            [this] { work(_machine, _produced, _machineDone); });
        _threads.emplace_back(
            [this] { work(_cluster, _machineDone, _clusterDone); });
        _threads.emplace_back(
            [this] { work(_cpu, _machineDone, _cpuDone); });
    } catch (...) {
        stop();
        throw;
    }
}

ReuseProfiler::Pipeline::~Pipeline()
{
    stop();
}

void
ReuseProfiler::Pipeline::stop()
{
    // The workers finish what was published, then follow the
    // closed stage out.
    _produced.close();
    for (std::thread &thread : _threads)
        thread.join();
}

template <typename W>
void
ReuseProfiler::Pipeline::work(W &worker, Stage &in, Stage &out)
{
    // The worker's stacks are built here, so its allocations come
    // from its own thread's arena. A worker that failed keeps
    // passing chunks on (unread), so nobody waits on it forever;
    // collect() rethrows its exception.
    try {
        worker.start(_config);
    } catch (...) {
        worker.error = std::current_exception();
    }
    for (std::uint64_t k = 0; in.waitPast(k); ++k) {
        std::size_t slot = k % ringChunks;
        if (!worker.error) {
            try {
                worker.process(&_refs[slot * chunkRefs],
                               &_flags[slot * chunkRefs * _lineCount],
                               _producer.sizes[slot]);
            } catch (...) {
                worker.error = std::current_exception();
            }
        }
        out.advance();
    }
    out.close();
}

ReuseProfiler::Ref *
ReuseProfiler::Pipeline::publish(std::size_t count)
{
    std::uint64_t k = _producer.published++;
    _producer.sizes[k % ringChunks] = count;
    _produced.advance();
    // Chunk k + 1 takes the slot of chunk k + 1 - ringChunks, which
    // the cluster and CPU workers read last.
    std::uint64_t next = k + 1;
    if (next >= ringChunks) {
        _clusterDone.waitPast(next - ringChunks);
        _cpuDone.waitPast(next - ringChunks);
    }
    return &_refs[next % ringChunks * chunkRefs];
}

ReuseProfiler::Ref *
ReuseProfiler::Pipeline::drain(std::size_t count)
{
    Ref *next = publish(count);
    _clusterDone.waitPast(_producer.published - 1);
    _cpuDone.waitPast(_producer.published - 1);
    return next;
}

void
ReuseProfiler::Pipeline::collect(ReuseProfile &profile) const
{
    for (const std::exception_ptr &error :
         {_machine.error, _cluster.error, _cpu.error}) {
        if (error)
            std::rethrow_exception(error);
    }
    _machine.collect(profile);
    _cluster.collect(profile);
    _cpu.collect(profile);
}

ReuseProfiler::ReuseProfiler(ProfilerConfig config)
    : _config(std::move(config))
{
    panic_if(_config.numClusters <= 0 ||
                 _config.cpusPerCluster <= 0,
             "profiler needs a positive topology");
    panic_if(_config.numClusters * _config.cpusPerCluster > 64,
             "sharing masks support at most 64 processors");
    panic_if(_config.lineSizes.empty(),
             "profiler needs at least one line size");
    panic_if(_config.sampleShift >= 32,
             "sample shift ", _config.sampleShift, " is absurd");

    _profile.numClusters = _config.numClusters;
    _profile.cpusPerCluster = _config.cpusPerCluster;
    _profile.sampleRate = 1u << _config.sampleShift;

    int cpus = _config.numClusters * _config.cpusPerCluster;
    for (std::uint32_t lineBytes : _config.lineSizes) {
        panic_if(lineBytes == 0 ||
                     (lineBytes & (lineBytes - 1)) != 0,
                 "line size ", lineBytes, " is not a power of two");
        LineProfile profile;
        profile.lineBytes = lineBytes;
        profile.clusters.resize((std::size_t)_config.numClusters);
        profile.cpus.resize((std::size_t)cpus);
        _profile.lines.push_back(std::move(profile));
    }

    _pipeline = std::make_unique<Pipeline>(_config);
    _fill = _pipeline->first();
}

ReuseProfiler::~ReuseProfiler() = default;

void
ReuseProfiler::onRef(CpuId cpu, RefType type, Addr addr)
{
    panic_if(cpu < 0 || cpu >= _profile.totalCpus(),
             "profiled reference from unexpected cpu ", cpu);
    bool write = type == RefType::Write;
    ++_profile.references;
    if (write)
        ++_profile.writes;
    else
        ++_profile.reads;
    if (_config.sampleShift) {
        // Under SHARDS most references touch no tracked line at any
        // line size: keep those off the ring.
        bool kept = false;
        for (std::uint32_t lineBytes : _config.lineSizes)
            kept |= sampled(addr >> std::countr_zero(lineBytes),
                            _config.sampleShift);
        if (!kept)
            return;
    }
    _fill[_filled] = Ref{addr, (std::int16_t)cpu, write};
    if (++_filled == chunkRefs) {
        _fill = _pipeline->publish(_filled);
        _filled = 0;
    }
}

void
ReuseProfiler::setInstructions(std::uint64_t instructions)
{
    _profile.instructions = instructions;
}

const ReuseProfile &
ReuseProfiler::profile()
{
    _fill = _pipeline->drain(_filled);
    _filled = 0;
    _pipeline->collect(_profile);
    return _profile;
}

} // namespace scmp::model
