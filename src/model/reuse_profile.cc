#include "reuse_profile.hh"

#include <algorithm>
#include <bit>
#include <cmath>

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
    if (!record) {
        Line fresh{};
        fresh.slot = claim();
        _lines.set(line, fresh);
        record = _lines.find(line);
        return coldDistance;
    }
    std::uint64_t distance = distanceAbove(record->slot);
    release(record->slot);
    record->slot = claim();
    return distance;
}

template class BasicStackDistance<StackSlot>;
template class BasicStackDistance<ReuseProfiler::MachineLine>;

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

        LineStacks stacks;
        stacks.lineShift =
            (std::uint32_t)std::countr_zero(lineBytes);
        stacks.clusters.resize((std::size_t)_config.numClusters);
        stacks.cpus.resize((std::size_t)cpus);
        _stacks.push_back(std::move(stacks));
    }
}

void
ReuseProfiler::onRef(CpuId cpu, RefType type, Addr addr)
{
    panic_if(cpu < 0 || cpu >= _profile.totalCpus(),
             "profiled reference from unexpected cpu ", cpu);
    ++_profile.references;
    bool isRead = type != RefType::Write;
    if (isRead)
        ++_profile.reads;
    else
        ++_profile.writes;

    std::uint32_t shift = _config.sampleShift;
    std::uint64_t weight = 1ull << shift;
    int cluster = cpu / _config.cpusPerCluster;
    auto record = [&](ScopeProfile &scope, std::uint64_t d,
                      bool stale) {
        ReuseHistogram &hist = isRead ? scope.reads : scope.writes;
        if (d == StackDistance::coldDistance)
            hist.addCold(weight);
        else if (stale)
            hist.addCoherence(weight);
        else
            hist.addDistance(d << shift, weight);
    };
    for (std::size_t l = 0; l < _stacks.size(); ++l) {
        LineStacks &stacks = _stacks[l];
        LineProfile &profile = _profile.lines[l];
        std::uint64_t line = addr >> stacks.lineShift;
        if (shift && (mix64(line) >> (64 - shift)) != 0)
            continue;

        // The three scopes' records live in three tables: start all
        // three loads before the first lookup waits on its own.
        StackDistance &clusterStack =
            stacks.clusters[(std::size_t)cluster];
        StackDistance &cpuStack = stacks.cpus[(std::size_t)cpu];
        stacks.machine.prefetch(line);
        clusterStack.prefetch(line);
        cpuStack.prefetch(line);

        MachineLine *sh;
        record(profile.machine, stacks.machine.access(line, sh),
               false);

        // Write-invalidate sharing state. A group's copy is stale
        // when the group held the line, nobody in it touched it
        // since the last write, and that writer is outside the
        // group — a sure miss regardless of reuse distance. The
        // machine scope (one shared cache) never pays coherence.
        std::uint64_t cpuBit = 1ull << cpu;
        std::uint64_t clBits =
            ((_config.cpusPerCluster >= 64
                  ? ~0ull
                  : (1ull << _config.cpusPerCluster) - 1))
            << (cluster * _config.cpusPerCluster);
        bool written = sh->lastWriter >= 0;
        bool cpuStale = written && sh->lastWriter != cpu &&
                        (sh->ever & cpuBit) &&
                        !(sh->sinceWrite & cpuBit);
        bool clusterStale =
            written &&
            sh->lastWriter / _config.cpusPerCluster != cluster &&
            (sh->ever & clBits) && !(sh->sinceWrite & clBits);
        sh->ever |= cpuBit;
        if (isRead) {
            sh->sinceWrite |= cpuBit;
        } else {
            sh->lastWriter = (std::int16_t)cpu;
            sh->sinceWrite = cpuBit;
        }

        record(profile.clusters[(std::size_t)cluster],
               clusterStack.access(line), clusterStale);
        record(profile.cpus[(std::size_t)cpu], cpuStack.access(line),
               cpuStale);
    }
}

void
ReuseProfiler::setInstructions(std::uint64_t instructions)
{
    _profile.instructions = instructions;
}

} // namespace scmp::model
