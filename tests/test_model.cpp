/**
 * @file
 * Unit tests for the reuse-distance machinery (src/model): the
 * exact stack-distance tracker against an O(n) reference stack,
 * histogram algebra (merge associativity, dilation), the
 * profiler's scope bookkeeping on deterministic synthetic traces
 * (read-only, and mixed read/write at the sweep's 4x8 shape against
 * a reference with the write-invalidate rule), and coherence-miss
 * classification.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "model/reuse_profile.hh"

namespace
{

using namespace scmp;
using namespace scmp::model;

/** O(n)-per-access reference implementation of LRU stack distance. */
struct SlowStack
{
    std::vector<std::uint64_t> stack; // most recent at back

    std::uint64_t
    access(std::uint64_t line)
    {
        for (std::size_t i = stack.size(); i-- > 0;) {
            if (stack[i] == line) {
                std::uint64_t distance = stack.size() - 1 - i;
                stack.erase(stack.begin() + (long)i);
                stack.push_back(line);
                return distance;
            }
        }
        stack.push_back(line);
        return StackDistance::coldDistance;
    }
};

/** Deterministic LCG so the trace is identical on every platform. */
struct Lcg
{
    std::uint64_t state = 12345;

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        return state >> 33;
    }
};

TEST(StackDistance, MatchesSlowReferenceOnRandomTrace)
{
    StackDistance fast;
    SlowStack slow;
    Lcg rng;
    for (int i = 0; i < 60'000; ++i) {
        std::uint64_t line = rng.next() % 3000;
        ASSERT_EQ(fast.access(line), slow.access(line))
            << "diverged at access " << i;
    }
    EXPECT_EQ(fast.liveLines(), slow.stack.size());
}

TEST(StackDistance, SurvivesClockCompaction)
{
    // Six sweeps over 20K lines churn through far more time slots
    // than live lines, forcing the Fenwick clock to compact. After
    // the cold sweep every access must still measure exactly
    // numLines - 1 distinct lines in between.
    constexpr std::uint64_t numLines = 20'000;
    StackDistance stack;
    for (std::uint64_t line = 0; line < numLines; ++line)
        EXPECT_EQ(stack.access(line), StackDistance::coldDistance);
    for (int round = 0; round < 5; ++round) {
        for (std::uint64_t line = 0; line < numLines; ++line)
            ASSERT_EQ(stack.access(line), numLines - 1)
                << "round " << round << " line " << line;
    }
    EXPECT_EQ(stack.liveLines(), numLines);
}

TEST(ReuseHistogram, BucketBoundaries)
{
    // Bucket 0 holds distance 0; bucket b >= 1 holds
    // [2^(b-1), 2^b) — capacities that are powers of two then read
    // an exact bucket prefix.
    EXPECT_EQ(ReuseHistogram::bucketOf(0), 0);
    EXPECT_EQ(ReuseHistogram::bucketOf(1), 1);
    EXPECT_EQ(ReuseHistogram::bucketOf(2), 2);
    EXPECT_EQ(ReuseHistogram::bucketOf(3), 2);
    EXPECT_EQ(ReuseHistogram::bucketOf(4), 3);
    EXPECT_EQ(ReuseHistogram::bucketOf(1023), 10);
    EXPECT_EQ(ReuseHistogram::bucketOf(1024), 11);
}

ReuseHistogram
randomHistogram(Lcg &rng)
{
    ReuseHistogram histogram;
    for (int i = 0; i < 200; ++i)
        histogram.addDistance(rng.next() % 100'000,
                              1 + rng.next() % 7);
    histogram.addCold(rng.next() % 50);
    histogram.addCoherence(rng.next() % 50);
    return histogram;
}

TEST(ReuseHistogram, MergeIsAssociativeAndCommutative)
{
    Lcg rng;
    const ReuseHistogram a = randomHistogram(rng);
    const ReuseHistogram b = randomHistogram(rng);
    const ReuseHistogram c = randomHistogram(rng);

    ReuseHistogram leftFirst = a;
    leftFirst.merge(b);
    leftFirst.merge(c);

    ReuseHistogram rightFirst = b;
    rightFirst.merge(c);
    ReuseHistogram result = a;
    result.merge(rightFirst);
    EXPECT_EQ(leftFirst, result);

    ReuseHistogram swapped = b;
    swapped.merge(a);
    ReuseHistogram forward = a;
    forward.merge(b);
    EXPECT_EQ(forward, swapped);
}

TEST(ReuseHistogram, DilationShiftsDistancesPreservesCounts)
{
    ReuseHistogram histogram;
    histogram.addDistance(0, 3);
    histogram.addDistance(5, 2);
    histogram.addDistance(100, 4);
    histogram.addCold(7);
    histogram.addCoherence(2);

    ReuseHistogram dilated = histogram.dilated(4);
    EXPECT_EQ(dilated.samples, histogram.samples);
    EXPECT_EQ(dilated.cold, histogram.cold);
    EXPECT_EQ(dilated.coherence, histogram.coherence);
    EXPECT_EQ(dilated.reuses(), histogram.reuses());
    // Each distance d moved to bucketOf(4d); distance 0 stays.
    EXPECT_EQ(dilated.buckets[ReuseHistogram::bucketOf(0)], 3u);
    EXPECT_EQ(dilated.buckets[ReuseHistogram::bucketOf(20)], 2u);
    EXPECT_EQ(dilated.buckets[ReuseHistogram::bucketOf(400)], 4u);
}

TEST(ReuseHistogram, HitsUnderReadsBucketPrefix)
{
    ReuseHistogram histogram;
    histogram.addDistance(0);    // hits in any cache
    histogram.addDistance(7);    // needs capacity > 7
    histogram.addDistance(100);  // needs capacity > 100
    histogram.addCold(5);        // never hits

    EXPECT_EQ(histogram.hitsUnder(1), 1u);
    EXPECT_EQ(histogram.hitsUnder(4), 1u);
    EXPECT_EQ(histogram.hitsUnder(8), 2u);
    EXPECT_EQ(histogram.hitsUnder(128), 3u);
}

/**
 * Reference profiler: the same scope layout as ReuseProfiler
 * (machine / cluster / cpu) built from SlowStacks, with the
 * write-invalidate rule kept per line in a std::map: a scope's
 * copy is stale when the scope held the line (`ever`), no member
 * touched it since the last write (`sinceWrite`), and the last
 * writer is outside the scope. A stale reuse is a coherence miss,
 * not a distance sample; the machine scope is never stale.
 */
struct SlowScopes
{
    struct Sharing
    {
        int lastWriter = -1;
        std::uint64_t ever = 0;
        std::uint64_t sinceWrite = 0;
    };

    int cpusPerCluster;
    SlowStack machine;
    std::vector<SlowStack> clusters;
    std::vector<SlowStack> cpus;
    ScopeProfile machineScope;
    std::vector<ScopeProfile> clusterScopes;
    std::vector<ScopeProfile> cpuScopes;
    std::map<std::uint64_t, Sharing> sharing;

    SlowScopes(int numClusters, int perCluster)
        : cpusPerCluster(perCluster), clusters(numClusters),
          cpus(numClusters * perCluster),
          clusterScopes(numClusters),
          cpuScopes(numClusters * perCluster)
    {
    }

    void
    access(int cpu, RefType type, std::uint64_t line)
    {
        bool isRead = type != RefType::Write;
        int cluster = cpu / cpusPerCluster;
        std::uint64_t cpuBit = 1ull << cpu;
        std::uint64_t clusterBits = ((1ull << cpusPerCluster) - 1)
                                    << (cluster * cpusPerCluster);
        Sharing &sh = sharing[line];
        bool written = sh.lastWriter >= 0;
        bool cpuStale = written && sh.lastWriter != cpu &&
                        (sh.ever & cpuBit) &&
                        !(sh.sinceWrite & cpuBit);
        bool clusterStale =
            written && sh.lastWriter / cpusPerCluster != cluster &&
            (sh.ever & clusterBits) &&
            !(sh.sinceWrite & clusterBits);
        sh.ever |= cpuBit;
        if (isRead) {
            sh.sinceWrite |= cpuBit;
        } else {
            sh.lastWriter = cpu;
            sh.sinceWrite = cpuBit;
        }

        auto record = [&](ScopeProfile &scope, std::uint64_t d,
                          bool stale) {
            ReuseHistogram &h = isRead ? scope.reads : scope.writes;
            if (d == StackDistance::coldDistance)
                h.addCold();
            else if (stale)
                h.addCoherence();
            else
                h.addDistance(d);
        };
        record(machineScope, machine.access(line), false);
        record(clusterScopes[cluster], clusters[cluster].access(line),
               clusterStale);
        record(cpuScopes[cpu], cpus[cpu].access(line), cpuStale);
    }

    void
    read(int cpu, std::uint64_t line)
    {
        access(cpu, RefType::Read, line);
    }
};

TEST(ReuseProfiler, ExactHistogramsOnSyntheticTrace)
{
    // 2 clusters x 2 cpus; a deterministic read-only trace with
    // private, cluster-shared, and globally-shared lines. The
    // profiler's histograms must equal the slow reference's at
    // every scope, exactly.
    ProfilerConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    config.lineSizes = {16};
    ReuseProfiler profiler(config);
    SlowScopes slow(2, 2);

    Lcg rng;
    for (int i = 0; i < 40'000; ++i) {
        int cpu = (int)(rng.next() % 4);
        std::uint64_t line;
        switch (rng.next() % 3) {
          case 0: // private region per cpu
            line = 0x1000 * (cpu + 1) + rng.next() % 64;
            break;
          case 1: // shared within the cluster
            line = 0x10000 * (cpu / 2 + 1) + rng.next() % 64;
            break;
          default: // shared machine-wide
            line = 0x100000 + rng.next() % 64;
            break;
        }
        profiler.onRef(cpu, RefType::Read, line * 16);
        slow.read(cpu, line);
    }

    const LineProfile *lineProfile =
        profiler.profile().lineFor(16);
    ASSERT_NE(lineProfile, nullptr);
    EXPECT_EQ(lineProfile->machine.reads, slow.machineScope.reads);
    for (int c = 0; c < 2; ++c)
        EXPECT_EQ(lineProfile->clusters[c].reads,
                  slow.clusterScopes[c].reads)
            << "cluster " << c;
    for (int cpu = 0; cpu < 4; ++cpu)
        EXPECT_EQ(lineProfile->cpus[cpu].reads,
                  slow.cpuScopes[cpu].reads)
            << "cpu " << cpu;
    EXPECT_EQ(profiler.profile().references, 40'000u);
    EXPECT_EQ(profiler.profile().reads, 40'000u);
}

TEST(ReuseProfiler, ExactReadWriteHistogramsAtSweepShape)
{
    // 4 clusters x 8 cpus, the shape the sweep screen profiles at,
    // on a mixed trace: a quarter of the references are writes, to
    // private, cluster-shared and machine-shared lines, so both
    // grouped scopes see coherence misses. Accesses skew towards a
    // hot eighth of each region. Footprints (224 lines per cpu,
    // 1120 per cluster, 4384 machine-wide) against 12.5K accesses
    // per cpu, 100K per cluster and 400K machine-wide force every
    // scope's stack through several slot compactions. The
    // profiler's read and write histograms must equal the slow
    // reference's at every scope, exactly.
    constexpr int numClusters = 4;
    constexpr int perCluster = 8;
    constexpr int numCpus = numClusters * perCluster;
    ProfilerConfig config;
    config.numClusters = numClusters;
    config.cpusPerCluster = perCluster;
    config.lineSizes = {16};
    ReuseProfiler profiler(config);
    SlowScopes slow(numClusters, perCluster);

    Lcg rng;
    auto pick = [&rng](std::uint64_t lines) {
        return rng.next() % 4 ? rng.next() % (lines / 8)
                              : rng.next() % lines;
    };
    std::uint64_t writes = 0;
    for (int i = 0; i < 400'000; ++i) {
        int cpu = (int)(rng.next() % numCpus);
        std::uint64_t region = rng.next() % 10;
        std::uint64_t line;
        if (region < 5) // private to the cpu
            line = 0x100000ull * (cpu + 1) + pick(128);
        else if (region < 8) // shared within the cluster
            line = 0x10000000ull +
                   0x100000ull * (cpu / perCluster) + pick(64);
        else // shared machine-wide
            line = 0x20000000ull + pick(32);
        RefType type =
            rng.next() % 4 ? RefType::Read : RefType::Write;
        writes += type == RefType::Write;
        profiler.onRef(cpu, type, line * 16);
        slow.access(cpu, type, line);
    }

    const LineProfile *lineProfile =
        profiler.profile().lineFor(16);
    ASSERT_NE(lineProfile, nullptr);
    EXPECT_EQ(lineProfile->machine, slow.machineScope);
    for (int c = 0; c < numClusters; ++c)
        EXPECT_EQ(lineProfile->clusters[c], slow.clusterScopes[c])
            << "cluster " << c;
    for (int cpu = 0; cpu < numCpus; ++cpu)
        EXPECT_EQ(lineProfile->cpus[cpu], slow.cpuScopes[cpu])
            << "cpu " << cpu;
    EXPECT_EQ(profiler.profile().references, 400'000u);
    EXPECT_EQ(profiler.profile().writes, writes);

    // The trace must actually exercise the write-invalidate rule at
    // both grouped scopes, for reads and for writes.
    EXPECT_GT(slow.clusterScopes[0].reads.coherence, 0u);
    EXPECT_GT(slow.clusterScopes[0].writes.coherence, 0u);
    EXPECT_GT(slow.cpuScopes[0].reads.coherence, 0u);
    EXPECT_GT(slow.cpuScopes[0].writes.coherence, 0u);
}

TEST(ReuseProfiler, RemoteWriteIsACoherenceMissNotAReuse)
{
    // cpu0 (cluster 0) reads a line, cpu2 (cluster 1) writes it,
    // cpu0 reads it again. At cluster-0 scope the second read finds
    // the copy invalidated: a coherence miss, not a distance
    // sample. At machine scope the writer is local, so the same
    // read is an ordinary distance-0 reuse.
    ProfilerConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    ReuseProfiler profiler(config);

    profiler.onRef(0, RefType::Read, 0x40);
    profiler.onRef(2, RefType::Write, 0x40);
    profiler.onRef(0, RefType::Read, 0x40);

    const LineProfile *lineProfile =
        profiler.profile().lineFor(16);
    ASSERT_NE(lineProfile, nullptr);
    const ReuseHistogram &cluster0 =
        lineProfile->clusters[0].reads;
    EXPECT_EQ(cluster0.coherence, 1u);
    EXPECT_EQ(cluster0.cold, 1u);
    EXPECT_EQ(cluster0.samples, 2u);
    for (std::uint64_t count : cluster0.buckets)
        EXPECT_EQ(count, 0u); // never classified by distance

    const ReuseHistogram &machine =
        lineProfile->machine.reads;
    EXPECT_EQ(machine.coherence, 0u);
    EXPECT_EQ(machine.buckets[0], 1u); // distance-0 reuse
}

TEST(ReuseProfiler, SamplingScalesCountsBackUp)
{
    // SHARDS sampling tracks 1/2^shift of the lines and scales the
    // recorded counts by 2^shift: on a wide uniform trace the
    // scaled sample total must land near the exact total, and
    // every scaled count must be a multiple of the rate.
    ProfilerConfig exactConfig;
    exactConfig.numClusters = 1;
    exactConfig.cpusPerCluster = 1;
    ReuseProfiler exact(exactConfig);

    ProfilerConfig sampledConfig = exactConfig;
    sampledConfig.sampleShift = 3;
    ReuseProfiler sampled(sampledConfig);

    Lcg rng;
    for (int i = 0; i < 200'000; ++i) {
        Addr addr = (rng.next() % 50'000) * 16;
        exact.onRef(0, RefType::Read, addr);
        sampled.onRef(0, RefType::Read, addr);
    }

    const ReuseHistogram &exactReads =
        exact.profile().lineFor(16)->machine.reads;
    const ReuseHistogram &sampledReads =
        sampled.profile().lineFor(16)->machine.reads;
    EXPECT_EQ(sampled.profile().sampleRate, 8u);
    EXPECT_EQ(sampledReads.samples % 8, 0u);
    double ratio = (double)sampledReads.samples /
                   (double)exactReads.samples;
    EXPECT_NEAR(ratio, 1.0, 0.15)
        << "sampled=" << sampledReads.samples
        << " exact=" << exactReads.samples;
}

TEST(MergeCpuScopes, GroupsAndDilatesPerCpuStreams)
{
    // Four per-cpu scopes merged into two groups of two: counts
    // add, and each stream's distances are dilated by the group
    // size (the statistical interleaving approximation).
    std::vector<ScopeProfile> cpus(4);
    for (int cpu = 0; cpu < 4; ++cpu) {
        cpus[cpu].reads.addDistance(8, cpu + 1);
        cpus[cpu].reads.addCold(1);
    }
    std::vector<ScopeProfile> groups = mergeCpuScopes(cpus, 2);
    ASSERT_EQ(groups.size(), 2u);
    // Group 0 = cpus {0,1}: weights 1+2 at distance 16 (8 x 2).
    int bucket16 = ReuseHistogram::bucketOf(16);
    EXPECT_EQ(groups[0].reads.buckets[bucket16], 3u);
    EXPECT_EQ(groups[1].reads.buckets[bucket16], 7u);
    EXPECT_EQ(groups[0].reads.cold, 2u);
    EXPECT_EQ(groups[1].reads.cold, 2u);
}

} // namespace
