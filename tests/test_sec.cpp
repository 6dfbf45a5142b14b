/**
 * @file
 * Directed cache-isolation tests (src/sec).
 *
 * Three layers. TagArray unit tests pin each mitigation's placement
 * policy: way partitioning confines every domain's fills to its way
 * slice, coloring carves the index space into disjoint per-domain
 * regions, and randomized indexing decorrelates the domains' maps
 * and remaps on rekey — while probe() stays domain-agnostic, so the
 * single resident copy is always found (isolation constrains
 * placement, never coherence). LeakageAnalyzer tests pin the
 * channel-quality arithmetic on known distributions. Machine-level
 * tests then run the actual prime+probe spy on both protocols: with
 * --isolation=none the spy reads the secret almost perfectly, and
 * each mitigation collapses it to the chance floor.
 */

#include <gtest/gtest.h>

#include <set>

#include "check/checker.hh"
#include "core/machine.hh"
#include "core/parallel_run.hh"
#include "mem/scc.hh"
#include "sec/leakage.hh"
#include "workloads/sec/prime_probe.hh"

namespace
{

using namespace scmp;

// ---------------------------------------------------------------
// SecParams parsing
// ---------------------------------------------------------------

TEST(SecParams, ParseRoundTrip)
{
    const IsolationMode modes[] = {
        IsolationMode::None,
        IsolationMode::WayPart,
        IsolationMode::Color,
        IsolationMode::Rand,
    };
    for (IsolationMode mode : modes) {
        IsolationMode parsed = IsolationMode::None;
        EXPECT_TRUE(
            parseName(nameOf(mode), &parsed));
        EXPECT_EQ(parsed, mode);
    }
    IsolationMode parsed = IsolationMode::None;
    EXPECT_FALSE(parseName("flush", &parsed));
    EXPECT_FALSE(parseName("", &parsed));
}

// ---------------------------------------------------------------
// TagArray placement policies
// ---------------------------------------------------------------

SecParams
secParams(IsolationMode mode, int domains = 2)
{
    SecParams sec;
    sec.mode = mode;
    sec.domains = domains;
    return sec;
}

/** Way partitioning: victim() never leaves the domain's slice. */
TEST(TagArrayIsolation, WayPartConfinesFillsToDomainSlice)
{
    TagArray tags(4 << 10, 16, 4,
                  secParams(IsolationMode::WayPart));
    // Four lines per set but only two ways per domain: both
    // domains hammer the same set and must self-evict within
    // their own slice, never each other's.
    constexpr Addr base = 0x10000;
    std::uint64_t stride = tags.numSets() * 16;
    for (int round = 0; round < 4; ++round) {
        for (int domain = 0; domain < 2; ++domain) {
            Addr addr = base + (Addr)(round + 4 * domain) * stride;
            CacheLine *line = tags.victim(addr, domain);
            if (line->valid()) {
                EXPECT_EQ(line->domain, domain);
            }
            tags.fill(line, addr, CoherenceState::Shared, domain);
        }
    }
    std::uint32_t waysPerDomain = tags.assoc() / 2;
    std::size_t idx = 0;
    std::uint64_t valid = 0;
    tags.forEachLine([&](const CacheLine &line) {
        std::uint64_t set = idx / tags.assoc();
        std::uint32_t way = (std::uint32_t)(idx % tags.assoc());
        ++idx;
        if (!line.valid())
            return;
        ++valid;
        EXPECT_EQ(way / waysPerDomain, line.domain);
        EXPECT_TRUE(tags.placementValid(line, set, way));
    });
    EXPECT_EQ(valid, tags.assoc());
}

/** Coloring: disjoint per-domain index regions, shared probe. */
TEST(TagArrayIsolation, ColorCarvesDisjointRegions)
{
    TagArray tags(4 << 10, 16, 2, secParams(IsolationMode::Color));
    std::uint64_t half = tags.numSets() / 2;
    for (Addr addr = 0x20000; addr < 0x21000; addr += 16) {
        EXPECT_LT(tags.setIndexFor(addr, 0), half);
        EXPECT_GE(tags.setIndexFor(addr, 1), half);
    }
    // A line filled by domain 1 sits in domain 1's region yet is
    // found by a plain probe — a snooping cluster-mate in another
    // domain must still see the one resident copy.
    constexpr Addr addr = 0x20040;
    CacheLine *line = tags.victim(addr, 1);
    tags.fill(line, addr, CoherenceState::Modified, 1);
    const CacheLine *found = tags.probe(addr);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->state, CoherenceState::Modified);
    EXPECT_EQ(found->domain, 1);
    EXPECT_TRUE(tags.placementValid(
        *found, tags.setIndexFor(addr, 1),
        0));  // assoc-2 array: filled the invalid way 0 first
}

/** Rand: domains map differently, and rekeying remaps. */
TEST(TagArrayIsolation, RandDecorrelatesAndRekeys)
{
    TagArray tags(16 << 10, 16, 2, secParams(IsolationMode::Rand));
    int differ = 0;
    std::set<std::uint64_t> spread;
    for (int i = 0; i < 256; ++i) {
        Addr addr = 0x30000 + (Addr)i * 16;
        std::uint64_t s0 = tags.setIndexFor(addr, 0);
        std::uint64_t s1 = tags.setIndexFor(addr, 1);
        EXPECT_LT(s0, tags.numSets());
        EXPECT_LT(s1, tags.numSets());
        differ += s0 != s1 ? 1 : 0;
        spread.insert(s0);
    }
    // A keyed hash that left the domains aligned (or collapsed the
    // index space) would be a transparent mitigation.
    EXPECT_GT(differ, 200);
    EXPECT_GT(spread.size(), 64u);

    constexpr Addr addr = 0x30040;
    std::uint64_t before = tags.setIndexFor(addr, 0);
    CacheLine *line = tags.victim(addr, 0);
    tags.fill(line, addr, CoherenceState::Shared, 0);
    EXPECT_NE(tags.probe(addr), nullptr);

    tags.rekey();
    EXPECT_EQ(tags.rekeyEpoch(), 1u);
    int moved = 0;
    for (int i = 0; i < 256; ++i) {
        Addr a = 0x30000 + (Addr)i * 16;
        moved += tags.setIndexFor(a, 0) != before &&
                         tags.setIndexFor(a, 0) !=
                             tags.setIndexFor(a, 1)
                     ? 1
                     : 0;
    }
    EXPECT_GT(moved, 0);
    // The stale resident line now violates placement — exactly why
    // the SCC flushes around rekey().
    std::size_t idx = 0;
    tags.forEachLine([&](const CacheLine &l) {
        std::uint64_t set = idx / tags.assoc();
        std::uint32_t way = (std::uint32_t)(idx % tags.assoc());
        ++idx;
        if (l.valid() && tags.setIndexFor(l.tag, l.domain) != set) {
            EXPECT_FALSE(tags.placementValid(l, set, way));
        }
    });
}

/** None: the isolated entry points reduce to the plain array. */
TEST(TagArrayIsolation, NoneIsPlainArray)
{
    TagArray tags(4 << 10, 16, 2);
    EXPECT_FALSE(tags.isolated());
    for (Addr addr = 0x40000; addr < 0x40400; addr += 16) {
        EXPECT_EQ(tags.setIndexFor(addr, 0), tags.setIndex(addr));
        EXPECT_EQ(tags.setIndexFor(addr, 7), tags.setIndex(addr));
    }
}

/** The machine rejects geometry the mitigations cannot partition. */
TEST(TagArrayIsolation, ConfigValidationRejectsBadGeometry)
{
    MachineConfig config;
    config.scc.sec.mode = IsolationMode::WayPart;
    config.scc.sec.domains = 2;
    config.scc.assoc = 1;  // 1 way cannot split into 2 domains
    EXPECT_DEATH(config.check(), "waypart");

    MachineConfig color;
    color.scc.sec.mode = IsolationMode::Color;
    color.scc.sec.domains = 3;  // colors must be a power of two
    EXPECT_DEATH(color.check(), "color");

    MachineConfig priv;
    priv.organization = ClusterOrganization::PrivateCaches;
    priv.privateCacheBytes = 16 << 10;
    priv.scc.sec.mode = IsolationMode::Color;
    EXPECT_DEATH(priv.check(), "shared");
}

// ---------------------------------------------------------------
// SCC rekey flush
// ---------------------------------------------------------------

TEST(SccIsolation, RandRekeyFlushesAndRestartsFillEpoch)
{
    MachineConfig config;
    config.numClusters = 1;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 4 << 10;
    config.scc.sec.mode = IsolationMode::Rand;
    config.scc.sec.domains = 2;
    config.scc.sec.rekeyFills = 16;
    config.checkCoherence = true;
    config.checkWalkInterval = 0;  // walk every transaction

    Machine machine(config);
    Cycle t = 0;
    for (int i = 0; i < 64; ++i) {
        int cpu = i % 2;
        Addr addr = 0x50000 + (Addr)i * 256;
        t = machine.access(cpu, RefType::Read, addr, t, 1);
    }
    // 64 distinct-line fills over a 16-fill rekey interval: the
    // tags must have turned their key epoch several times, and the
    // checker's walks must have covered partition placements.
    EXPECT_GE(machine.scc(0).tags().rekeyEpoch(), 2u);
    EXPECT_GT(machine.checker()->partitionChecks.value(), 0);
}

// ---------------------------------------------------------------
// LeakageAnalyzer
// ---------------------------------------------------------------

TEST(LeakageAnalyzer, PerfectChannelScoresFullAlphabet)
{
    sec::LeakageAnalyzer analyzer(8);
    for (int e = 0; e < 80; ++e)
        analyzer.addEpoch(e % 8, e % 8);
    sec::LeakageReport report = analyzer.report();
    EXPECT_EQ(report.epochs, 80u);
    EXPECT_DOUBLE_EQ(report.probeAccuracy, 1.0);
    EXPECT_DOUBLE_EQ(report.chanceAccuracy, 0.125);
    EXPECT_NEAR(report.bitsPerEpoch, 3.0, 1e-9);
}

TEST(LeakageAnalyzer, ConstantGuessLeaksNothing)
{
    sec::LeakageAnalyzer analyzer(8);
    for (int e = 0; e < 80; ++e)
        analyzer.addEpoch(e % 8, 0);
    sec::LeakageReport report = analyzer.report();
    EXPECT_NEAR(report.probeAccuracy, 0.125, 1e-9);
    EXPECT_NEAR(report.bitsPerEpoch, 0.0, 1e-9);
}

TEST(LeakageAnalyzer, SeriesArgmaxRecoversChannel)
{
    // Interval series scoring: each epoch's per-set samples peak at
    // the secret set, so the argmax decoder reads the full symbol.
    std::vector<int> secrets;
    std::vector<std::vector<double>> samples;
    for (int e = 0; e < 32; ++e) {
        int secret = e % 4;
        secrets.push_back(secret);
        std::vector<double> row(4, 1.0);
        row[(std::size_t)secret] = 5.0;
        samples.push_back(row);
    }
    EXPECT_NEAR(sec::LeakageAnalyzer::seriesMutualInformation(
                    secrets, samples, 4),
                2.0, 1e-9);

    // Flat rows carry nothing.
    for (auto &row : samples)
        row.assign(4, 2.0);
    EXPECT_NEAR(sec::LeakageAnalyzer::seriesMutualInformation(
                    secrets, samples, 4),
                0.0, 1e-9);
}

// ---------------------------------------------------------------
// The spy itself, machine level
// ---------------------------------------------------------------

struct SpyCase
{
    CoherenceProtocol protocol;
    IsolationMode mode;
};

class SpyRecoveryTest : public ::testing::TestWithParam<SpyCase>
{
};

RunResult
runSpy(const SpyCase &param)
{
    MachineConfig config;
    config.numClusters = 1;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 16 << 10;
    config.scc.lineBytes = 16;
    config.scc.assoc = 4;
    config.scc.protocol = param.protocol;
    config.scc.sec.mode = param.mode;
    config.scc.sec.domains = 2;
    if (param.mode == IsolationMode::Rand)
        config.scc.sec.rekeyFills = 512;
    config.checkCoherence = true;

    secwork::PrimeProbeParams params =
        secwork::paramsFor(config, /*epochs=*/64, /*symbols=*/8);
    secwork::PrimeProbeWorkload workload(params);
    RunResult result = runParallel(config, workload);
    EXPECT_TRUE(result.verified);
    EXPECT_EQ(result.secEpochs, 64u);
    EXPECT_DOUBLE_EQ(result.secChanceAccuracy, 0.125);
    return result;
}

TEST_P(SpyRecoveryTest, OpenCacheLeaksMitigatedCacheDoesNot)
{
    RunResult result = runSpy(GetParam());
    if (GetParam().mode == IsolationMode::None) {
        // The open shared cache is a readable channel: the spy
        // recovers nearly every symbol and carries most of the
        // 3-bit alphabet per epoch.
        EXPECT_GE(result.secProbeAccuracy, 0.9);
        EXPECT_GE(result.leakBitsPerEpoch, 2.0);
    } else {
        // Each mitigation collapses the spy to the chance floor.
        EXPECT_LE(result.secProbeAccuracy, 0.3);
        EXPECT_LE(result.leakBitsPerEpoch, 0.5);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsByMode, SpyRecoveryTest,
    ::testing::Values(
        SpyCase{CoherenceProtocol::WriteInvalidate,
                IsolationMode::None},
        SpyCase{CoherenceProtocol::WriteInvalidate,
                IsolationMode::WayPart},
        SpyCase{CoherenceProtocol::WriteInvalidate,
                IsolationMode::Color},
        SpyCase{CoherenceProtocol::WriteInvalidate,
                IsolationMode::Rand},
        SpyCase{CoherenceProtocol::WriteUpdate,
                IsolationMode::None},
        SpyCase{CoherenceProtocol::WriteUpdate,
                IsolationMode::WayPart},
        SpyCase{CoherenceProtocol::WriteUpdate,
                IsolationMode::Color},
        SpyCase{CoherenceProtocol::WriteUpdate,
                IsolationMode::Rand}));

} // namespace
