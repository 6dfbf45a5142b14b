/**
 * @file
 * Tests for the Machine (topology routing, aggregation) and the
 * instruction cache.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "net/tree.hh"

namespace
{

using namespace scmp;

TEST(Machine, TopologyMapping)
{
    MachineConfig config;
    config.numClusters = 4;
    config.cpusPerCluster = 8;
    Machine machine(config);

    EXPECT_EQ(machine.clusterOf(0), 0);
    EXPECT_EQ(machine.clusterOf(7), 0);
    EXPECT_EQ(machine.clusterOf(8), 1);
    EXPECT_EQ(machine.clusterOf(31), 3);
    EXPECT_EQ(machine.localIndexOf(13), 5);
}

TEST(Machine, RoutesAccessesToOwnCluster)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    Machine machine(config);

    machine.access(0, RefType::Read, 0x1000, 0, 1);
    machine.access(3, RefType::Read, 0x2000, 0, 1);

    EXPECT_EQ((std::uint64_t)machine.scc(0).readMisses.value(),
              1u);
    EXPECT_EQ((std::uint64_t)machine.scc(1).readMisses.value(),
              1u);
    EXPECT_EQ(machine.dataAccesses(), 2u);
}

TEST(Machine, AggregatesMissRates)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 1;
    Machine machine(config);

    Cycle now = 0;
    machine.access(0, RefType::Read, 0x100, now, 1);  // miss
    now += 200;
    machine.access(0, RefType::Read, 0x100, now, 1);  // hit
    now += 200;
    machine.access(1, RefType::Read, 0x300, now, 1);  // miss
    now += 200;
    machine.access(1, RefType::Read, 0x300, now, 1);  // hit

    EXPECT_DOUBLE_EQ(machine.readMissRate(), 0.5);
    EXPECT_DOUBLE_EQ(machine.missRate(), 0.5);
}

TEST(Machine, CrossClusterWritesInvalidate)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 1;
    Machine machine(config);

    Cycle now = 0;
    machine.access(0, RefType::Read, 0x400, now, 1);
    now += 200;
    machine.access(1, RefType::Write, 0x400, now, 1);
    now += 200;
    EXPECT_EQ(machine.invalidations(), 1u);
    EXPECT_EQ(machine.scc(0).stateOf(0x400),
              CoherenceState::Invalid);
}

TEST(Machine, ConfigValidation)
{
    MachineConfig config;
    config.numClusters = 0;
    EXPECT_EXIT(Machine{config}, ::testing::ExitedWithCode(1),
                "at least one cluster");

    MachineConfig badScc;
    badScc.scc.sizeBytes = 3000;
    EXPECT_EXIT(Machine{badScc}, ::testing::ExitedWithCode(1),
                "SCC size");
}

TEST(Machine, TreeNoWiderThanItsPresenceMask)
{
    // The effective segment count (--segments capped at the cache
    // count) must fit the snoop filter's 32-bit presence mask.
    MachineConfig wide;
    wide.numClusters = 33;
    wide.net.topology = NetTopology::Tree;
    wide.net.segments = 33;
    EXPECT_EXIT(wide.check(), ::testing::ExitedWithCode(1),
                "--segments must give at most 32 leaf segments");

    // Private caches count per processor: 9 x 4 caches is 36.
    MachineConfig privateWide;
    privateWide.numClusters = 9;
    privateWide.cpusPerCluster = 4;
    privateWide.organization = ClusterOrganization::PrivateCaches;
    privateWide.net.topology = NetTopology::Tree;
    privateWide.net.segments = 64;
    EXPECT_EXIT(privateWide.check(), ::testing::ExitedWithCode(1),
                "got 36 over 36 caches");

    // 32 segments fit; 64 on 8 clusters clamp to 8; segments are
    // dead off the tree.
    wide.net.segments = 32;
    wide.check();
    MachineConfig clamped;
    clamped.numClusters = 8;
    clamped.net.topology = NetTopology::Tree;
    clamped.net.segments = 64;
    clamped.check();
    EXPECT_EQ(dynamic_cast<HierarchicalNet &>(Machine(clamped).bus())
                  .segments(),
              8);
    wide.net.topology = NetTopology::Atomic;
    wide.net.segments = 33;
    wide.check();
}

TEST(ICache, DisabledAddsNoStall)
{
    MachineConfig config;
    config.icache.enabled = false;
    Machine machine(config);
    machine.setIStream(0, 0x70000000, 64 << 10);
    EXPECT_EQ(machine.icache(0).fetch(100, 0), 0u);
    EXPECT_EQ((std::uint64_t)machine.icache(0).fetches.value(),
              0u);
}

TEST(ICache, SmallCodeFitsAfterWarmup)
{
    MachineConfig config;
    config.icache.enabled = true;
    Machine machine(config);
    // 8 KB of code in a 16 KB icache: after warmup every loop
    // iteration hits.
    machine.setIStream(0, 0x70000000, 8 << 10);
    Cycle now = 0;
    for (int i = 0; i < 200; ++i)
        now += 10 + machine.icache(0).fetch(100, now);
    double missRateEarly = machine.icache(0).missRate();

    for (int i = 0; i < 2000; ++i)
        now += 10 + machine.icache(0).fetch(100, now);
    double missRateLate = machine.icache(0).missRate();
    EXPECT_LT(missRateLate, missRateEarly);
    EXPECT_LT(missRateLate, 0.05);
}

TEST(ICache, LargeCodeKeepsMissing)
{
    MachineConfig config;
    config.icache.enabled = true;
    Machine machine(config);
    machine.setIStream(0, 0x70000000, 512 << 10);
    Cycle now = 0;
    Cycle stall = 0;
    for (int i = 0; i < 2000; ++i) {
        Cycle s = machine.icache(0).fetch(100, now);
        stall += s;
        now += 10 + s;
    }
    EXPECT_GT(stall, 0u);
    EXPECT_GT(machine.icache(0).missRate(), 0.001);
}

TEST(ICache, ContextSwitchRestartsStream)
{
    MachineConfig config;
    config.icache.enabled = true;
    Machine machine(config);
    machine.setIStream(0, 0x70000000, 8 << 10);
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i)
        now += 10 + machine.icache(0).fetch(100, now);
    double missesBefore = machine.icache(0).misses.value();

    // New process, different code segment: cold misses return.
    machine.setIStream(0, 0x78000000, 8 << 10);
    for (int i = 0; i < 200; ++i)
        now += 10 + machine.icache(0).fetch(100, now);
    EXPECT_GT(machine.icache(0).misses.value(), missesBefore);
}

TEST(ICache, DeterministicReplay)
{
    auto run = [] {
        MachineConfig config;
        config.icache.enabled = true;
        Machine machine(config);
        machine.setIStream(0, 0x70000000, 64 << 10);
        Cycle now = 0;
        for (int i = 0; i < 1000; ++i)
            now += 10 + machine.icache(0).fetch(50, now);
        return machine.icache(0).misses.value();
    };
    EXPECT_EQ(run(), run());
}

} // namespace
