/**
 * @file
 * Coherence tests: MSI transitions between SCCs over the snoopy
 * bus, remote events aimed between two same-line references of one
 * processor, and a randomized property sweep of the single-writer
 * invariant.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/machine.hh"
#include "mem/scc.hh"
#include "net/atomic_bus.hh"
#include "sim/rng.hh"

namespace
{

using namespace scmp;

class CoherenceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root = std::make_unique<stats::Group>("test");
        bus = std::make_unique<AtomicBus>(root.get(), BusParams{});
        for (ClusterId c = 0; c < 4; ++c) {
            groups.push_back(std::make_unique<stats::Group>(
                root.get(), "cluster" + std::to_string(c)));
            sccs.push_back(std::make_unique<SharedClusterCache>(
                groups.back().get(), c, 2, SccParams{},
                bus.get()));
            bus->attach(sccs.back().get());
        }
    }

    /** Advance past all outstanding fills. */
    Cycle
    settle()
    {
        now += 1000;
        return now;
    }

    std::unique_ptr<stats::Group> root;
    std::unique_ptr<AtomicBus> bus;
    std::vector<std::unique_ptr<stats::Group>> groups;
    std::vector<std::unique_ptr<SharedClusterCache>> sccs;
    Cycle now = 0;
};

TEST_F(CoherenceTest, ReadMissFillsShared)
{
    sccs[0]->access(0, RefType::Read, 0x1000, settle());
    EXPECT_EQ(sccs[0]->stateOf(0x1000), CoherenceState::Shared);
    EXPECT_EQ(sccs[1]->stateOf(0x1000), CoherenceState::Invalid);
}

TEST_F(CoherenceTest, WriteMissFillsModifiedAndInvalidates)
{
    sccs[0]->access(0, RefType::Read, 0x2000, settle());
    sccs[1]->access(0, RefType::Read, 0x2000, settle());
    EXPECT_EQ(sccs[1]->stateOf(0x2000), CoherenceState::Shared);

    sccs[2]->access(0, RefType::Write, 0x2000, settle());
    EXPECT_EQ(sccs[2]->stateOf(0x2000), CoherenceState::Modified);
    EXPECT_EQ(sccs[0]->stateOf(0x2000), CoherenceState::Invalid);
    EXPECT_EQ(sccs[1]->stateOf(0x2000), CoherenceState::Invalid);
    EXPECT_EQ(bus->invalidationsPerformed(), 2u);
}

TEST_F(CoherenceTest, UpgradeInvalidatesOtherSharers)
{
    sccs[0]->access(0, RefType::Read, 0x3000, settle());
    sccs[1]->access(0, RefType::Read, 0x3000, settle());

    sccs[0]->access(0, RefType::Write, 0x3000, settle());
    EXPECT_EQ(sccs[0]->stateOf(0x3000), CoherenceState::Modified);
    EXPECT_EQ(sccs[1]->stateOf(0x3000), CoherenceState::Invalid);
    EXPECT_EQ((std::uint64_t)sccs[0]->upgradeHits.value(), 1u);
}

TEST_F(CoherenceTest, RemoteReadOfModifiedDowngrades)
{
    sccs[0]->access(0, RefType::Write, 0x4000, settle());
    ASSERT_EQ(sccs[0]->stateOf(0x4000), CoherenceState::Modified);

    sccs[1]->access(0, RefType::Read, 0x4000, settle());
    EXPECT_EQ(sccs[0]->stateOf(0x4000), CoherenceState::Shared);
    EXPECT_EQ(sccs[1]->stateOf(0x4000), CoherenceState::Shared);
    EXPECT_EQ((std::uint64_t)bus->interventions.value(), 1u);
}

TEST_F(CoherenceTest, IntraClusterSharingNeedsNoProtocol)
{
    // Two processors of the same cluster share through the SCC:
    // a write hit on a Modified line causes no bus traffic.
    sccs[0]->access(0, RefType::Write, 0x5000, settle());
    double before = bus->transactions.value();
    sccs[0]->access(1, RefType::Read, 0x5000, settle());
    sccs[0]->access(1, RefType::Write, 0x5000, settle());
    EXPECT_EQ(bus->transactions.value(), before);
}

TEST_F(CoherenceTest, DirtyEvictionWritesBack)
{
    SccParams params;
    // Two addresses that conflict in the default 64 KB SCC.
    Addr a = 0x10000;
    Addr b = a + params.sizeBytes;
    sccs[0]->access(0, RefType::Write, a, settle());
    sccs[0]->access(0, RefType::Write, b, settle());
    EXPECT_EQ((std::uint64_t)sccs[0]->writeBacks.value(), 1u);
    EXPECT_EQ(sccs[0]->stateOf(a), CoherenceState::Invalid);
    EXPECT_EQ(sccs[0]->stateOf(b), CoherenceState::Modified);
}

/**
 * Two single-processor clusters under the coherence checker, so a
 * reference that missed a remote event would be caught by the
 * golden-memory oracle as well as by the statistics below.
 */
MachineConfig
twoClusterConfig(CoherenceProtocol protocol)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 1;
    config.scc.protocol = protocol;
    config.checkCoherence = true;
    return config;
}

TEST(SccCoherence, RemoteUpgradeBetweenSameLineReadsForcesMiss)
{
    // cpu 0 (cluster 0) reads line L twice; cpu 1 (cluster 1)
    // upgrades L, invalidating cluster 0's copy. cpu 0's next read
    // of L must miss.
    Machine machine(
        twoClusterConfig(CoherenceProtocol::WriteInvalidate));
    const Addr line = 0x1000;
    Cycle now = 0;

    machine.access(0, RefType::Read, line, now, 1);       // miss
    now += 200;
    machine.access(0, RefType::Read, line, now, 1);       // hit
    now += 200;
    machine.access(1, RefType::Read, line, now, 1);       // miss
    now += 200;
    machine.access(1, RefType::Write, line, now, 1);      // Upgrade
    ASSERT_EQ(machine.scc(0).stateOf(line),
              CoherenceState::Invalid);
    now += 200;

    machine.access(0, RefType::Read, line, now, 1);
    EXPECT_EQ((std::uint64_t)machine.scc(0).readMisses.value(), 2u)
        << "a read after a remote invalidation must miss";
    EXPECT_EQ((std::uint64_t)machine.scc(0).readHits.value(), 1u);
    EXPECT_EQ(
        (std::uint64_t)machine.scc(0).invalidationsReceived.value(),
        1u);
}

TEST(SccCoherence, RemoteWriteMissBetweenSameLineReadsForcesMiss)
{
    // Same shape, but the remote write misses (ReadExcl on the bus)
    // instead of upgrading — the other invalidation source.
    Machine machine(
        twoClusterConfig(CoherenceProtocol::WriteInvalidate));
    const Addr line = 0x2000;
    Cycle now = 0;

    machine.access(0, RefType::Read, line, now, 1);       // miss
    now += 200;
    machine.access(0, RefType::Read, line, now, 1);       // hit
    now += 200;
    machine.access(1, RefType::Write, line, now, 1);      // ReadExcl
    ASSERT_EQ(machine.scc(0).stateOf(line),
              CoherenceState::Invalid);
    now += 200;

    machine.access(0, RefType::Read, line, now, 1);
    EXPECT_EQ((std::uint64_t)machine.scc(0).readMisses.value(), 2u);
    EXPECT_EQ((std::uint64_t)machine.scc(0).readHits.value(), 1u);
}

TEST(SccCoherence, UpdateAbsorbBetweenWritesDropsExclusivity)
{
    // Write-update: cpu 0 holds line L Modified and writes it
    // again. cpu 1's write miss fetches a shared copy (demoting
    // cpu 0) and broadcasts an Update, which cpu 0 absorbs. cpu 0's
    // next write must not hit silently as an exclusive owner — it
    // has to broadcast its own Update, or cpu 1 would be left with
    // stale data.
    Machine machine(
        twoClusterConfig(CoherenceProtocol::WriteUpdate));
    const Addr line = 0x3000;
    Cycle now = 0;

    machine.access(0, RefType::Write, line, now, 1);  // excl fill
    now += 200;
    machine.access(0, RefType::Write, line, now, 1);  // silent hit
    ASSERT_EQ(machine.scc(0).stateOf(line),
              CoherenceState::Modified);
    now += 200;
    machine.access(1, RefType::Write, line, now, 1);  // miss+Update
    ASSERT_EQ(machine.scc(0).stateOf(line),
              CoherenceState::Shared);
    EXPECT_EQ((std::uint64_t)machine.scc(0).updatesReceived.value(),
              1u);
    now += 200;

    double broadcastsBefore = machine.scc(0).updatesBroadcast.value();
    machine.access(0, RefType::Write, line, now, 1);
    EXPECT_EQ(machine.scc(0).updatesBroadcast.value(),
              broadcastsBefore + 1)
        << "write after a remote Update must re-broadcast";
    EXPECT_EQ((std::uint64_t)machine.scc(1).updatesReceived.value(),
              1u);
    EXPECT_EQ(machine.scc(1).stateOf(line), CoherenceState::Shared)
        << "remote copy survives under write-update";
}

TEST(SccCoherence, RemoteReadDemotionBetweenWritesForcesBroadcast)
{
    // A remote read snoop downgrades Modified to Shared in place.
    // The next write must see the demoted state and broadcast an
    // Update instead of silently hitting.
    Machine machine(
        twoClusterConfig(CoherenceProtocol::WriteUpdate));
    const Addr line = 0x4000;
    Cycle now = 0;

    machine.access(0, RefType::Write, line, now, 1);  // excl fill
    now += 200;
    machine.access(0, RefType::Write, line, now, 1);  // silent hit
    now += 200;
    machine.access(1, RefType::Read, line, now, 1);   // demote
    ASSERT_EQ(machine.scc(0).stateOf(line),
              CoherenceState::Shared);
    now += 200;

    machine.access(0, RefType::Write, line, now, 1);
    EXPECT_EQ((std::uint64_t)machine.scc(0).updatesBroadcast.value(),
              1u)
        << "write to a demoted line must broadcast";
    EXPECT_EQ(machine.scc(1).stateOf(line), CoherenceState::Shared);
    EXPECT_EQ((std::uint64_t)machine.scc(1).updatesReceived.value(),
              1u);
}

/**
 * Property sweep: after any interleaving of reads/writes from
 * random clusters, every line obeys the single-writer invariant —
 * at most one Modified copy system-wide, and never Modified in one
 * SCC while present in another.
 */
class CoherencePropertyTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CoherencePropertyTest, SingleWriterInvariant)
{
    stats::Group root("prop");
    AtomicBus bus(&root, BusParams{});
    std::vector<std::unique_ptr<stats::Group>> groups;
    std::vector<std::unique_ptr<SharedClusterCache>> sccs;
    SccParams params;
    params.sizeBytes = 4 << 10;  // small: plenty of evictions
    for (ClusterId c = 0; c < 4; ++c) {
        groups.push_back(std::make_unique<stats::Group>(
            &root, "c" + std::to_string(c)));
        sccs.push_back(std::make_unique<SharedClusterCache>(
            groups.back().get(), c, 2, params, &bus));
        bus.attach(sccs.back().get());
    }

    Rng rng(GetParam());
    Cycle now = 0;
    std::vector<Addr> lines;
    for (int i = 0; i < 64; ++i)
        lines.push_back(0x1000 + 16 * (Addr)rng.range(512));

    for (int step = 0; step < 4000; ++step) {
        now += 200;  // let each fill complete
        int scc = (int)rng.range(4);
        int cpu = (int)rng.range(2);
        Addr addr = lines[rng.range(lines.size())];
        RefType type =
            rng.chance(0.3) ? RefType::Write : RefType::Read;
        sccs[(std::size_t)scc]->access(cpu, type, addr, now);

        Addr line = addr & ~0xfull;
        int modified = 0;
        int present = 0;
        for (const auto &cache : sccs) {
            CoherenceState state = cache->stateOf(line);
            if (state != CoherenceState::Invalid)
                ++present;
            if (state == CoherenceState::Modified)
                ++modified;
        }
        ASSERT_LE(modified, 1) << "two Modified copies of line";
        if (modified == 1) {
            ASSERT_EQ(present, 1)
                << "Modified must be the only copy";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherencePropertyTest,
                         ::testing::Values(1ull, 7ull, 99ull,
                                           2026ull, 31337ull));

} // namespace
