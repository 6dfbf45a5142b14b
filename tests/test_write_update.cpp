/**
 * @file
 * Tests for the write-update (Firefly/Dragon flavour) coherence
 * protocol option.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/parallel_run.hh"
#include "mem/scc.hh"
#include "net/atomic_bus.hh"
#include "workloads/splash/mp3d.hh"

namespace
{

using namespace scmp;

class WriteUpdateTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root = std::make_unique<stats::Group>("t");
        bus = std::make_unique<AtomicBus>(root.get(), BusParams{});
        SccParams params;
        params.protocol = CoherenceProtocol::WriteUpdate;
        for (ClusterId c = 0; c < 3; ++c) {
            groups.push_back(std::make_unique<stats::Group>(
                root.get(), "c" + std::to_string(c)));
            sccs.push_back(std::make_unique<SharedClusterCache>(
                groups.back().get(), c, 2, params, bus.get()));
            bus->attach(sccs.back().get());
        }
    }

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

TEST_F(WriteUpdateTest, WritesKeepRemoteCopiesAlive)
{
    sccs[0]->access(0, RefType::Read, 0x1000, settle());
    sccs[1]->access(0, RefType::Read, 0x1000, settle());

    sccs[0]->access(0, RefType::Write, 0x1000, settle());
    // No invalidation: both copies survive as Shared.
    EXPECT_EQ(sccs[0]->stateOf(0x1000), CoherenceState::Shared);
    EXPECT_EQ(sccs[1]->stateOf(0x1000), CoherenceState::Shared);
    EXPECT_EQ(bus->invalidationsPerformed(), 0u);
    EXPECT_EQ((std::uint64_t)bus->updates.value(), 1u);
    EXPECT_EQ(
        (std::uint64_t)sccs[1]->updatesReceived.value(), 1u);
}

TEST_F(WriteUpdateTest, RemoteReaderHitsAfterUpdate)
{
    sccs[0]->access(0, RefType::Read, 0x2000, settle());
    sccs[1]->access(0, RefType::Read, 0x2000, settle());
    sccs[0]->access(0, RefType::Write, 0x2000, settle());

    // Under invalidate this read would be a 100-cycle miss;
    // under update it hits.
    Cycle start = settle();
    Cycle done = sccs[1]->access(0, RefType::Read, 0x2000, start);
    EXPECT_EQ(done, start);
}

TEST_F(WriteUpdateTest, LastCopyPromotesToModified)
{
    // Nobody else holds the line: the first write broadcast finds
    // no remote copy and promotes, so later writes stay silent.
    sccs[0]->access(0, RefType::Read, 0x3000, settle());
    sccs[0]->access(0, RefType::Write, 0x3000, settle());
    EXPECT_EQ(sccs[0]->stateOf(0x3000),
              CoherenceState::Modified);

    double updatesBefore = bus->updates.value();
    sccs[0]->access(1, RefType::Write, 0x3000, settle());
    EXPECT_EQ(bus->updates.value(), updatesBefore);
}

TEST_F(WriteUpdateTest, WriteMissLeavesSharersIntact)
{
    sccs[0]->access(0, RefType::Read, 0x4000, settle());
    sccs[1]->access(0, RefType::Write, 0x4000, settle());
    EXPECT_EQ(sccs[0]->stateOf(0x4000), CoherenceState::Shared);
    EXPECT_EQ(sccs[1]->stateOf(0x4000), CoherenceState::Shared);
    EXPECT_EQ(bus->invalidationsPerformed(), 0u);
}

TEST_F(WriteUpdateTest, SingleWriterInvariantStillHolds)
{
    // Randomized sweep: Modified must remain exclusive.
    Rng rng(77);
    for (int step = 0; step < 3000; ++step) {
        int scc = (int)rng.range(3);
        Addr addr = 0x8000 + 16 * (Addr)rng.range(64);
        RefType type =
            rng.chance(0.4) ? RefType::Write : RefType::Read;
        sccs[(std::size_t)scc]->access(0, type, addr, settle());

        int modified = 0;
        int present = 0;
        for (auto &cache : sccs) {
            auto state = cache->stateOf(addr);
            if (state != CoherenceState::Invalid)
                ++present;
            if (state == CoherenceState::Modified)
                ++modified;
        }
        ASSERT_LE(modified, 1);
        if (modified == 1) {
            ASSERT_EQ(present, 1);
        }
    }
}

TEST(WriteUpdateEndToEnd, Mp3dRunsAndTradesMissesForTraffic)
{
    auto run = [](CoherenceProtocol protocol) {
        splash::Mp3dParams params;
        params.nparticles = 2000;
        params.steps = 2;
        splash::Mp3d mp3d(params);
        MachineConfig config;
        config.cpusPerCluster = 2;
        config.scc.sizeBytes = 256 << 10;
        config.scc.protocol = protocol;
        auto result = runParallel(config, mp3d);
        EXPECT_TRUE(result.verified);
        return result;
    };
    auto invalidate = run(CoherenceProtocol::WriteInvalidate);
    auto update = run(CoherenceProtocol::WriteUpdate);

    // Update eliminates coherence misses on the shared cell
    // array, so its read miss rate must drop; invalidations must
    // vanish entirely.
    EXPECT_LT(update.readMissRate, invalidate.readMissRate);
    EXPECT_EQ(update.invalidations, 0u);
    EXPECT_GT(invalidate.invalidations, 1000u);
}

} // namespace
