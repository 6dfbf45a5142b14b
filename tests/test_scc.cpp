/**
 * @file
 * Tests for the Shared Cluster Cache: bank interleaving and
 * contention, MSHR merging (the prefetch mechanism), hit/miss
 * timing and statistics.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mem/scc.hh"
#include "net/atomic_bus.hh"

namespace
{

using namespace scmp;

class SccTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root = std::make_unique<stats::Group>("test");
        bus = std::make_unique<AtomicBus>(root.get(), BusParams{});
        scc = std::make_unique<SharedClusterCache>(
            root.get(), 0, 2, SccParams{}, bus.get());
        bus->attach(scc.get());
    }

    std::unique_ptr<stats::Group> root;
    std::unique_ptr<AtomicBus> bus;
    std::unique_ptr<SharedClusterCache> scc;
};

TEST_F(SccTest, LineInterleavedBanks)
{
    // Two processors x four banks each = eight banks; consecutive
    // 16-byte lines land in consecutive banks.
    EXPECT_EQ(scc->numBanks(), 8);
    for (int line = 0; line < 32; ++line) {
        EXPECT_EQ(scc->bankOf((Addr)line * 16), line % 8);
        // All bytes of a line go to the same bank.
        EXPECT_EQ(scc->bankOf((Addr)line * 16 + 15),
                  scc->bankOf((Addr)line * 16));
    }
}

TEST_F(SccTest, MissCostsMemoryLatency)
{
    Cycle done = scc->access(0, RefType::Read, 0x1000, 10);
    EXPECT_EQ(done, 10 + BusParams{}.memoryLatency);
    EXPECT_EQ((std::uint64_t)scc->readMisses.value(), 1u);
}

TEST_F(SccTest, HitIsImmediate)
{
    Cycle filled = scc->access(0, RefType::Read, 0x1000, 0);
    Cycle done = scc->access(1, RefType::Read, 0x1008, filled + 5);
    EXPECT_EQ(done, filled + 5);
    EXPECT_EQ((std::uint64_t)scc->readHits.value(), 1u);
}

TEST_F(SccTest, BankConflictDelaysSecondAccess)
{
    // Warm two lines that live in the same bank (stride = #banks).
    Addr a = 0;
    Addr b = 8 * 16;
    Cycle warm = 0;
    warm = scc->access(0, RefType::Read, a, warm) + 1;
    warm = scc->access(0, RefType::Read, b, warm) + 1;

    // Both processors hit the same bank in the same cycle.
    Cycle start = warm + 100;
    Cycle first = scc->access(0, RefType::Read, a, start);
    Cycle second = scc->access(1, RefType::Read, b, start);
    EXPECT_EQ(first, start);
    EXPECT_EQ(second, start + SccParams{}.bankOccupancy);
    EXPECT_GT(scc->bankConflictCycles.value(), 0.0);
}

TEST_F(SccTest, DifferentBanksDoNotConflict)
{
    Addr a = 0;
    Addr b = 16;  // next line, next bank
    Cycle warm = 0;
    warm = scc->access(0, RefType::Read, a, warm) + 1;
    warm = scc->access(0, RefType::Read, b, warm) + 1;

    Cycle start = warm + 100;
    EXPECT_EQ(scc->access(0, RefType::Read, a, start), start);
    EXPECT_EQ(scc->access(1, RefType::Read, b, start), start);
}

TEST_F(SccTest, MshrMergesConcurrentMisses)
{
    // Processor 0 misses; processor 1 touches the same line while
    // the fill is outstanding: no second bus transaction, and the
    // second access completes at the same fill time — the paper's
    // inter-processor prefetch effect.
    Cycle fill = scc->access(0, RefType::Read, 0x2000, 0);
    double transactionsBefore = bus->transactions.value();
    Cycle merged = scc->access(1, RefType::Read, 0x2008, 2);
    EXPECT_EQ(merged, fill);
    EXPECT_EQ(bus->transactions.value(), transactionsBefore);
    EXPECT_EQ((std::uint64_t)scc->mergedMisses.value(), 1u);
}

TEST_F(SccTest, WriteJoiningReadFillUpgrades)
{
    scc->access(0, RefType::Read, 0x3000, 0);
    double upgradesBefore = bus->upgrades.value();
    scc->access(1, RefType::Write, 0x3000, 5);
    EXPECT_EQ(scc->stateOf(0x3000), CoherenceState::Modified);
    EXPECT_EQ(bus->upgrades.value(), upgradesBefore + 1);
}

TEST_F(SccTest, MergedReadWriteAccountsStallsAndConflicts)
{
    // Pin every stat on the merge path: processor 0 read-misses a
    // line, processor 1 writes the same line in the same cycle.
    // The write pays bank arbitration (same bank, same cycle),
    // merges into the outstanding fill (no second miss, no write
    // stats), stalls until the fill, and issues exactly one
    // Upgrade to make the Shared fill writable.
    const Cycle lat = BusParams{}.memoryLatency;
    const Cycle occ = SccParams{}.bankOccupancy;

    Cycle fill = scc->access(0, RefType::Read, 0x2000, 0);
    EXPECT_EQ(fill, lat);
    double upgradesBefore = bus->upgrades.value();
    double transactionsBefore = bus->transactions.value();

    Cycle merged = scc->access(1, RefType::Write, 0x2008, 0);
    EXPECT_EQ(merged, fill) << "joined write completes at fill";

    // Classification: one read miss, one merge; the joining write
    // is neither a write hit nor a write miss.
    EXPECT_EQ((std::uint64_t)scc->readMisses.value(), 1u);
    EXPECT_EQ((std::uint64_t)scc->mergedMisses.value(), 1u);
    EXPECT_EQ((std::uint64_t)scc->writeMisses.value(), 0u);
    EXPECT_EQ((std::uint64_t)scc->writeHits.value(), 0u);
    EXPECT_EQ((std::uint64_t)scc->readHits.value(), 0u);

    // Timing: the write waited `occ` for the bank (charged to bank
    // conflicts, not miss stall), then fill - (0 + occ) for the
    // data; the original miss waited the full latency.
    EXPECT_EQ((Cycle)scc->bankConflictCycles.value(), occ);
    EXPECT_EQ((Cycle)scc->missStallCycles.value(),
              (fill - 0) + (fill - occ));

    // Coherence: exactly one extra transaction (the Upgrade), and
    // the line ends up writable.
    EXPECT_EQ(bus->upgrades.value(), upgradesBefore + 1);
    EXPECT_EQ(bus->transactions.value(), transactionsBefore + 1);
    EXPECT_EQ(scc->stateOf(0x2000), CoherenceState::Modified);
}

TEST_F(SccTest, MissRatesAggregateCorrectly)
{
    Cycle now = 0;
    // 1 read miss + 3 read hits; 1 write miss + 1 write hit.
    now = scc->access(0, RefType::Read, 0x100, now) + 10;
    for (int i = 0; i < 3; ++i)
        now = scc->access(0, RefType::Read, 0x100, now) + 10;
    now = scc->access(0, RefType::Write, 0x4000, now) + 200;
    now = scc->access(0, RefType::Write, 0x4000, now) + 10;
    EXPECT_DOUBLE_EQ(scc->readMissRate(), 0.25);
    EXPECT_DOUBLE_EQ(scc->missRate(), 2.0 / 6.0);
}

TEST_F(SccTest, WriteToModifiedStaysSilent)
{
    Cycle now = scc->access(0, RefType::Write, 0x5000, 0) + 10;
    double transactions = bus->transactions.value();
    scc->access(0, RefType::Write, 0x5000, now);
    scc->access(1, RefType::Write, 0x5000, now + 5);
    EXPECT_EQ(bus->transactions.value(), transactions);
}

TEST(SccConfig, BanksScaleWithProcessors)
{
    stats::Group root("t");
    AtomicBus bus(&root, BusParams{});
    for (int cpus : {1, 2, 4, 8}) {
        stats::Group group(&root,
                           "scc" + std::to_string(cpus));
        SharedClusterCache scc(&group, 0, cpus, SccParams{},
                               &bus);
        EXPECT_EQ(scc.numBanks(), 4 * cpus);
    }
}

TEST(SccConfig, IfetchIsRejected)
{
    stats::Group root("t");
    AtomicBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 1, SccParams{}, &bus);
    EXPECT_DEATH(scc.access(0, RefType::Ifetch, 0, 0),
                 "instruction fetches");
}

} // namespace
