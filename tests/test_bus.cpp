/**
 * @file
 * Tests for the snoopy bus: arbitration, occupancy accounting,
 * utilization, and transaction statistics.
 */

#include <gtest/gtest.h>

#include "mem/cache_params.hh"
#include "net/atomic_bus.hh"

namespace
{

using namespace scmp;

/** A snooper that never holds anything. */
class EmptySnooper : public Snooper
{
  public:
    explicit EmptySnooper(ClusterId id) : _id(id) {}
    SnoopResult
    snoop(BusOp, Addr, Cycle) override
    {
        ++snoops;
        return {};
    }
    ClusterId snooperId() const override { return _id; }
    int snoops = 0;

  private:
    ClusterId _id;
};

TEST(Bus, FixedFetchLatency)
{
    stats::Group root("t");
    BusParams params;
    AtomicBus bus(&root, params);
    EXPECT_EQ(bus.transaction(0, BusOp::Read, 0x100, 7),
              7 + params.memoryLatency);
    EXPECT_EQ(bus.transaction(0, BusOp::ReadExcl, 0x200, 300),
              300 + params.memoryLatency);
}

TEST(Bus, ArbitrationSerializesUnderOccupancy)
{
    stats::Group root("t");
    BusParams params;
    params.transferOccupancy = 10;
    AtomicBus bus(&root, params);

    Cycle first = bus.transaction(0, BusOp::Read, 0x100, 0);
    Cycle second = bus.transaction(1, BusOp::Read, 0x200, 0);
    EXPECT_EQ(first, params.memoryLatency);
    // Second request waits for the first's occupancy.
    EXPECT_EQ(second, 10 + params.memoryLatency);
    EXPECT_GT(bus.waitCycles.value(), 0.0);
}

TEST(Bus, SelfSnoopIsSkipped)
{
    stats::Group root("t");
    AtomicBus bus(&root, BusParams{});
    EmptySnooper mine(0);
    EmptySnooper other(1);
    bus.attach(&mine);
    bus.attach(&other);

    bus.transaction(0, BusOp::Read, 0x100, 0);
    EXPECT_EQ(mine.snoops, 0);
    EXPECT_EQ(other.snoops, 1);
}

/** The fabrics skip the requester by attach index, so a snooper
 *  whose id differs from its index is refused at attach. */
TEST(BusDeathTest, OutOfOrderAttachPanics)
{
    stats::Group root("t");
    AtomicBus bus(&root, BusParams{});
    EmptySnooper second(1);
    EXPECT_DEATH(bus.attach(&second),
                 "snooper with id 1 attached at index 0");
}

TEST(Bus, TransactionKindsAreCounted)
{
    stats::Group root("t");
    AtomicBus bus(&root, BusParams{});
    bus.transaction(0, BusOp::Read, 0x100, 0);
    bus.transaction(0, BusOp::ReadExcl, 0x200, 1000);
    bus.transaction(0, BusOp::Upgrade, 0x300, 2000);
    bus.transaction(0, BusOp::WriteBack, 0x400, 3000);
    bus.transaction(0, BusOp::Read, 0x500, 4000);

    EXPECT_DOUBLE_EQ(bus.transactions.value(), 5.0);
    EXPECT_DOUBLE_EQ(bus.reads.value(), 2.0);
    EXPECT_DOUBLE_EQ(bus.readExcls.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus.upgrades.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus.writeBacks.value(), 1.0);
}

TEST(Bus, UpgradeAndWritebackReturnAtGrant)
{
    stats::Group root("t");
    AtomicBus bus(&root, BusParams{});
    EXPECT_EQ(bus.transaction(0, BusOp::Upgrade, 0x100, 42), 42u);
    EXPECT_EQ(bus.transaction(0, BusOp::WriteBack, 0x200, 420),
              420u);
}

TEST(Bus, UtilizationIsBounded)
{
    stats::Group root("t");
    BusParams params;
    params.transferOccupancy = 50;
    AtomicBus bus(&root, params);
    Cycle now = 0;
    for (int i = 0; i < 100; ++i)
        now = bus.transaction(0, BusOp::Read, (Addr)i * 16, now);
    double utilization = bus.utilization(now);
    EXPECT_GT(utilization, 0.2);
    EXPECT_LE(utilization, 1.0);
}

TEST(Bus, OpNamesForTraces)
{
    EXPECT_STREQ(busOpName(BusOp::Read), "Read");
    EXPECT_STREQ(busOpName(BusOp::ReadExcl), "ReadExcl");
    EXPECT_STREQ(busOpName(BusOp::Upgrade), "Upgrade");
    EXPECT_STREQ(busOpName(BusOp::WriteBack), "WriteBack");
    EXPECT_STREQ(coherenceStateName(CoherenceState::Modified),
                 "M");
    EXPECT_STREQ(coherenceStateName(CoherenceState::Shared), "S");
    EXPECT_STREQ(coherenceStateName(CoherenceState::Invalid),
                 "I");
}

} // namespace
