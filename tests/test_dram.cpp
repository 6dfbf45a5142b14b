/**
 * @file
 * Tests for the src/dram memory backends: the flat model's exact
 * fixed latency, the banked model's row hit/miss/conflict timing,
 * FCFS vs FR-FCFS scheduling, data-bus serialization, writeback
 * occupancy, address interleaving, and the NUMA tree integration.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/banked_dram.hh"
#include "dram/flat_memory.hh"
#include "net/atomic_bus.hh"
#include "net/tree.hh"

namespace
{

using namespace scmp;

// Defaults pinned by DramTiming: hit 30, miss 70, conflict 110,
// burst 8. The tests spell the sums out so a timing change reads as
// an arithmetic diff, not a mystery constant.

TEST(FlatMemory, FixedLatencyVerbatim)
{
    FlatMemory mem(100);
    EXPECT_EQ(mem.fill(0x4000, 42), 142u);
    EXPECT_EQ(mem.fill(0x4000, 0), 100u);
    mem.writeBack(0x4000, 7);  // vanishes; no state to assert
    EXPECT_STREQ(mem.backendName(), "flat");
    // Stateless: no channels, no counters — attaching obs to a
    // default machine must add no columns.
    EXPECT_EQ(mem.numChannels(), 0);
    EXPECT_EQ(mem.fills(), 0u);
    EXPECT_EQ(mem.rowHitRate(), 0.0);
}

TEST(MemoryBackendFactory, SelectsKind)
{
    stats::Group root("t");
    DramParams dram;
    auto flat = makeMemoryBackend(&root, "mem", 100, dram);
    EXPECT_STREQ(flat->backendName(), "flat");
    EXPECT_EQ(flat->fill(0x0, 5), 105u);

    dram.kind = MemBackendKind::Banked;
    auto banked = makeMemoryBackend(&root, "mem0", 100, dram);
    EXPECT_STREQ(banked->backendName(), "banked");
    EXPECT_EQ(banked->numChannels(), dram.channels);
    EXPECT_EQ(banked->banksPerChannel(), dram.banks);
}

TEST(MemBackendNames, ParseRoundTrip)
{
    MemBackendKind kind;
    EXPECT_TRUE(parseName("banked", &kind));
    EXPECT_EQ(kind, MemBackendKind::Banked);
    EXPECT_FALSE(parseName("rambus", &kind));
    EXPECT_STREQ(nameOf(MemBackendKind::Flat), "flat");

    MemSched sched;
    EXPECT_TRUE(parseName("frfcfs", &sched));
    EXPECT_EQ(sched, MemSched::FrFcfs);
    EXPECT_TRUE(parseName("fr-fcfs", &sched));
    EXPECT_EQ(sched, MemSched::FrFcfs);
    EXPECT_FALSE(parseName("lottery", &sched));
    EXPECT_STREQ(nameOf(MemSched::Fcfs), "fcfs");
}

TEST(BankedDram, RowOutcomeTiming)
{
    stats::Group root("t");
    DramParams params;
    params.kind = MemBackendKind::Banked;
    BankedDram mem(&root, "mem", params);

    // First touch of a bank: idle row buffer, activate+CAS (70)
    // plus the burst (8).
    EXPECT_EQ(mem.fill(0x0000, 0), 70u + 8u);

    // Another line of the same 2KB row: the buffer is open, CAS
    // only (30) plus the burst.
    EXPECT_EQ(mem.fill(0x0040, 100), 100u + 30u + 8u);

    // A different row of the same bank (block 8 with 2 channels x 4
    // banks): precharge+activate+CAS (110) plus the burst.
    EXPECT_EQ(mem.fill(0x4000, 200), 200u + 110u + 8u);

    EXPECT_EQ((Cycle)mem.rowMissCount.value(), 1u);
    EXPECT_EQ((Cycle)mem.rowHitCount.value(), 1u);
    EXPECT_EQ((Cycle)mem.rowConflictCount.value(), 1u);
    EXPECT_EQ(mem.fills(), 3u);
    EXPECT_DOUBLE_EQ(mem.rowHitRate(), 1.0 / 3.0);
}

TEST(BankedDram, FrFcfsOvertakesBusyBank)
{
    stats::Group root("t");
    DramParams params;
    params.kind = MemBackendKind::Banked;
    params.channels = 1;
    params.banks = 2;
    params.sched = MemSched::FrFcfs;
    BankedDram mem(&root, "mem", params);

    // Two simultaneous misses to the channel's two banks: the bank
    // accesses overlap, only the shared data bus serializes. The
    // second line's data rides the bus right behind the first's.
    EXPECT_EQ(mem.fill(0x0000, 0), 78u);  // bank 0: 70 + 8
    EXPECT_EQ(mem.fill(0x0800, 0), 86u);  // bank 1: done at 70,
                                          // bus busy until 78 -> 86
    EXPECT_EQ((Cycle)mem.queueWaitCycles.value(), 0u);
}

TEST(BankedDram, FcfsSerializesTheChannel)
{
    stats::Group root("t");
    DramParams params;
    params.kind = MemBackendKind::Banked;
    params.channels = 1;
    params.banks = 2;
    params.sched = MemSched::Fcfs;
    BankedDram mem(&root, "mem", params);

    // Same two requests as the FR-FCFS test, but the in-order
    // channel queue holds the second back until the first finished
    // (78), then it pays its own full miss: 78 + 70 + 8.
    EXPECT_EQ(mem.fill(0x0000, 0), 78u);
    EXPECT_EQ(mem.fill(0x0800, 0), 78u + 70u + 8u);
    EXPECT_EQ((Cycle)mem.queueWaitCycles.value(), 78u);
}

TEST(BankedDram, WritebackOccupiesBankButNobodyWaits)
{
    stats::Group root("t");
    DramParams params;
    params.kind = MemBackendKind::Banked;
    params.channels = 1;
    params.banks = 1;
    params.sched = MemSched::FrFcfs;
    BankedDram mem(&root, "mem", params);

    // The writeback returns nothing (buffered) but holds its bank
    // until 70; a fill to the same row then starts at 70 and hits
    // the row the writeback opened: 70 + 30 + 8.
    mem.writeBack(0x0000, 0);
    EXPECT_EQ(mem.fill(0x0040, 10), 70u + 30u + 8u);
    EXPECT_EQ((Cycle)mem.writeBacksServed.value(), 1u);
    EXPECT_EQ(mem.fills(), 1u);
    EXPECT_EQ((Cycle)mem.queueWaitCycles.value(), 60u);
}

TEST(BankedDram, RowBlocksInterleaveChannelsThenBanks)
{
    stats::Group root("t");
    DramParams params;
    params.kind = MemBackendKind::Banked;
    params.channels = 2;
    params.banks = 2;
    params.sched = MemSched::FrFcfs;
    BankedDram mem(&root, "mem", params);

    // Four consecutive 2KB blocks land on four distinct (channel,
    // bank) pairs — channels round-robin first, then banks. All
    // four bank accesses overlap; the second fill on each channel
    // only queues its 8-cycle burst behind the first's on the
    // shared data bus (86 = 70 + 8 + 8).
    EXPECT_EQ(mem.fill(0x0000, 0), 78u);  // ch0 bank0
    EXPECT_EQ(mem.fill(0x0800, 0), 78u);  // ch1 bank0
    EXPECT_EQ(mem.fill(0x1000, 0), 86u);  // ch0 bank1
    EXPECT_EQ(mem.fill(0x1800, 0), 86u);  // ch1 bank1
    for (int channel = 0; channel < 2; ++channel) {
        EXPECT_EQ(mem.channelBusyCycles(channel), 16u);
        for (int bank = 0; bank < 2; ++bank)
            EXPECT_EQ(mem.bankBusyCycles(channel, bank), 70u);
    }
}

TEST(AtomicBus, FlatBackendMatchesThePapersTiming)
{
    stats::Group root("t");
    BusParams params;
    AtomicBus bus(&root, params);
    // Grant at 5, fixed memoryLatency after it — the exact formula
    // the bus used before src/dram existed.
    EXPECT_EQ(bus.transaction(0, BusOp::Read, 0x4000, 5),
              5 + params.memoryLatency);
    EXPECT_EQ(bus.numMemories(), 1);
    EXPECT_STREQ(bus.memory(0).backendName(), "flat");
}

TEST(AtomicBus, BankedBackendTimesTheFill)
{
    stats::Group root("t");
    DramParams dram;
    dram.kind = MemBackendKind::Banked;
    AtomicBus bus(&root, BusParams{}, dram);
    // First fill is a row miss: grant 0, activate+CAS+burst.
    EXPECT_EQ(bus.transaction(0, BusOp::Read, 0x0000, 0), 78u);
    EXPECT_STREQ(bus.memory(0).backendName(), "banked");
    EXPECT_EQ(bus.memory(0).fills(), 1u);
}

TEST(Tree, BankedMemoryIsPerSegmentNuma)
{
    NetParams net;
    net.segments = 2;
    DramParams dram;
    dram.kind = MemBackendKind::Banked;

    // Identical first-touch fills from cache 0 (segment 0), on two
    // fresh trees so the bank state matches: one line homed locally
    // (even 2KB block), one homed on segment 1 (odd block). The
    // only difference in the answer must be the NUMA penalty.
    stats::Group rootA("a");
    HierarchicalNet local(&rootA, BusParams{}, net, 4, dram);
    EXPECT_EQ(local.numMemories(), 2);
    EXPECT_EQ(local.homeSegment(0x0000), 0);
    EXPECT_EQ(local.homeSegment(0x0800), 1);
    Cycle localDone = local.transaction(0, BusOp::Read, 0x0000, 0);
    EXPECT_EQ((Cycle)local.remoteFills.value(), 0u);

    stats::Group rootB("b");
    HierarchicalNet remote(&rootB, BusParams{}, net, 4, dram);
    Cycle remoteDone = remote.transaction(0, BusOp::Read, 0x0800, 0);
    EXPECT_EQ((Cycle)remote.remoteFills.value(), 1u);
    EXPECT_EQ(remoteDone, localDone + dram.numaRemotePenalty);
}

TEST(Tree, FlatMemoryStaysOneSharedPool)
{
    stats::Group root("t");
    NetParams net;
    net.segments = 4;
    HierarchicalNet tree(&root, BusParams{}, net, 4);
    EXPECT_EQ(tree.numMemories(), 1);
    EXPECT_STREQ(tree.memory(0).backendName(), "flat");
    EXPECT_EQ((Cycle)tree.remoteFills.value(), 0u);
}

} // namespace
