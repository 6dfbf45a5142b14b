/**
 * @file
 * Tests for the src/net interconnect subsystem: split-transaction
 * bus timing and arbitration disciplines, the hierarchical tree's
 * snoop-filter directory, and a directed cross-segment coherence
 * scenario run under the checker for both protocols.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "check/checker.hh"
#include "core/machine.hh"
#include "net/interconnect.hh"
#include "obs/recorder.hh"
#include "net/split_bus.hh"
#include "net/tree.hh"
#include "sim/rng.hh"

namespace
{

using namespace scmp;

/** A snooper that never holds anything; logs the probe order. */
class RecordingSnooper : public Snooper
{
  public:
    RecordingSnooper(ClusterId id, std::vector<int> *order)
        : _id(id), _order(order)
    {
    }
    SnoopResult
    snoop(BusOp, Addr, Cycle when) override
    {
        ++snoops;
        lastWhen = when;
        if (_order)
            _order->push_back((int)_id);
        return {hadCopy, false, hadCopy};
    }
    ClusterId snooperId() const override { return _id; }

    bool hadCopy = false;
    int snoops = 0;
    Cycle lastWhen = 0;

  private:
    ClusterId _id;
    std::vector<int> *_order;
};

TEST(SplitBus, ReadPaysTransferAfterMemoryLatency)
{
    stats::Group root("t");
    BusParams params;
    NetParams net;
    SplitBus bus(&root, params, net);
    // Request at 7, data at 107, one transfer slot to deliver.
    EXPECT_EQ(bus.transaction(0, BusOp::Read, 0x100, 7),
              7 + params.memoryLatency + params.transferOccupancy);
}

TEST(SplitBus, RequestChannelReleasedDuringFetch)
{
    stats::Group root("t");
    BusParams params;
    params.transferOccupancy = 10;
    NetParams net;
    SplitBus bus(&root, params, net);

    // On an atomic bus with occupancy 10 the second read would
    // wait out the first's whole slot. Split: the address phase
    // only holds the request channel for addressOccupancy, and the
    // two responses queue on the data channel instead.
    Cycle first = bus.transaction(0, BusOp::Read, 0x100, 0);
    Cycle second = bus.transaction(1, BusOp::Read, 0x200, 1);
    EXPECT_EQ(first, 0 + 100 + 10);
    // Second request grants at 1 (request channel free again),
    // data at 101, response channel busy until 110 -> data slot
    // 110..120.
    EXPECT_EQ(second, 110 + 10);
    EXPECT_EQ((Cycle)bus.reqWaitCycles.value(), 0u);
    EXPECT_EQ((Cycle)bus.respWaitCycles.value(), 9u);
}

TEST(SplitBus, AddressOnlyOpsFinishAtRequestGrant)
{
    stats::Group root("t");
    SplitBus bus(&root, BusParams{}, NetParams{});
    EXPECT_EQ(bus.transaction(0, BusOp::Upgrade, 0x100, 42), 42u);
    EXPECT_EQ(bus.transaction(0, BusOp::Update, 0x140, 142), 142u);
    EXPECT_EQ(bus.transaction(0, BusOp::WriteBack, 0x200, 420),
              420u);
    // Nothing above used the response channel for the requester,
    // but the writeback's data did ride it.
    EXPECT_EQ(bus.channelBusyCycles(1), BusParams{}.transferOccupancy);
}

TEST(SplitBus, RoundRobinChargesFlatPenalty)
{
    stats::Group root("t");
    NetParams net;
    net.arbitration = NetArbitration::RoundRobin;
    SplitBus bus(&root, BusParams{}, net);

    bus.transaction(0, BusOp::Upgrade, 0x100, 0);
    // Request channel busy until 1; cluster 3 collides and pays
    // the flat one-slot re-arbitration cost regardless of its id.
    EXPECT_EQ(bus.transaction(3, BusOp::Upgrade, 0x200, 0),
              1u + net.arbLatency);
    EXPECT_EQ((Cycle)bus.arbConflicts.value(), 1u);
}

TEST(SplitBus, PriorityChargesDaisyChainPenalty)
{
    stats::Group root("t");
    NetParams net;
    net.arbitration = NetArbitration::Priority;
    SplitBus bus(&root, BusParams{}, net);

    bus.transaction(0, BusOp::Upgrade, 0x100, 0);
    // Cluster 3 sits three positions down the chain: 3 slots.
    EXPECT_EQ(bus.transaction(3, BusOp::Upgrade, 0x200, 0),
              1u + 3 * net.arbLatency);

    // Cluster 0 is at the head of the chain: collision costs it
    // nothing beyond the busy wait.
    SplitBus bus2(&root, BusParams{}, net);
    bus2.transaction(1, BusOp::Upgrade, 0x100, 0);
    EXPECT_EQ(bus2.transaction(0, BusOp::Upgrade, 0x200, 0), 1u);
}

TEST(Tree, LocalTrafficNeverLeavesItsSegment)
{
    stats::Group root("t");
    NetParams net;
    net.topology = NetTopology::Tree;
    net.segments = 2;
    HierarchicalNet tree(&root, BusParams{}, net, 4);

    std::vector<RecordingSnooper> caches;
    caches.reserve(4);
    for (int i = 0; i < 4; ++i)
        caches.emplace_back(i, nullptr);
    for (auto &cache : caches)
        tree.attach(&cache);

    // An Upgrade with no presence anywhere stays on segment 0:
    // only the local peer is probed, the root is never crossed.
    tree.transaction(0, BusOp::Upgrade, 0x100, 0);
    EXPECT_EQ(caches[1].snoops, 1);
    EXPECT_EQ(caches[2].snoops, 0);
    EXPECT_EQ(caches[3].snoops, 0);
    EXPECT_EQ((Cycle)tree.rootTransactions.value(), 0u);
    EXPECT_EQ((Cycle)tree.snoopsFiltered.value(), 2u);

    // A Read must cross the root for memory, but still probes no
    // remote segment.
    tree.transaction(0, BusOp::Read, 0x200, 10);
    EXPECT_EQ(caches[2].snoops, 0);
    EXPECT_EQ((Cycle)tree.rootTransactions.value(), 1u);
    EXPECT_EQ(tree.presenceMask(0x200), 0b01u);
}

TEST(Tree, DirectoryTracksSharersAcrossSegments)
{
    stats::Group root("t");
    NetParams net;
    net.segments = 2;
    HierarchicalNet tree(&root, BusParams{}, net, 4);
    std::vector<RecordingSnooper> caches;
    caches.reserve(4);
    for (int i = 0; i < 4; ++i)
        caches.emplace_back(i, nullptr);
    for (auto &cache : caches)
        tree.attach(&cache);

    tree.transaction(0, BusOp::Read, 0x100, 0);
    EXPECT_EQ(tree.presenceMask(0x100), 0b01u);

    // Segment-1 reader: its fetch probes everything in segment 0
    // (bit set), so cache 1 sees a second snoop on top of the one
    // from its own peer's fetch.
    caches[0].hadCopy = true;
    tree.transaction(2, BusOp::Read, 0x100, 50);
    EXPECT_EQ(tree.presenceMask(0x100), 0b11u);
    EXPECT_EQ(caches[0].snoops, 1);
    EXPECT_EQ(caches[1].snoops, 2);
    EXPECT_EQ((Cycle)tree.crossSegSnoops.value(), 1u);

    // An invalidating op leaves the writer's segment the only
    // possible holder.
    tree.transaction(1, BusOp::ReadExcl, 0x100, 100);
    EXPECT_EQ(tree.presenceMask(0x100), 0b01u);

    // A writeback retires the line from the directory.
    tree.transaction(1, BusOp::WriteBack, 0x100, 200);
    EXPECT_EQ(tree.presenceMask(0x100), 0u);
}

TEST(Tree, StalePresenceBitIsLazilyCleared)
{
    stats::Group root("t");
    NetParams net;
    net.segments = 2;
    HierarchicalNet tree(&root, BusParams{}, net, 4);
    std::vector<RecordingSnooper> caches;
    caches.reserve(4);
    for (int i = 0; i < 4; ++i)
        caches.emplace_back(i, nullptr);
    for (auto &cache : caches)
        tree.attach(&cache);

    // Segment 1 once fetched the line, then silently evicted it
    // (hadCopy stays false). The stale bit costs one cross-segment
    // probe, which repairs the directory.
    tree.transaction(2, BusOp::Read, 0x100, 0);
    EXPECT_EQ(tree.presenceMask(0x100), 0b10u);

    tree.transaction(0, BusOp::Read, 0x100, 50);
    EXPECT_EQ((Cycle)tree.crossSegSnoops.value(), 1u);
    EXPECT_EQ(tree.presenceMask(0x100), 0b01u);

    // The repaired directory filters the next fetch entirely.
    tree.transaction(1, BusOp::Read, 0x100, 100);
    EXPECT_EQ((Cycle)tree.crossSegSnoops.value(), 1u);
}

TEST(Tree, UpgradeSnoopsSegmentsInAscendingOrder)
{
    stats::Group root("t");
    NetParams net;
    net.segments = 3;
    HierarchicalNet tree(&root, BusParams{}, net, 6);
    std::vector<int> order;
    std::vector<RecordingSnooper> caches;
    caches.reserve(6);
    for (int i = 0; i < 6; ++i)
        caches.emplace_back(i, &order);
    for (auto &cache : caches)
        tree.attach(&cache);

    // Share the line into segments 1 and 2 (caches 2 and 4). The
    // copies must exist before the next fetch probes, or the lazy
    // cleanup would (correctly) clear the presence bits.
    tree.transaction(2, BusOp::Read, 0x100, 0);
    caches[2].hadCopy = true;
    tree.transaction(4, BusOp::Read, 0x100, 10);
    caches[4].hadCopy = true;

    // Cache 0 upgrades: local peer first, then the flagged
    // segments strictly ascending — 2,3 (segment 1) before 4,5
    // (segment 2) — each at a grant no earlier than the root's.
    order.clear();
    tree.transaction(0, BusOp::Upgrade, 0x100, 100);
    ASSERT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_GE(caches[4].lastWhen, caches[2].lastWhen);
    EXPECT_EQ(tree.presenceMask(0x100), 0b001u);
    EXPECT_EQ((Cycle)tree.crossSegSnoops.value(), 3u);
}

TEST(Tree, SegmentsClampToCacheCount)
{
    stats::Group root("t");
    NetParams net;
    net.segments = 8;
    HierarchicalNet tree(&root, BusParams{}, net, 2);
    EXPECT_EQ(tree.segments(), 2);
    EXPECT_EQ(tree.numChannels(), 3);
    EXPECT_STREQ(tree.channelName(0), "root");
    EXPECT_STREQ(tree.channelName(2), "seg1");
}

TEST(TreeDeathTest, WiderThanPresenceMaskPanics)
{
    // Segment 32's bit would not fit the 32-bit presence mask.
    stats::Group root("t");
    NetParams net;
    net.topology = NetTopology::Tree;
    net.segments = 33;
    EXPECT_DEATH(HierarchicalNet(&root, BusParams{}, net, 33),
                 "wider than its 32-bit presence mask");
    net.segments = 64;
    HierarchicalNet clamped(&root, BusParams{}, net, 32);
    EXPECT_EQ(clamped.segments(), 32);
}

TEST(Tree, BoundedFilterEvictsLruAndBackInvalidates)
{
    stats::Group root("t");
    NetParams net;
    net.segments = 2;
    net.snoopFilterCapacity = 2;
    HierarchicalNet tree(&root, BusParams{}, net, 4);
    std::vector<RecordingSnooper> caches;
    caches.reserve(4);
    for (int i = 0; i < 4; ++i)
        caches.emplace_back(i, nullptr);
    for (auto &cache : caches)
        tree.attach(&cache);
    ASSERT_EQ(tree.snoopFilterCapacity(), 2u);

    // Two lines fill the directory to its bound.
    tree.transaction(0, BusOp::Read, 0x100, 0);
    caches[0].hadCopy = true;
    tree.transaction(2, BusOp::Read, 0x200, 10);
    EXPECT_EQ(tree.snoopFilterSize(), 2u);

    // A third line evicts the LRU entry (0x100). Its flagged
    // segment must be probed with an invalidating op — both caches
    // of segment 0, because source -1 exempts nobody — and the
    // holder's drop is counted as a back-invalidation.
    int snoops0 = caches[0].snoops;
    int snoops1 = caches[1].snoops;
    tree.transaction(3, BusOp::Read, 0x300, 20);
    EXPECT_EQ(tree.snoopFilterSize(), 2u);
    EXPECT_EQ(tree.presenceMask(0x100), 0u);
    EXPECT_NE(tree.presenceMask(0x200), 0u);
    EXPECT_NE(tree.presenceMask(0x300), 0u);
    EXPECT_EQ((Cycle)tree.filterEvictions.value(), 1u);
    EXPECT_EQ((Cycle)tree.backInvalidations.value(), 1u);
    EXPECT_EQ(caches[0].snoops, snoops0 + 1);
    EXPECT_EQ(caches[1].snoops, snoops1 + 1);
}

TEST(Tree, BoundedFilterEvictsByRecency)
{
    stats::Group root("t");
    NetParams net;
    net.segments = 2;
    net.snoopFilterCapacity = 2;
    HierarchicalNet tree(&root, BusParams{}, net, 4);
    std::vector<RecordingSnooper> caches;
    caches.reserve(4);
    for (int i = 0; i < 4; ++i)
        caches.emplace_back(i, nullptr);
    for (auto &cache : caches)
        tree.attach(&cache);

    // 0x100 is older than 0x200 but gets re-referenced, so the
    // eviction must fall on 0x200 — LRU order, not insertion order.
    tree.transaction(0, BusOp::Read, 0x100, 0);
    tree.transaction(0, BusOp::Read, 0x200, 10);
    tree.transaction(1, BusOp::Read, 0x100, 20);
    tree.transaction(0, BusOp::Read, 0x300, 30);
    EXPECT_EQ(tree.snoopFilterSize(), 2u);
    EXPECT_EQ(tree.presenceMask(0x200), 0u);
    EXPECT_EQ(tree.presenceMask(0x100), 0b01u);
    EXPECT_EQ((Cycle)tree.filterEvictions.value(), 1u);
}

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            _value ^= (word >> (8 * byte)) & 0xff;
            _value *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0xcbf29ce484222325ull;
};

/**
 * A snooper that holds lines the way a cache does: it keeps a line
 * once it fetched it, supplies it while dirty, drops it on an
 * invalidating probe, and may lose a clean copy silently, which
 * leaves a stale presence bit in the directory.
 */
class HoldingSnooper : public Snooper
{
  public:
    explicit HoldingSnooper(ClusterId id) : _id(id) {}

    SnoopResult
    snoop(BusOp op, Addr lineAddr, Cycle) override
    {
        auto it = held.find(lineAddr);
        if (it == held.end() || op == BusOp::WriteBack)
            return {};
        SnoopResult result;
        result.hadCopy = true;
        result.suppliedDirty =
            it->second && (op == BusOp::Read || op == BusOp::ReadExcl);
        if (op == BusOp::ReadExcl || op == BusOp::Upgrade) {
            held.erase(it);
            result.invalidated = true;
        } else if (op == BusOp::Read) {
            it->second = false;
        }
        return result;
    }
    ClusterId snooperId() const override { return _id; }

    std::map<Addr, bool> held;  //!< line → dirty

  private:
    ClusterId _id;
};

/**
 * Drive a seeded stream of all five bus ops from 8 caches in 4
 * segments, over banked NUMA memory and a pool of lines 4x the
 * directory's bound (256 lines when unbounded), and digest, for
 * every transaction, the returned cycle, the touched line's
 * presence mask, the directory's size and the tree's stats.
 */
std::uint64_t
directoryStreamDigest(std::uint64_t sfCap)
{
    stats::Group root("t");
    NetParams net;
    net.topology = NetTopology::Tree;
    net.segments = 4;
    net.snoopFilterCapacity = sfCap;
    DramParams dram;
    dram.kind = MemBackendKind::Banked;
    HierarchicalNet tree(&root, BusParams{}, net, 8, dram);
    std::vector<HoldingSnooper> caches;
    caches.reserve(8);
    for (int i = 0; i < 8; ++i)
        caches.emplace_back(i);
    for (auto &cache : caches)
        tree.attach(&cache);

    // 13-line strides spread the pool over DRAM rows, and so over
    // home segments, channels and banks.
    const std::uint64_t lines = 4 * (sfCap ? sfCap : 64);
    auto lineAt = [](std::uint64_t i) { return 0x1000 + i * 13 * 64; };
    Rng rng(0xd1ec7 + sfCap);
    Digest digest;
    Cycle now = 0;
    for (int step = 0; step < 20000; ++step) {
        int source = (int)rng.range(8);
        Addr line = lineAt(rng.range(lines));
        auto &held = caches[(std::size_t)source].held;
        auto it = held.find(line);
        BusOp op;
        if (it == held.end())
            op = rng.range(2) ? BusOp::ReadExcl : BusOp::Read;
        else if (it->second)
            op = BusOp::WriteBack;
        else
            op = rng.range(2) ? BusOp::Upgrade : BusOp::Update;

        bool remoteCopy = false;
        digest.add(tree.transaction(source, op, line, now,
                                    &remoteCopy));
        switch (op) {
          case BusOp::Read: held[line] = false; break;
          case BusOp::ReadExcl:
          case BusOp::Upgrade: held[line] = true; break;
          case BusOp::Update: break;
          case BusOp::WriteBack: held.erase(line); break;
        }
        digest.add(remoteCopy);
        digest.add(tree.presenceMask(line));
        digest.add(tree.snoopFilterSize());
        for (const stats::Scalar *stat :
             {&tree.rootTransactions, &tree.rootWaitCycles,
              &tree.crossSegSnoops, &tree.snoopsFiltered,
              &tree.filterEvictions, &tree.backInvalidations,
              &tree.remoteFills, &tree.waitCycles,
              &tree.invalidations, &tree.interventions})
            digest.add((std::uint64_t)stat->value());

        // A silent clean eviction somewhere: the directory keeps
        // the segment's bit until a probe finds the copy gone.
        if (rng.range(8) == 0) {
            auto &victim = caches[rng.range(8)].held;
            auto drop = victim.find(lineAt(rng.range(lines)));
            if (drop != victim.end() && !drop->second)
                victim.erase(drop);
        }
        now += rng.range(6);
    }
    for (std::uint64_t i = 0; i < lines; ++i)
        digest.add(tree.presenceMask(lineAt(i)));
    return digest.value();
}

TEST(Tree, DirectoryStreamIsPinned)
{
    // Any change to the directory's insert, recency, eviction or
    // erase order moves these: a faster directory must keep them.
    EXPECT_EQ(directoryStreamDigest(0), 0x72bfca1cb28f3684ull);
    EXPECT_EQ(directoryStreamDigest(1), 0xc5f1b98cf0cc1e86ull);
    EXPECT_EQ(directoryStreamDigest(3), 0x6ae3983436d37e92ull);
    EXPECT_EQ(directoryStreamDigest(64), 0xf0392bfa4dc7327cull);
}

TEST(Tree, UnboundedDirectoryKeepsEveryMaskAsItGrows)
{
    stats::Group root("t");
    NetParams net;
    net.segments = 4;
    HierarchicalNet tree(&root, BusParams{}, net, 8);
    std::vector<RecordingSnooper> caches;
    caches.reserve(8);
    for (int i = 0; i < 8; ++i) {
        caches.emplace_back(i, nullptr);
        caches.back().hadCopy = true;  // every probe keeps its bit
    }
    for (auto &cache : caches)
        tree.attach(&cache);

    // Line i is read by the segments in (i % 15) + 1, so 2,000
    // lines carry every non-empty mask, far past any initial table.
    const int lines = 2000;
    auto lineAt = [](int i) { return Addr(0x1000 + i * 64); };
    auto sharers = [](int i) { return (std::uint32_t)(i % 15) + 1; };
    Cycle now = 0;
    for (int i = 0; i < lines; ++i) {
        for (int s = 0; s < 4; ++s) {
            if (sharers(i) >> s & 1)
                tree.transaction(2 * s, BusOp::Read, lineAt(i),
                                 now += 10);
        }
    }
    ASSERT_EQ(tree.snoopFilterSize(), (std::size_t)lines);
    for (int i = 0; i < lines; ++i)
        ASSERT_EQ(tree.presenceMask(lineAt(i)), sharers(i)) << i;

    // Then every third line collapses to segment 3, and every line
    // after it loses segment 1's bit, retiring those segment 1
    // held alone.
    std::size_t live = (std::size_t)lines;
    for (int i = 0; i < lines; ++i) {
        if (i % 3 == 0) {
            tree.transaction(7, BusOp::ReadExcl, lineAt(i), now += 10);
        } else if (i % 3 == 1) {
            tree.transaction(2, BusOp::WriteBack, lineAt(i),
                             now += 10);
            live -= sharers(i) == 0b0010;
        }
    }
    EXPECT_LT(live, (std::size_t)lines);
    EXPECT_EQ(tree.snoopFilterSize(), live);
    for (int i = 0; i < lines; ++i) {
        std::uint32_t want = i % 3 == 0   ? 0b1000u
                             : i % 3 == 1 ? sharers(i) & ~0b0010u
                                          : sharers(i);
        ASSERT_EQ(tree.presenceMask(lineAt(i)), want) << i;
    }
}

/**
 * The ISSUE's directed scenario: a line is shared across two leaf
 * segments, then upgraded. The coherence checker (golden memory
 * oracle + SWMR walks) rides the whole run; any protocol breakage
 * under the snoop filter is a fatal error, so completion plus a
 * non-zero check count is the assertion.
 */
class TreeCoherence
    : public ::testing::TestWithParam<CoherenceProtocol>
{
};

TEST_P(TreeCoherence, CrossSegmentUpgradeUnderChecker)
{
    MachineConfig config;
    config.numClusters = 4;
    config.cpusPerCluster = 1;
    config.scc.sizeBytes = 16 << 10;
    config.scc.protocol = GetParam();
    config.net.topology = NetTopology::Tree;
    config.net.segments = 2;
    config.checkCoherence = true;
    config.checkWalkInterval = 1;  // full walk on every transaction
    Machine machine(config);
    auto &tree = dynamic_cast<HierarchicalNet &>(machine.bus());

    // Line-aligned, so the bus sees this exact address.
    const Addr addr = 0x4000;
    Cycle now = 0;

    // Share one line across segment 0 (cpu0) and segment 1 (cpu2).
    now = machine.access(0, RefType::Write, addr, now, 0) + 1;
    now = machine.access(2, RefType::Read, addr, now, 0) + 1;
    EXPECT_EQ(tree.presenceMask(addr), 0b11u);
    EXPECT_EQ(machine.scc(2).stateOf(addr), CoherenceState::Shared);

    // The writer upgrades (invalidate) or broadcasts (update).
    now = machine.access(0, RefType::Write, addr, now, 0) + 1;
    if (GetParam() == CoherenceProtocol::WriteInvalidate) {
        // Remote segment's copy must be gone and the filter must
        // have collapsed to the writer's segment.
        EXPECT_EQ(machine.scc(2).stateOf(addr),
                  CoherenceState::Invalid);
        EXPECT_EQ(tree.presenceMask(addr), 0b01u);
        EXPECT_GE((Cycle)tree.crossSegSnoops.value(), 1u);
    } else {
        // Write-update: the remote copy survives the broadcast and
        // the filter keeps both segments flagged.
        EXPECT_EQ(machine.scc(2).stateOf(addr),
                  CoherenceState::Shared);
        EXPECT_EQ(tree.presenceMask(addr), 0b11u);
    }

    // Remote reader comes back; under both protocols it must see
    // the oracle's value (the checker fatals otherwise).
    machine.access(2, RefType::Read, addr, now, 0);
    ASSERT_TRUE(machine.checking());
    EXPECT_GT(machine.checker()->checksPerformed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, TreeCoherence,
    ::testing::Values(CoherenceProtocol::WriteInvalidate,
                      CoherenceProtocol::WriteUpdate));

/**
 * Snoop-filter eviction under the coherence checker: force the
 * bounded directory to evict entries whose lines are still cached —
 * one dirty, one shared across both segments — and prove the
 * back-invalidation probes keep the machine coherent. The checker's
 * golden memory fatals if the dirty line's flushed value is lost,
 * and its full walk (every transaction) fatals on any cache/oracle
 * disagreement, under both protocols.
 */
class SnoopFilterEviction
    : public ::testing::TestWithParam<CoherenceProtocol>
{
};

TEST_P(SnoopFilterEviction, BackInvalidationKeepsOracleGreen)
{
    MachineConfig config;
    config.numClusters = 4;
    config.cpusPerCluster = 1;
    config.scc.sizeBytes = 16 << 10;
    config.scc.protocol = GetParam();
    config.net.topology = NetTopology::Tree;
    config.net.segments = 2;
    config.net.snoopFilterCapacity = 2;
    config.checkCoherence = true;
    config.checkWalkInterval = 1;
    Machine machine(config);
    auto &tree = dynamic_cast<HierarchicalNet &>(machine.bus());

    const Addr a = 0x4000, b = 0x4100, c = 0x4200;
    Cycle now = 0;

    // a: dirty in segment 0. b: shared across BOTH segments, so its
    // eventual eviction must back-invalidate two segments.
    now = machine.access(0, RefType::Write, a, now, 0) + 1;
    now = machine.access(0, RefType::Write, b, now, 0) + 1;
    now = machine.access(2, RefType::Read, b, now, 0) + 1;
    EXPECT_EQ(tree.snoopFilterSize(), 2u);

    // Installing c overflows the directory; the LRU entry is a,
    // whose only copy is dirty. The probe must flush it into the
    // oracle's golden memory and drop it from the cache.
    now = machine.access(1, RefType::Read, c, now, 0) + 1;
    EXPECT_LE(tree.snoopFilterSize(), 2u);
    EXPECT_GE((Cycle)tree.filterEvictions.value(), 1u);
    EXPECT_GE((Cycle)tree.backInvalidations.value(), 1u);
    EXPECT_EQ(tree.presenceMask(a), 0u);
    EXPECT_EQ(machine.scc(0).stateOf(a), CoherenceState::Invalid);

    // Re-reading a re-installs it in the directory and evicts b,
    // whose sharers sit in both segments: every copy must be
    // dropped (this holds under write-update too — the probe is an
    // invalidating op regardless of protocol). The read itself must
    // observe the value flushed by the back-invalidation; the
    // checker fatals otherwise.
    now = machine.access(2, RefType::Read, a, now, 0) + 1;
    EXPECT_EQ(tree.presenceMask(b), 0u);
    EXPECT_EQ(machine.scc(0).stateOf(b), CoherenceState::Invalid);
    EXPECT_EQ(machine.scc(2).stateOf(b), CoherenceState::Invalid);
    EXPECT_LE(tree.snoopFilterSize(), 2u);
    EXPECT_GE((Cycle)tree.backInvalidations.value(), 3u);

    ASSERT_TRUE(machine.checking());
    EXPECT_GT(machine.checker()->checksPerformed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, SnoopFilterEviction,
    ::testing::Values(CoherenceProtocol::WriteInvalidate,
                      CoherenceProtocol::WriteUpdate));

TEST(Net, FactorySelectsTopology)
{
    stats::Group root("t");
    NetParams net;
    auto atomic =
        makeInterconnect(&root, BusParams{}, net, DramParams{}, 4);
    EXPECT_STREQ(atomic->topologyName(), "atomic");

    stats::Group root2("t2");
    net.topology = NetTopology::Split;
    auto split =
        makeInterconnect(&root2, BusParams{}, net, DramParams{}, 4);
    EXPECT_STREQ(split->topologyName(), "split");

    stats::Group root3("t3");
    net.topology = NetTopology::Tree;
    auto tree =
        makeInterconnect(&root3, BusParams{}, net, DramParams{}, 4);
    EXPECT_STREQ(tree->topologyName(), "tree");
}

TEST(Net, WriteBackProbesNoSnooperOnAnyFabric)
{
    // A written-back line was Modified, so no peer holds it: every
    // fabric skips the probes but reports the fan-out it always
    // did (all other caches on a bus, the requester's segment
    // peers on the tree). Even snoopers claiming a copy are not
    // asked.
    const struct
    {
        NetTopology topology;
        std::uint32_t fanout;
    } cases[] = {
        {NetTopology::Atomic, 3},
        {NetTopology::Split, 3},
        {NetTopology::Tree, 1},
    };
    for (const auto &c : cases) {
        stats::Group root("t");
        NetParams net;
        net.topology = c.topology;
        net.segments = 2;
        auto fabric =
            makeInterconnect(&root, BusParams{}, net, DramParams{}, 4);
        std::vector<RecordingSnooper> caches;
        caches.reserve(4);
        for (int i = 0; i < 4; ++i) {
            caches.emplace_back(i, nullptr);
            caches.back().hadCopy = true;
        }
        for (auto &cache : caches)
            fabric->attach(&cache);
        obs::RecorderConfig config;
        config.enabled = true;
        obs::Recorder recorder(config);
        recorder.seal();
        fabric->setRecorder(&recorder);

        fabric->transaction(1, BusOp::WriteBack, 0x100, 10);
        for (const auto &cache : caches)
            EXPECT_EQ(cache.snoops, 0) << fabric->topologyName();
        std::uint32_t fanout = 0;
        for (const obs::Event &event :
             recorder.ring(obs::Source::Bus).events()) {
            if (event.kind == obs::EventKind::SnoopFanout)
                fanout = event.arg;
        }
        EXPECT_EQ(fanout, c.fanout) << fabric->topologyName();
    }
}

TEST(Net, ParseNamesRoundTrip)
{
    NetTopology topology;
    EXPECT_TRUE(parseName("split", &topology));
    EXPECT_EQ(topology, NetTopology::Split);
    EXPECT_FALSE(parseName("banyan", &topology));

    NetArbitration arbitration;
    EXPECT_TRUE(parseName("priority", &arbitration));
    EXPECT_EQ(arbitration, NetArbitration::Priority);
    EXPECT_FALSE(parseName("lottery", &arbitration));
}

} // namespace
