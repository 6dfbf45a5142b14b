/**
 * @file
 * Litmus tests for the consistency axis (src/mem/store_buffer).
 *
 * Each test drives a two-processor Machine directly — no engine, no
 * fibers — issuing tiny per-CPU programs in a chosen global order
 * with explicit issue cycles, exactly the way an architect reads a
 * litmus table. The attached coherence checker supplies the data
 * plane: every store gets a global sequence number, every verified
 * load records the sequence it observed (CoherenceChecker::
 * lastLoadValue), so "load saw 0" below means the never-written
 * initial value and "saw the store" means its exact sequence.
 *
 * The suite pins the axis from both sides:
 *
 *  - SB (store buffering): with both processors' drain ports busy
 *    behind an earlier store, each retires its flag store into the
 *    buffer and loads the other's flag — both loads read 0 under
 *    weak ordering, an outcome sequential consistency forbids (and
 *    which the sc machine indeed never produces, across every
 *    program-order-respecting interleaving). Full fences between
 *    the store and the load restore the sc outcome under weak.
 *  - MP (message passing): producer writes data, fences, writes a
 *    flag, fences; once the consumer polls the flag non-zero its
 *    data load must see the payload.
 *  - CoRR (coherent read-read): two reads of the same word by one
 *    processor must never observe coherence order backwards, even
 *    when the first is satisfied by read bypass.
 *
 * Every scenario runs under both protocols (invalidate, update) and
 * both flat bus types (atomic, split) — the relaxation is a
 * processor-side property and may not depend on which fabric orders
 * the drains. That these runs complete at all is itself half the
 * point: the order-tolerant oracle accepts every legal weak
 * execution here while tests/consistency_mutation_death.cpp proves
 * it still kills illegal ones.
 */

#include <gtest/gtest.h>

#include <utility>

#include "check/checker.hh"
#include "core/machine.hh"

namespace
{

using namespace scmp;
using check::CoherenceChecker;

/** Distinct words on distinct lines; never aliased. */
// Distinct lines in distinct cache sets: 256B spacing keeps the
// scratch fills from evicting the warmed test lines (64KB-spaced
// addresses would all alias to one set of a 16KB cache).
constexpr Addr addrX = 0x1100;
constexpr Addr addrY = 0x1200;
constexpr Addr addrScratch0 = 0x1300;
constexpr Addr addrScratch1 = 0x1400;
constexpr Addr addrData = 0x1500;
constexpr Addr addrFlag = 0x1600;

/** One fabric x protocol combination a scenario runs under. */
struct Fabric
{
    CoherenceProtocol protocol;
    NetTopology topology;
};

const Fabric fabrics[] = {
    {CoherenceProtocol::WriteInvalidate, NetTopology::Atomic},
    {CoherenceProtocol::WriteInvalidate, NetTopology::Split},
    {CoherenceProtocol::WriteUpdate, NetTopology::Atomic},
    {CoherenceProtocol::WriteUpdate, NetTopology::Split},
};

/** Two clusters x one processor: cpu0 and cpu1 on separate SCCs. */
MachineConfig
litmusConfig(const Fabric &fabric, ConsistencyModel model)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 1;
    config.scc.sizeBytes = 16 << 10;
    config.scc.protocol = fabric.protocol;
    config.net.topology = fabric.topology;
    config.consistency.model = model;
    config.consistency.storeBufferEntries = 4;
    config.checkCoherence = true;
    return config;
}

/** Issue a load and return the write sequence it observed. */
check::Value
loadAt(Machine &machine, CpuId cpu, Addr addr, Cycle now)
{
    machine.access(cpu, RefType::Read, addr, now, 0);
    return machine.checker()->lastLoadValue();
}

/**
 * Park each processor's drain port behind a committed scratch
 * store: under weak ordering the NEXT buffered store cannot drain
 * for ~a memory round trip, which is precisely the window a store
 * buffer reorders in. No-op cost under sc (fence returns now).
 */
void
occupyDrainPorts(Machine &machine, Cycle at = 0)
{
    machine.access(0, RefType::Write, addrScratch0, at, 0);
    machine.fence(0, at);
    machine.access(1, RefType::Write, addrScratch1, at, 0);
    machine.fence(1, at);
}

/**
 * The SB (store buffering) body: cpu0 {W X; R Y}, cpu1 {W Y; R X},
 * interleaved stores-first, with optional full fences between each
 * processor's store and its load. Returns {r0, r1}.
 */
std::pair<check::Value, check::Value>
runStoreBuffering(Machine &machine, bool fences)
{
    // Warm epoch (cycle 0): pull the observed lines into each
    // reader's cache so the test loads hit. The fills settle well
    // before the test window opens.
    machine.access(0, RefType::Read, addrY, 0, 0);
    machine.access(1, RefType::Read, addrX, 0, 0);
    // Test window (cycle 1000): park the drain ports, then run the
    // SB body. A warm load completes in a cycle or two — before
    // the parked drain port frees — so a buffered store stays
    // invisible across both loads.
    const Cycle base = 1000;
    occupyDrainPorts(machine, base);
    Cycle t0 =
        machine.access(0, RefType::Write, addrX, base + 1, 0) + 1;
    Cycle t1 =
        machine.access(1, RefType::Write, addrY, base + 1, 0) + 1;
    if (fences) {
        t0 = machine.fence(0, t0);
        t1 = machine.fence(1, t1);
    }
    check::Value r0 = loadAt(machine, 0, addrY, t0);
    check::Value r1 = loadAt(machine, 1, addrX, t1);
    return {r0, r1};
}

TEST(Litmus, StoreBufferingObservableUnderWeak)
{
    for (const Fabric &fabric : fabrics) {
        Machine machine(
            litmusConfig(fabric, ConsistencyModel::Weak));
        auto [r0, r1] = runStoreBuffering(machine, false);
        // Both flag stores retired before either load issued, yet
        // both loads read 0: the relaxed outcome sequential
        // consistency forbids. Draining everything afterwards must
        // satisfy the oracle's fence-ordered-visibility check.
        EXPECT_EQ(r0, 0u) << nameOf(fabric.topology);
        EXPECT_EQ(r1, 0u) << nameOf(fabric.topology);
        machine.fence(0, 2000);
        machine.fence(1, 2000);
        EXPECT_EQ(machine.checker()->pendingStores(0), 0u);
        EXPECT_EQ(machine.checker()->pendingStores(1), 0u);
    }
}

TEST(Litmus, StoreBufferingForbiddenUnderSc)
{
    for (const Fabric &fabric : fabrics) {
        // The same interleaving on the sc machine: both stores are
        // globally performed before the loads issue, so both loads
        // must see them.
        Machine machine(litmusConfig(fabric, ConsistencyModel::Sc));
        auto [r0, r1] = runStoreBuffering(machine, false);
        EXPECT_NE(r0, 0u) << nameOf(fabric.topology);
        EXPECT_NE(r1, 0u) << nameOf(fabric.topology);
    }
}

TEST(Litmus, StoreBufferingNeverBothZeroUnderSc)
{
    // Every program-order-respecting interleaving of
    // {W X; R Y} || {W Y; R X}: under sequential consistency the
    // load issued later must observe the other processor's store,
    // so (r0, r1) == (0, 0) is impossible in all six.
    enum Op { W0, R0, W1, R1 };
    const Op orders[][4] = {
        {W0, R0, W1, R1}, {W0, W1, R0, R1}, {W0, W1, R1, R0},
        {W1, R1, W0, R0}, {W1, W0, R1, R0}, {W1, W0, R0, R1},
    };
    for (const Fabric &fabric : fabrics) {
        for (const auto &order : orders) {
            Machine machine(
                litmusConfig(fabric, ConsistencyModel::Sc));
            check::Value r0 = 0, r1 = 0;
            Cycle clock[2] = {0, 0};
            for (Op op : order) {
                switch (op) {
                  case W0:
                    clock[0] = machine.access(0, RefType::Write,
                                              addrX, clock[0], 0);
                    break;
                  case R0:
                    r0 = loadAt(machine, 0, addrY, clock[0]);
                    break;
                  case W1:
                    clock[1] = machine.access(1, RefType::Write,
                                              addrY, clock[1], 0);
                    break;
                  case R1:
                    r1 = loadAt(machine, 1, addrX, clock[1]);
                    break;
                }
            }
            EXPECT_FALSE(r0 == 0 && r1 == 0)
                << nameOf(fabric.topology);
        }
    }
}

TEST(Litmus, FencesRestoreScOutcomeUnderWeak)
{
    for (const Fabric &fabric : fabrics) {
        // A full fence between each store and its load drains the
        // buffers, so the weak machine produces the sc outcome.
        Machine machine(
            litmusConfig(fabric, ConsistencyModel::Weak));
        auto [r0, r1] = runStoreBuffering(machine, true);
        EXPECT_NE(r0, 0u) << nameOf(fabric.topology);
        EXPECT_NE(r1, 0u) << nameOf(fabric.topology);
    }
}

TEST(Litmus, MessagePassingWithFences)
{
    for (const Fabric &fabric : fabrics) {
        Machine machine(
            litmusConfig(fabric, ConsistencyModel::Weak));
        // Producer: payload, fence, flag, fence — the classic
        // publish sequence.
        Cycle t = machine.access(0, RefType::Write, addrData, 0, 0);
        t = machine.fence(0, t + 1);
        t = machine.access(0, RefType::Write, addrFlag, t + 1, 0);
        machine.fence(0, t + 1);
        // Consumer: poll the flag (bounded), then read the payload.
        check::Value flag = 0;
        Cycle now = 0;
        for (int spin = 0; spin < 8 && !flag; ++spin)
            flag = loadAt(machine, 1, addrFlag, now++);
        ASSERT_NE(flag, 0u) << nameOf(fabric.topology);
        check::Value data = loadAt(machine, 1, addrData, now);
        // Fence-ordered visibility: a consumer that saw the flag
        // must see the payload.
        EXPECT_NE(data, 0u) << nameOf(fabric.topology);
    }
}

TEST(Litmus, CoherentReadReadAndReadOwnWrite)
{
    for (const Fabric &fabric : fabrics) {
        Machine machine(
            litmusConfig(fabric, ConsistencyModel::Weak));
        occupyDrainPorts(machine);
        const CoherenceChecker &checker = *machine.checker();
        double forwardsBefore = checker.forwardsChecked.value();

        // cpu0 writes X and reads it straight back while the store
        // is still buffered: read bypass must return the pending
        // store (read-own-write), verified by the oracle.
        machine.access(0, RefType::Write, addrX, 1, 0);
        check::Value own = loadAt(machine, 0, addrX, 2);
        EXPECT_NE(own, 0u) << nameOf(fabric.topology);
        EXPECT_GT(checker.forwardsChecked.value(), forwardsBefore);

        // cpu1 reads X twice, with cpu0's drain landing in between:
        // coherence order per location must never run backwards.
        check::Value first = loadAt(machine, 1, addrX, 2);
        machine.fence(0, 1000);
        check::Value second = loadAt(machine, 1, addrX, 2000);
        EXPECT_GE(second, first)
            << nameOf(fabric.topology);
        EXPECT_EQ(second, own) << nameOf(fabric.topology);
    }
}

TEST(Litmus, BufferedStoreRetiresImmediately)
{
    // The timing half of the tentpole: under weak a store to a
    // cold line retires in the issue cycle; under sc the same
    // store pays the full miss before the processor moves on.
    const Fabric fabric = {CoherenceProtocol::WriteInvalidate,
                           NetTopology::Atomic};
    Machine weak(litmusConfig(fabric, ConsistencyModel::Weak));
    EXPECT_EQ(weak.access(0, RefType::Write, addrX, 10, 0), 10u);
    ASSERT_NE(weak.storeBuffer(0), nullptr);
    EXPECT_EQ(weak.storeBuffer(0)->occupancy(), 1);
    weak.fence(0, 11);

    Machine sc(litmusConfig(fabric, ConsistencyModel::Sc));
    EXPECT_EQ(sc.storeBuffer(0), nullptr);
    EXPECT_GT(sc.access(0, RefType::Write, addrX, 10, 0), 10u);
}

} // namespace
