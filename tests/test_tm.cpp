/**
 * @file
 * Directed transactional-memory tests (src/tm).
 *
 * Litmus-style machine-level pairs pin the conflict-resolution
 * semantics of both managers — who aborts in a read/write race,
 * when lazy detects what eager catches at access time, capacity
 * overflow, and the committed-write-always-wins rule — on both
 * flat fabrics. Engine-level tests then prove the unwind path:
 * transactional bodies re-execute after aborts without double
 * effects, the fallback lock guarantees progress when every
 * attempt capacity-aborts, and --tm=off runs the same source as
 * plain lock/unlock.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

#include "check/checker.hh"
#include "core/machine.hh"
#include "core/parallel_run.hh"

namespace
{

using namespace scmp;

MachineConfig
tmConfig(TmMode mode, NetTopology topology = NetTopology::Atomic)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 16 << 10;
    config.net.topology = topology;
    config.tm.mode = mode;
    config.checkCoherence = true;
    return config;
}

/** Distinct cache lines (line size is at most 256 here). */
constexpr Addr lineA = 0x10000;
constexpr Addr lineB = 0x10400;
constexpr Addr lineC = 0x10800;

struct MachineCase
{
    TmMode mode;
    NetTopology topology;
};

class TmMachineTest : public ::testing::TestWithParam<MachineCase>
{
};

/** Transactions touching disjoint lines must both commit. */
TEST_P(TmMachineTest, DisjointTransactionsBothCommit)
{
    Machine m(tmConfig(GetParam().mode, GetParam().topology));
    Cycle t0 = m.tmBegin(0, 0);
    Cycle t1 = m.tmBegin(1, 0);
    t0 = m.access(0, RefType::Write, lineA, t0, 1);
    t1 = m.access(1, RefType::Write, lineB, t1, 1);
    bool committed0 = false, committed1 = false;
    m.tmCommit(0, t0, &committed0);
    m.tmCommit(1, t1, &committed1);
    EXPECT_TRUE(committed0);
    EXPECT_TRUE(committed1);
    EXPECT_EQ(m.tmStats()->commits.value(), 2);
    EXPECT_EQ(m.tmStats()->aborts.value(), 0);
}

/**
 * A read/write race kills exactly one transaction, and the other
 * commits — no mutual destruction, no silent double commit.
 */
TEST_P(TmMachineTest, ReadWriteConflictAbortsExactlyOne)
{
    Machine m(tmConfig(GetParam().mode, GetParam().topology));
    Cycle t0 = m.tmBegin(0, 0);
    Cycle t1 = m.tmBegin(1, 0);
    t0 = m.access(0, RefType::Read, lineA, t0, 1);
    t1 = m.access(1, RefType::Write, lineA, t1, 1);

    // Let whoever is still healthy commit first, doomed side last.
    bool committed0 = false, committed1 = false;
    if (m.tmPoll(1)) {
        m.tmCommit(0, t0, &committed0);
        m.tmCommit(1, t1, &committed1);
    } else {
        m.tmCommit(1, t1, &committed1);
        m.tmCommit(0, t0, &committed0);
    }
    EXPECT_EQ(committed0 + committed1, 1);
    if (!committed0)
        m.tmAbort(0, t0);
    if (!committed1)
        m.tmAbort(1, t1);
    EXPECT_EQ(m.tmStats()->commits.value(), 1);
    EXPECT_EQ(m.tmStats()->aborts.value(), 1);
}

/** Capacity: a third distinct line overflows a two-entry set. */
TEST_P(TmMachineTest, CapacityOverflowDooms)
{
    MachineConfig config =
        tmConfig(GetParam().mode, GetParam().topology);
    config.tm.setEntries = 2;
    Machine m(config);
    Cycle t = m.tmBegin(0, 0);
    t = m.access(0, RefType::Read, lineA, t, 1);
    t = m.access(0, RefType::Read, lineB, t, 1);
    EXPECT_FALSE(m.tmPoll(0));
    t = m.access(0, RefType::Read, lineC, t, 1);
    EXPECT_TRUE(m.tmPoll(0));
    bool committed = true;
    m.tmCommit(0, t, &committed);
    EXPECT_FALSE(committed);
    m.tmAbort(0, t);
    EXPECT_EQ(m.tmStats()->capacityAborts.value(), 1);
    EXPECT_EQ(m.tmStats()->commits.value(), 0);
}

/** A committed (non-transactional) write always wins. */
TEST_P(TmMachineTest, NonTransactionalWriteDoomsReader)
{
    Machine m(tmConfig(GetParam().mode, GetParam().topology));
    Cycle t0 = m.tmBegin(0, 0);
    t0 = m.access(0, RefType::Read, lineA, t0, 1);
    // CPU 1 is not transactional: its write must doom the reader,
    // never the other way around.
    m.access(1, RefType::Write, lineA, 0, 1);
    EXPECT_TRUE(m.tmPoll(0));
    bool committed = true;
    m.tmCommit(0, t0, &committed);
    EXPECT_FALSE(committed);
    m.tmAbort(0, t0);
    EXPECT_EQ(m.tmStats()->conflictAborts.value(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    ManagersAndFabrics, TmMachineTest,
    ::testing::Values(
        MachineCase{TmMode::Eager, NetTopology::Atomic},
        MachineCase{TmMode::Eager, NetTopology::Split},
        MachineCase{TmMode::Lazy, NetTopology::Atomic},
        MachineCase{TmMode::Lazy, NetTopology::Split}));

/**
 * The eager/lazy pin: two transactions write the same line. Eager
 * detects at ACCESS time — the younger writer loses the tiebreak
 * the moment it touches the line. Lazy detects at COMMIT — both
 * stay healthy until the first committer publishes, which dooms
 * the other (committer wins).
 */
TEST(TmSemantics, EagerDetectsAtAccessLazyAtCommit)
{
    {
        Machine m(tmConfig(TmMode::Eager));
        m.tmBegin(0, 0);
        m.tmBegin(1, 0);
        Cycle t0 = m.access(0, RefType::Write, lineA, 0, 1);
        m.access(1, RefType::Write, lineA, 0, 1);
        // Younger writer (cpu 1) lost the tiebreak immediately.
        EXPECT_FALSE(m.tmPoll(0));
        EXPECT_TRUE(m.tmPoll(1));
        bool committed = false;
        m.tmCommit(0, t0, &committed);
        EXPECT_TRUE(committed);
        m.tmAbort(1, 0);
    }
    {
        Machine m(tmConfig(TmMode::Lazy));
        m.tmBegin(0, 0);
        m.tmBegin(1, 0);
        m.access(0, RefType::Write, lineA, 0, 1);
        Cycle t1 = m.access(1, RefType::Write, lineA, 0, 1);
        // No probes before commit: both transactions still healthy.
        EXPECT_FALSE(m.tmPoll(0));
        EXPECT_FALSE(m.tmPoll(1));
        bool committed = false;
        m.tmCommit(1, t1, &committed);
        EXPECT_TRUE(committed);
        // The committer's publication doomed the overlapping txn.
        EXPECT_TRUE(m.tmPoll(0));
        bool committed0 = true;
        m.tmCommit(0, 0, &committed0);
        EXPECT_FALSE(committed0);
        m.tmAbort(0, 0);
    }
}

/** TM composes with SC only; the config check must say so. */
TEST(TmSemantics, TmRequiresSequentialConsistency)
{
    MachineConfig config = tmConfig(TmMode::Eager);
    config.consistency.model = ConsistencyModel::Weak;
    EXPECT_DEATH(config.check(),
                 "requires sequential consistency");
}

/**
 * A counter workload: every thread transactionally increments one
 * shared counter. The final value pins exactly-once semantics
 * through aborts and retries.
 */
class CounterWorkload : public ParallelWorkload
{
  public:
    explicit CounterWorkload(int increments)
        : _increments(increments)
    {
    }

    std::string name() const override { return "tmcounter"; }

    void
    setup(Arena &arena, const Topology &topo) override
    {
        (void)topo;
        _counter = arena.alloc<Shared<std::uint64_t>>(1);
        _fallback.emplace(arena);
    }

    void
    threadMain(ThreadCtx &ctx, int tid,
               const Topology &topo) override
    {
        (void)tid;
        (void)topo;
        for (int i = 0; i < _increments; ++i) {
            ctx.transaction(*_fallback, [&](ThreadCtx &tctx) {
                _counter->stTx(tctx,
                               _counter->ldTx(tctx) + 1);
            });
        }
    }

    bool
    verify() override
    {
        return true;
    }

    std::uint64_t value() const { return _counter->raw(); }

  private:
    int _increments;
    Shared<std::uint64_t> *_counter = nullptr;
    std::optional<SimLock> _fallback;
};

class TmEngineTest : public ::testing::TestWithParam<TmMode>
{
};

TEST_P(TmEngineTest, ContendedCounterIsExact)
{
    MachineConfig config = tmConfig(GetParam());
    constexpr int increments = 64;
    CounterWorkload workload(increments);
    Arena arena(config.arenaBytes);
    RunResult result = runParallel(config, workload, &arena);
    EXPECT_TRUE(result.verified);
    EXPECT_EQ(workload.value(),
              (std::uint64_t)config.totalCpus() * increments);
    if (GetParam() != TmMode::Off) {
        // Every increment either committed as a transaction or ran
        // under the fallback lock; nothing was lost or doubled.
        EXPECT_GT(result.tmCommits, 0u);
        EXPECT_LE(result.tmCommits + result.tmFallbacks,
                  (std::uint64_t)config.totalCpus() * increments);
    } else {
        EXPECT_EQ(result.tmCommits, 0u);
        EXPECT_EQ(result.tmAborts, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, TmEngineTest,
                         ::testing::Values(TmMode::Off,
                                           TmMode::Eager,
                                           TmMode::Lazy));

/**
 * Forward progress at the smallest set size: a transaction whose
 * footprint can never fit must reach the fallback lock after
 * maxAborts capacity aborts and still produce the right answer.
 */
class WideTxnWorkload : public ParallelWorkload
{
  public:
    std::string name() const override { return "tmwide"; }

    void
    setup(Arena &arena, const Topology &topo) override
    {
        (void)topo;
        // Three words far enough apart to be three distinct lines.
        arena.alignTo(4096);
        _a = arena.alloc<Shared<std::uint64_t>>(1);
        arena.alignTo(4096);
        _b = arena.alloc<Shared<std::uint64_t>>(1);
        arena.alignTo(4096);
        _c = arena.alloc<Shared<std::uint64_t>>(1);
        _fallback.emplace(arena);
    }

    void
    threadMain(ThreadCtx &ctx, int tid,
               const Topology &topo) override
    {
        (void)topo;
        if (tid != 0)
            return;
        ctx.transaction(*_fallback, [&](ThreadCtx &tctx) {
            _a->stTx(tctx, _a->ldTx(tctx) + 1);
            _b->stTx(tctx, _b->ldTx(tctx) + 1);
            _c->stTx(tctx, _c->ldTx(tctx) + 1);
        });
    }

    bool
    verify() override
    {
        return _a->raw() == 1 && _b->raw() == 1 && _c->raw() == 1;
    }

  private:
    Shared<std::uint64_t> *_a = nullptr;
    Shared<std::uint64_t> *_b = nullptr;
    Shared<std::uint64_t> *_c = nullptr;
    std::optional<SimLock> _fallback;
};

TEST(TmFallback, CapacityStarvedTxnTakesTheLock)
{
    for (TmMode mode : {TmMode::Eager, TmMode::Lazy}) {
        MachineConfig config = tmConfig(mode);
        config.tm.setEntries = 2;
        config.tm.maxAborts = 3;
        WideTxnWorkload workload;
        Arena arena(config.arenaBytes);
        RunResult result = runParallel(config, workload, &arena);
        EXPECT_TRUE(result.verified) << nameOf(mode);
        // Exactly maxAborts capacity aborts, then the lock.
        EXPECT_EQ(result.tmAborts, 3u) << nameOf(mode);
        EXPECT_EQ(result.tmFallbacks, 1u) << nameOf(mode);
        EXPECT_EQ(result.tmCommits, 0u) << nameOf(mode);
    }
}

/** --tm=off must build no manager and count nothing. */
TEST(TmOff, DefaultMachineHasNoManager)
{
    MachineConfig config = tmConfig(TmMode::Off);
    Machine m(config);
    EXPECT_EQ(m.tmManager(), nullptr);
    EXPECT_EQ(m.tmStats(), nullptr);
    EXPECT_FALSE(m.tmPolicy().enabled);
    EXPECT_FALSE(m.tmPoll(0));
}

} // namespace
