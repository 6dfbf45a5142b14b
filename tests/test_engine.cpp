/**
 * @file
 * Tests for the direct-execution engine: timestamp-ordered
 * scheduling, instruction accounting, locks, barriers and the
 * self-scheduling counter, and digests that pin the exact dispatch
 * order of seeded scenarios from 1 to 64 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "exec/engine.hh"
#include "obs/recorder.hh"
#include "sim/rng.hh"

namespace
{

using namespace scmp;

/** Memory that records access order and applies fixed latencies. */
class RecordingMemory : public MemorySystem
{
  public:
    struct Event
    {
        CpuId cpu;
        RefType type;
        Addr addr;
        Cycle when;
    };

    explicit RecordingMemory(Cycle latency = 0) : _latency(latency)
    {
    }

    Cycle
    access(CpuId cpu, RefType type, Addr addr, Cycle now,
           std::uint32_t) override
    {
        events.push_back({cpu, type, addr, now});
        return now + _latency;
    }

    std::vector<Event> events;

  private:
    Cycle _latency;
};

TEST(Engine, InterleavesByTimestamp)
{
    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    auto *data = arena.alloc<Shared<int>>(4);

    for (CpuId cpu = 0; cpu < 2; ++cpu) {
        engine.spawn(cpu, [data, cpu](ThreadCtx &ctx) {
            for (int i = 0; i < 10; ++i)
                data[cpu].ld(ctx);
        });
    }
    engine.run();

    // With zero latency and equal costs, accesses must strictly
    // alternate between the two equal-speed threads.
    ASSERT_EQ(memory.events.size(), 20u);
    Cycle previous = 0;
    for (const auto &event : memory.events) {
        EXPECT_GE(event.when, previous);
        previous = event.when;
    }
}

TEST(Engine, WorkAdvancesClock)
{
    RecordingMemory memory;
    Arena arena(1 << 12);
    Engine engine(&memory, &arena, EngineOptions{});
    auto *data = arena.alloc<Shared<int>>();

    engine.spawn(0, [data](ThreadCtx &ctx) {
        ctx.work(100);
        data->ld(ctx);
    });
    engine.run();

    ASSERT_EQ(memory.events.size(), 1u);
    // 100 work instructions + the load's own issue cycle.
    EXPECT_EQ(memory.events[0].when, 101u);
    EXPECT_EQ(engine.statsOf(0).instructions, 101u);
    EXPECT_EQ(engine.statsOf(0).loads, 1u);
}

TEST(Engine, SlowThreadIsPrioritized)
{
    // Thread 0 stalls 100 cycles on every access (latency), so
    // thread 1 should issue many references per thread-0 access.
    class SplitMemory : public MemorySystem
    {
      public:
        Cycle
        access(CpuId cpu, RefType, Addr, Cycle now,
               std::uint32_t) override
        {
            order.push_back(cpu);
            return cpu == 0 ? now + 100 : now;
        }
        std::vector<CpuId> order;
    };

    SplitMemory memory;
    Arena arena(1 << 12);
    Engine engine(&memory, &arena, EngineOptions{});
    auto *data = arena.alloc<Shared<int>>(2);

    for (CpuId cpu = 0; cpu < 2; ++cpu) {
        engine.spawn(cpu, [data, cpu](ThreadCtx &ctx) {
            for (int i = 0; i < 50; ++i)
                data[cpu].ld(ctx);
        });
    }
    engine.run();
    // Thread 1 finishes long before thread 0.
    EXPECT_LT(engine.statsOf(1).finishTime,
              engine.statsOf(0).finishTime);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto run = [] {
        RecordingMemory memory(5);
        Arena arena(1 << 16);
        Engine engine(&memory, &arena, EngineOptions{});
        auto *data = arena.alloc<Shared<int>>(64);
        SimLock *lock = new SimLock(arena);
        for (CpuId cpu = 0; cpu < 4; ++cpu) {
            engine.spawn(cpu, [&, cpu](ThreadCtx &ctx) {
                for (int i = 0; i < 200; ++i) {
                    ctx.lock(*lock);
                    data[(i + cpu) % 64].rmw(
                        ctx, [](int v) { return v + 1; });
                    ctx.unlock(*lock);
                }
            });
        }
        engine.run();
        Cycle t = engine.finishTime();
        delete lock;
        return t;
    };
    EXPECT_EQ(run(), run());
}

TEST(Engine, LockProvidesMutualExclusion)
{
    RecordingMemory memory(20);
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    auto *counter = arena.alloc<Shared<int>>();
    SimLock lock(arena);

    // Unprotected RMW with 4 threads would lose updates because
    // threads yield between the load and the store on misses;
    // the lock must serialize the critical sections.
    for (CpuId cpu = 0; cpu < 4; ++cpu) {
        engine.spawn(cpu, [&](ThreadCtx &ctx) {
            for (int i = 0; i < 100; ++i) {
                ctx.lock(lock);
                counter->rmw(ctx, [](int v) { return v + 1; });
                ctx.unlock(lock);
            }
        });
    }
    engine.run();
    EXPECT_EQ(counter->raw(), 400);
}

TEST(Engine, BarrierSynchronizesAll)
{
    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    SimBarrier barrier(arena, 3);
    auto *data = arena.alloc<Shared<int>>();
    std::vector<Cycle> afterBarrier(3, 0);

    for (CpuId cpu = 0; cpu < 3; ++cpu) {
        engine.spawn(cpu, [&, cpu](ThreadCtx &ctx) {
            // Unequal pre-barrier work.
            ctx.work((std::uint64_t)(cpu + 1) * 1000);
            data->ld(ctx);
            ctx.barrier(barrier);
            afterBarrier[(std::size_t)cpu] =
                engine.timeOf((ThreadId)cpu);
        });
    }
    engine.run();

    // Nobody proceeds before the slowest arrival (~3000 cycles).
    for (Cycle t : afterBarrier)
        EXPECT_GE(t, 3000u);
}

TEST(Engine, BarrierIsReusable)
{
    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    SimBarrier barrier(arena, 2);
    int rounds = 0;

    for (CpuId cpu = 0; cpu < 2; ++cpu) {
        engine.spawn(cpu, [&](ThreadCtx &ctx) {
            for (int r = 0; r < 10; ++r) {
                ctx.work(10);
                ctx.barrier(barrier);
                if (ctx.tid() == 0)
                    ++rounds;
            }
        });
    }
    engine.run();
    EXPECT_EQ(rounds, 10);
}

TEST(Engine, TaskCounterDistributesAllTasks)
{
    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    TaskCounter counter(arena, 100);
    std::vector<int> claimed(100, 0);

    for (CpuId cpu = 0; cpu < 4; ++cpu) {
        engine.spawn(cpu, [&](ThreadCtx &ctx) {
            for (;;) {
                std::int64_t task = counter.next(ctx);
                if (task < 0)
                    break;
                ++claimed[(std::size_t)task];
            }
        });
    }
    engine.run();
    for (int count : claimed)
        EXPECT_EQ(count, 1);
}

TEST(Engine, TaskCounterChunksCoverRange)
{
    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    TaskCounter counter(arena, 37);
    std::vector<int> claimed(37, 0);

    for (CpuId cpu = 0; cpu < 3; ++cpu) {
        engine.spawn(cpu, [&](ThreadCtx &ctx) {
            for (;;) {
                std::int64_t first = counter.nextChunk(ctx, 5);
                if (first < 0)
                    break;
                std::int64_t last =
                    std::min<std::int64_t>(first + 5, 37);
                for (std::int64_t t = first; t < last; ++t)
                    ++claimed[(std::size_t)t];
            }
        });
    }
    engine.run();
    for (int count : claimed)
        EXPECT_EQ(count, 1);
}

TEST(Engine, PolicyCanTimeSlice)
{
    /** Block a thread after its clock passes 500 cycles, wake the
     *  other — a miniature round-robin. */
    class TinyScheduler : public SchedulerPolicy
    {
      public:
        void
        onStart(Engine &engine) override
        {
            engine.blockThread(1);
        }
        void
        afterRef(Engine &engine, ThreadId tid) override
        {
            ThreadId other = 1 - tid;
            if (!switched && engine.timeOf(tid) > 500 &&
                engine.blocked(other)) {
                switched = true;
                engine.blockThread(tid);
                engine.wakeThread(other,
                                  engine.timeOf(tid) + 50);
            }
        }
        void
        onThreadDone(Engine &engine, ThreadId tid) override
        {
            // Release anyone still blocked.
            for (ThreadId t = 0; t < engine.numThreads(); ++t) {
                if (t != tid && !engine.done(t) &&
                    engine.blocked(t)) {
                    engine.wakeThread(t, engine.timeOf(tid));
                }
            }
        }
        bool switched = false;
    };

    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    TinyScheduler policy;
    engine.setPolicy(&policy);
    auto *data = arena.alloc<Shared<int>>(2);

    for (CpuId cpu = 0; cpu < 2; ++cpu) {
        engine.spawn(0, [data, cpu](ThreadCtx &ctx) {
            for (int i = 0; i < 2000; ++i)
                data[cpu].ld(ctx);
        });
    }
    engine.run();
    EXPECT_TRUE(policy.switched);
    EXPECT_TRUE(engine.done(0));
    EXPECT_TRUE(engine.done(1));
}

/** 64-bit FNV-1a over a stream of 64-bit words. */
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
 * Digests every access in issue order. The latency is a pure
 * function of the access and straddles EngineOptions::yieldLatency
 * (4), so both the long-stall and the slack-window yield tests fire.
 */
class DigestMemory : public MemorySystem
{
  public:
    Cycle
    access(CpuId cpu, RefType type, Addr addr, Cycle now,
           std::uint32_t) override
    {
        digest.add((std::uint64_t)cpu);
        digest.add((std::uint64_t)type);
        digest.add(addr);
        digest.add(now);
        ++refs;
        static constexpr Cycle latencies[] = {0, 1, 3, 4, 5, 9, 40};
        std::uint64_t mix =
            (addr ^ now * 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
        return now + latencies[(mix >> 32) % 7];
    }

    Digest digest;
    std::uint64_t refs = 0;
};

/**
 * Time-slices the threads round robin over a third as many virtual
 * processors, and moves clocks from both hooks — every policy entry
 * point, on the running thread and on ready and parked peers.
 */
class ShufflePolicy : public SchedulerPolicy
{
  public:
    explicit ShufflePolicy(int cpus) : _running((std::size_t)cpus, -1)
    {
    }

    void
    onStart(Engine &engine) override
    {
        _quantumStart.assign((std::size_t)engine.numThreads(), 0);
        for (ThreadId tid = 0; tid < engine.numThreads(); ++tid) {
            if (tid < (ThreadId)_running.size()) {
                _running[(std::size_t)tid] = tid;
            } else {
                engine.blockThread(tid);
                _parked.push_back(tid);
            }
        }
    }

    void
    afterRef(Engine &engine, ThreadId tid) override
    {
        ++_calls;
        auto peer = (ThreadId)((std::uint64_t)tid + _calls) %
                    engine.numThreads();
        if (_calls % 7 == 0 && peer != tid && !engine.done(peer))
            engine.setTime(peer, engine.timeOf(peer) + 3);
        if (_calls % 13 == 0)
            engine.setTime(tid, engine.timeOf(tid) + 2);
        if (_calls % 17 == 0)
            engine.wakeThread(tid, engine.timeOf(tid));

        Cycle now = engine.timeOf(tid);
        if (now - _quantumStart[(std::size_t)tid] < quantum)
            return;
        if (_parked.empty()) {
            _quantumStart[(std::size_t)tid] = now;
            return;
        }
        CpuId cpu = engine.cpuOf(tid);
        engine.blockThread(tid);
        _parked.push_back(tid);
        dispatch(engine, cpu, now);
    }

    void
    onThreadDone(Engine &engine, ThreadId tid) override
    {
        CpuId cpu = engine.cpuOf(tid);
        if (_running[(std::size_t)cpu] == tid)
            dispatch(engine, cpu, engine.timeOf(tid));
        if (!_parked.empty()) {
            ThreadId last = _parked.back();
            engine.setTime(last, engine.timeOf(last) + 1);
        }
    }

    static constexpr Cycle quantum = 120;

  private:
    void
    dispatch(Engine &engine, CpuId cpu, Cycle when)
    {
        while (!_parked.empty()) {
            ThreadId next = _parked.front();
            _parked.pop_front();
            if (engine.done(next))
                continue;
            engine.bindCpu(next, cpu);
            engine.wakeThread(next,
                              when + engine.options().contextSwitchCost);
            _quantumStart[(std::size_t)next] = engine.timeOf(next);
            _running[(std::size_t)cpu] = next;
            return;
        }
        _running[(std::size_t)cpu] = -1;
    }

    std::vector<ThreadId> _running;
    std::vector<Cycle> _quantumStart;
    std::deque<ThreadId> _parked;
    std::uint64_t _calls = 0;
};

/**
 * One pinned dispatch scenario. A sync scenario mixes data
 * references, compute, ctx.yield(), idleUntil, two contended locks,
 * a TaskCounter and a barrier per phase; a policy scenario runs the
 * same mix minus synchronization under ShufflePolicy.
 */
struct DispatchPin
{
    int threads;
    bool policy;
    CycleDelta slack;
    std::uint64_t accesses;  //!< every access, then per-thread stats
    std::uint64_t observed;  //!< engine events and sampler rows
};

struct DispatchDigests
{
    std::uint64_t accesses = 0;
    std::uint64_t observed = 0;
};

DispatchDigests
runDispatchScenario(const DispatchPin &pin, bool observe)
{
    DigestMemory memory;
    Arena arena(1 << 20);
    EngineOptions options;
    options.slackWindow = pin.slack;
    options.stackBytes = 64 * 1024;
    options.contextSwitchCost = 25;
    Engine engine(&memory, &arena, options);
    ShufflePolicy policy(std::max(1, pin.threads / 3));
    if (pin.policy)
        engine.setPolicy(&policy);

    obs::RecorderConfig config;
    config.enabled = true;
    config.intervalCycles = 50;
    config.eventCap = 1u << 20;
    config.seriesRowCap = 1u << 20;
    obs::Recorder recorder(config);
    recorder.addCounter("refs", [&memory] { return memory.refs; });
    recorder.seal();
    if (observe)
        engine.setRecorder(&recorder);

    auto *data = arena.alloc<Shared<std::int64_t>>(256);
    SimLock lockA(arena);
    SimLock lockB(arena);
    SimBarrier barrier(arena, pin.threads);
    TaskCounter tasks(arena, 40 * pin.threads);
    std::uint64_t seed = (std::uint64_t)pin.threads * 1000 +
                         (pin.policy ? 100 : 0) + (std::uint64_t)pin.slack;

    for (ThreadId tid = 0; tid < pin.threads; ++tid) {
        engine.spawn(tid, [&, tid](ThreadCtx &ctx) {
            Rng rng(seed * 131 + (std::uint64_t)tid);
            for (int phase = 0; phase < 3; ++phase) {
                for (int step = 0; step < 60; ++step) {
                    Shared<std::int64_t> &word = data[rng.range(256)];
                    switch (rng.range(pin.policy ? 7 : 9)) {
                      case 0:
                      case 1:
                        word.ld(ctx);
                        break;
                      case 2:
                        word.st(ctx, step);
                        break;
                      case 3:
                        ctx.work(rng.range(24));
                        break;
                      case 4:
                        ctx.yield();
                        break;
                      case 5:
                        ctx.idleUntil(ctx.now() + rng.range(12));
                        break;
                      case 6:
                        ctx.loadAddr(0x100000 + rng.range(64) * 8);
                        break;
                      case 7: {
                        SimLock &lock = rng.range(2) ? lockA : lockB;
                        ctx.lock(lock);
                        word.rmw(ctx, [](std::int64_t v) { return v + 1; });
                        ctx.unlock(lock);
                        break;
                      }
                      default:
                        tasks.next(ctx);
                        break;
                    }
                }
                if (!pin.policy)
                    ctx.barrier(barrier);
            }
        });
    }
    engine.run();

    Digest accesses = memory.digest;
    for (ThreadId tid = 0; tid < pin.threads; ++tid) {
        const ThreadStats &stats = engine.statsOf(tid);
        accesses.add(stats.finishTime);
        accesses.add(stats.instructions);
        accesses.add(stats.loads);
        accesses.add(stats.stores);
    }
    accesses.add(engine.finishTime());
    accesses.add(engine.totalRefs());

    Digest observed;
    const obs::EventRing &ring = recorder.ring(obs::Source::Engine);
    EXPECT_EQ(ring.dropped(), 0u);
    for (const obs::Event &event : ring.events()) {
        observed.add((std::uint64_t)event.kind);
        observed.add((std::uint64_t)event.track);
        observed.add(event.start);
        observed.add(event.end);
        observed.add(event.arg);
    }
    for (const auto &row : recorder.sampler().rows()) {
        observed.add(row.cycle);
        for (std::uint64_t value : row.values)
            observed.add(value);
    }
    return {accesses.value(), observed.value()};
}

/**
 * The dispatch order of every scenario, as digests. Dispatch is the
 * simulated-timing contract: a dispatcher change that moves any of
 * these changes which thread runs next, so it is a timing change,
 * not a speedup.
 */
const DispatchPin dispatchPins[] = {
    {1, false, 0, 0x51131c0d12a19003,
     0x26f0236e90aa84c4},
    {1, false, 16, 0x06dd482d1a133245,
     0x98e6fbd6c1107213},
    {1, true, 0, 0x5dd9b7b6156f04f6,
     0x11638311a67cea39},
    {1, true, 16, 0x96bb8b5e301136b4,
     0x77dd65153eee6ebf},
    {2, false, 0, 0x7796e6d9ca77531d,
     0x4748d7ccc9fcace4},
    {2, false, 16, 0xa30dbffb6575e388,
     0x14b6077abb0ebdc9},
    {2, true, 0, 0x2b74318aaf48617e,
     0x44ab5264b69a0e51},
    {2, true, 16, 0x58d05b8e9cc47165,
     0xfcf29fd991d304aa},
    {3, false, 0, 0xfd5f7743303a8e30,
     0x162ae19e30ed47b7},
    {3, false, 16, 0x9b0f9d9ab224deb8,
     0xf5f02d36551b4c17},
    {3, true, 0, 0xc5a03be634758bb0,
     0x96db294615cf3d9b},
    {3, true, 16, 0x81c9cf01e5964a0d,
     0x617802f07124ae25},
    {7, false, 0, 0xa473bca8c1d972d3,
     0xbc9482e7f84d4b04},
    {7, false, 16, 0xf5abb533ba5dd51e,
     0x2961012e05a47753},
    {7, true, 0, 0x193f33fef27d9321,
     0x6179ad38dfb2d2f8},
    {7, true, 16, 0x757eda0da3406402,
     0xbbfa977e7a2e025e},
    {8, false, 0, 0x47e4886fb0eea566,
     0x5737d1f5b4c6d4e8},
    {8, false, 16, 0xbfa3ebd2a0d3fbd1,
     0xb60da8c93975d3e2},
    {8, true, 0, 0x3d8386ec36bd08e5,
     0x6f8f0dca5df9a329},
    {8, true, 16, 0xabad028425ab7daf,
     0xe04bdf282a97d789},
    {32, false, 0, 0x64d73c3031d24234,
     0x20543826cd82bb42},
    {32, false, 16, 0x36291bec542c5e84,
     0xa9b68c14e4150004},
    {32, true, 0, 0xbd273d0c34fe755b,
     0x16380afaa423597e},
    {32, true, 16, 0xe5d83c87113b3807,
     0xd30d83f995138f5d},
    {33, false, 0, 0xe274a9cd96aae572,
     0x599a3ce54a1c8c70},
    {33, false, 16, 0xb5de675bc50fb787,
     0xa95bafafe9e2dc55},
    {33, true, 0, 0x07d13bb85c94a5f2,
     0x1b8ac9516e63def6},
    {33, true, 16, 0xddb4eba691d40ec1,
     0xf6c38aadafe65fa1},
    {64, false, 0, 0x786b34b3a319ce11,
     0x5132f7f4ed9003ec},
    {64, false, 16, 0xd60d4ca10f5aa40d,
     0x2caa366da8e20939},
    {64, true, 0, 0x316da7dc2ee434fd,
     0x9e1f6ae9f1569c99},
    {64, true, 16, 0x58d5bf98444c6eb3,
     0x567b85edcbc0858d},
};

std::string
hex(std::uint64_t value)
{
    char text[24];
    std::snprintf(text, sizeof(text), "0x%016llx",
                  (unsigned long long)value);
    return text;
}

void
PrintTo(const DispatchPin &pin, std::ostream *os)
{
    *os << pin.threads << " threads, " << (pin.policy ? "policy" : "sync")
        << ", slack " << pin.slack;
}

class EngineDispatch : public ::testing::TestWithParam<DispatchPin>
{
};

TEST_P(EngineDispatch, ReproducesPinnedOrder)
{
    const DispatchPin &pin = GetParam();
    DispatchDigests plain = runDispatchScenario(pin, false);
    DispatchDigests observed = runDispatchScenario(pin, true);
    // Observation never feeds back into timing.
    EXPECT_EQ(hex(observed.accesses), hex(plain.accesses));
    EXPECT_EQ(hex(plain.accesses), hex(pin.accesses));
    EXPECT_EQ(hex(observed.observed), hex(pin.observed));
}

std::string
dispatchName(const ::testing::TestParamInfo<DispatchPin> &info)
{
    return "t" + std::to_string(info.param.threads) +
           (info.param.policy ? "_policy" : "_sync") + "_slack" +
           std::to_string(info.param.slack);
}

INSTANTIATE_TEST_SUITE_P(Pins, EngineDispatch,
                         ::testing::ValuesIn(dispatchPins),
                         dispatchName);

TEST(EngineDeath, DeadlockIsDetected)
{
    RecordingMemory memory;
    Arena arena(1 << 12);
    Engine engine(&memory, &arena, EngineOptions{});
    SimBarrier barrier(arena, 2);  // second arrival never comes

    engine.spawn(0,
                 [&](ThreadCtx &ctx) { ctx.barrier(barrier); });
    EXPECT_DEATH(engine.run(), "deadlock");
}

TEST(EngineDeath, ClockBeyondTheDispatchKeyPanics)
{
    // Three threads leave 62 bits of the dispatch key for the
    // clock; the long idle hands over, which keys the idler.
    RecordingMemory memory;
    Arena arena(1 << 12);
    Engine engine(&memory, &arena, EngineOptions{});
    for (CpuId cpu = 0; cpu < 3; ++cpu) {
        engine.spawn(cpu, [](ThreadCtx &ctx) {
            ctx.idleUntil((Cycle)1 << 62);
        });
    }
    EXPECT_DEATH(engine.run(), "dispatch key limit of "
                               "4611686018427387902 cycles at 3 threads");
}

TEST(EngineDeath, UnlockWithoutOwnership)
{
    RecordingMemory memory;
    Arena arena(1 << 12);
    Engine engine(&memory, &arena, EngineOptions{});
    SimLock lock(arena);
    engine.spawn(0, [&](ThreadCtx &ctx) { ctx.unlock(lock); });
    EXPECT_DEATH(engine.run(), "releasing a lock");
}

} // namespace
