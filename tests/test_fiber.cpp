/**
 * @file
 * Tests for the stackful fiber substrate.
 */

#include <gtest/gtest.h>

#include <vector>

#include "exec/fiber.hh"

namespace
{

using namespace scmp;

TEST(Fiber, RunsToCompletion)
{
    int value = 0;
    Fiber fiber([&value] { value = 42; });
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(value, 42);
}

TEST(Fiber, YieldRoundTrips)
{
    std::vector<int> trace;
    Fiber fiber([&trace] {
        trace.push_back(1);
        Fiber::yieldToCaller();
        trace.push_back(3);
        Fiber::yieldToCaller();
        trace.push_back(5);
    });
    fiber.resume();
    trace.push_back(2);
    fiber.resume();
    trace.push_back(4);
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecution)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber fiber([&seen] { seen = Fiber::current(); });
    fiber.resume();
    EXPECT_EQ(seen, &fiber);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ManyFibersInterleave)
{
    constexpr int numFibers = 16;
    constexpr int rounds = 100;
    std::vector<std::unique_ptr<Fiber>> fibers;
    std::vector<int> counts(numFibers, 0);
    for (int i = 0; i < numFibers; ++i) {
        fibers.push_back(std::make_unique<Fiber>([&counts, i] {
            for (int r = 0; r < rounds; ++r) {
                ++counts[(std::size_t)i];
                Fiber::yieldToCaller();
            }
        }));
    }
    bool live = true;
    while (live) {
        live = false;
        for (auto &fiber : fibers) {
            if (!fiber->finished()) {
                fiber->resume();
                live = live || !fiber->finished();
            }
        }
    }
    for (int count : counts)
        EXPECT_EQ(count, rounds);
}

TEST(Fiber, DeepRecursionOnFiberStack)
{
    // Exercise a few hundred KB of fiber stack, like an octree
    // traversal would.
    struct Recurse
    {
        static int
        down(int n)
        {
            char pad[512];
            pad[0] = (char)n;
            if (n == 0)
                return pad[0];
            return down(n - 1) + (pad[0] ? 1 : 1);
        }
    };
    int result = -1;
    Fiber fiber([&result] { result = Recurse::down(400); },
                512 * 1024);
    fiber.resume();
    EXPECT_EQ(result, 400);
}

TEST(Fiber, SwitchThroughputIsSane)
{
    // The whole engine depends on cheap switches; make sure a
    // round trip is well under a microsecond-scale budget by
    // doing a million of them in this test without timing out.
    std::uint64_t count = 0;
    Fiber fiber([&count] {
        for (;;) {
            ++count;
            Fiber::yieldToCaller();
        }
    });
    for (int i = 0; i < 1000000; ++i)
        fiber.resume();
    EXPECT_EQ(count, 1000000u);
}

TEST(Fiber, RingOfHandoffs)
{
    // Each fiber hands straight to the next; one resume() drives
    // the whole ring, and the chain returns to the test when fiber
    // 0 finishes after its last handoff.
    constexpr int numFibers = 5;
    constexpr int rounds = 50;
    std::vector<std::unique_ptr<Fiber>> fibers;
    std::vector<int> trace;
    for (int i = 0; i < numFibers; ++i) {
        fibers.push_back(std::make_unique<Fiber>([&fibers, &trace, i] {
            for (int r = 0; r < rounds; ++r) {
                trace.push_back(i);
                Fiber::switchTo(*fibers[(std::size_t)(i + 1) % numFibers]);
            }
        }));
    }
    fibers[0]->resume();
    ASSERT_EQ(trace.size(), (std::size_t)(numFibers * rounds));
    for (std::size_t k = 0; k < trace.size(); ++k)
        EXPECT_EQ(trace[k], (int)(k % numFibers));
    EXPECT_TRUE(fibers[0]->finished());

    // The others are parked inside their last switchTo(); each
    // resumes there and finishes back into this caller.
    for (int i = 1; i < numFibers; ++i) {
        EXPECT_FALSE(fibers[(std::size_t)i]->finished());
        fibers[(std::size_t)i]->resume();
        EXPECT_TRUE(fibers[(std::size_t)i]->finished());
    }
    EXPECT_EQ(trace.size(), (std::size_t)(numFibers * rounds));
}

TEST(Fiber, CurrentTracksHandoffs)
{
    std::vector<std::unique_ptr<Fiber>> fibers;
    std::vector<const Fiber *> seen;
    for (int i = 0; i < 3; ++i) {
        fibers.push_back(std::make_unique<Fiber>([&fibers, &seen, i] {
            seen.push_back(Fiber::current());
            if (i < 2)
                Fiber::switchTo(*fibers[(std::size_t)i + 1]);
            seen.push_back(Fiber::current());
        }));
    }
    fibers[0]->resume();
    // 0 -> 1 -> 2, and fiber 2 finishes back into this caller.
    EXPECT_EQ(Fiber::current(), nullptr);
    fibers[1]->resume();
    fibers[0]->resume();
    EXPECT_EQ(Fiber::current(), nullptr);
    std::vector<const Fiber *> want = {
        fibers[0].get(), fibers[1].get(), fibers[2].get(),
        fibers[2].get(), fibers[1].get(), fibers[0].get(),
    };
    EXPECT_EQ(seen, want);
}

TEST(Fiber, ChainReturnsToItsResumer)
{
    // A is resumed and hands to B; B yields, which lands in the
    // resume() of A. Resuming B continues it; B hands back to A,
    // and A finishing returns to the resumer of B.
    std::vector<int> trace;
    std::unique_ptr<Fiber> a;
    std::unique_ptr<Fiber> b;
    a = std::make_unique<Fiber>([&] {
        trace.push_back(1);
        Fiber::switchTo(*b);
        trace.push_back(5);
    });
    b = std::make_unique<Fiber>([&] {
        trace.push_back(2);
        Fiber::yieldToCaller();
        trace.push_back(4);
        Fiber::switchTo(*a);
    });
    a->resume();
    trace.push_back(3);
    b->resume();
    trace.push_back(6);
    EXPECT_TRUE(a->finished());
    EXPECT_FALSE(b->finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Fiber, FiberCanResumeAChain)
{
    // The resumer may itself be a fiber: the chain it starts
    // returns to it, not to the thread's original caller.
    std::vector<int> trace;
    std::unique_ptr<Fiber> a;
    std::unique_ptr<Fiber> b;
    a = std::make_unique<Fiber>([&] {
        trace.push_back(2);
        Fiber::switchTo(*b);
    });
    b = std::make_unique<Fiber>([&] { trace.push_back(3); });
    const Fiber *outerSeen = nullptr;
    Fiber outer([&] {
        trace.push_back(1);
        a->resume();
        outerSeen = Fiber::current();
        trace.push_back(4);
    });
    outer.resume();
    EXPECT_EQ(outerSeen, &outer);
    EXPECT_TRUE(outer.finished());
    EXPECT_TRUE(b->finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4}));
}

TEST(FiberDeath, ResumingFinishedFiberPanics)
{
    Fiber fiber([] {});
    fiber.resume();
    EXPECT_DEATH(fiber.resume(), "finished fiber");
}

TEST(FiberDeath, YieldOutsideFiberPanics)
{
    EXPECT_DEATH(Fiber::yieldToCaller(), "outside any fiber");
}

TEST(FiberDeath, SwitchingIntoFinishedFiberPanics)
{
    Fiber done([] {});
    done.resume();
    Fiber fiber([&done] { Fiber::switchTo(done); });
    EXPECT_DEATH(fiber.resume(), "switching into a finished fiber");
}

TEST(FiberDeath, SwitchOutsideFiberPanics)
{
    Fiber fiber([] {});
    EXPECT_DEATH(Fiber::switchTo(fiber), "outside any fiber");
}

} // namespace
