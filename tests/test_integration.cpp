/**
 * @file
 * Cross-module integration tests: end-to-end runs through the
 * public API, metric consistency, design-space sweeps, and the
 * qualitative results the reproduction stands on.
 */

#include <gtest/gtest.h>

#include "core/design_space.hh"
#include "core/parallel_run.hh"
#include "sweep/sweep.hh"
#include "workloads/splash/barnes.hh"
#include "workloads/splash/mp3d.hh"

namespace
{

using namespace scmp;

/**
 * A trivial fixed-work workload: a fixed array is partitioned
 * over however many threads run, so more processors genuinely
 * mean less work per processor.
 */
class Streamer : public ParallelWorkload
{
  public:
    std::string name() const override { return "streamer"; }

    void
    setup(Arena &arena, const Topology &) override
    {
        _words = arena.alloc<Shared<std::uint64_t>>(totalWords);
    }

    void
    threadMain(ThreadCtx &ctx, int tid, const Topology &topo)
        override
    {
        int n = topo.totalCpus();
        int first = totalWords * tid / n;
        int last = totalWords * (tid + 1) / n;
        for (int round = 0; round < 4; ++round) {
            for (int i = first; i < last; ++i)
                _words[i].rmw(ctx, [](std::uint64_t v) {
                    return v + 1;
                });
        }
    }

    bool
    verify() override
    {
        return _words[0].raw() == 4;
    }

    static constexpr int totalWords = 16384;

  private:
    Shared<std::uint64_t> *_words = nullptr;
};

TEST(Integration, MetricsAreConsistent)
{
    Streamer workload;
    MachineConfig config;
    config.cpusPerCluster = 2;
    auto result = runParallel(config, workload);

    EXPECT_TRUE(result.verified);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.references, 0u);
    EXPECT_GE(result.instructions, result.references);
    EXPECT_GE(result.readMissRate, 0.0);
    EXPECT_LE(result.readMissRate, 1.0);
    EXPECT_GE(result.busUtilization, 0.0);
    EXPECT_LE(result.busUtilization, 1.0);
    EXPECT_LE(result.invalidations, result.busTransactions);
}

TEST(Integration, DisjointDataScalesNearlyLinearly)
{
    auto time = [](int procs) {
        Streamer workload;
        MachineConfig config;
        config.cpusPerCluster = procs;
        config.scc.sizeBytes = 512 << 10;
        return (double)runParallel(config, workload).cycles;
    };
    double speedup = time(1) / time(4);
    EXPECT_GT(speedup, 3.5);
    EXPECT_LE(speedup, 4.2);
}

TEST(Integration, RepeatedRunsAreBitIdentical)
{
    auto run = [] {
        splash::BarnesParams params;
        params.nbodies = 128;
        params.steps = 2;
        splash::Barnes barnes(params);
        MachineConfig config;
        config.cpusPerCluster = 4;
        auto result = runParallel(config, barnes);
        return std::make_pair(result.cycles, result.references);
    };
    EXPECT_EQ(run(), run());
}

TEST(Integration, SweepCoversTheGrid)
{
    auto factory = [] {
        splash::Mp3dParams params;
        params.nparticles = 400;
        params.steps = 1;
        return std::make_unique<splash::Mp3d>(params);
    };
    std::vector<std::uint64_t> sizes{8 << 10, 64 << 10};
    std::vector<int> procs{1, 2};
    auto points = sweep::SweepExecutor({}).run(factory, MachineConfig{},
                                               sizes, procs);
    ASSERT_EQ(points.size(), 4u);
    for (auto &point : points) {
        EXPECT_TRUE(point.result.verified);
        EXPECT_GT(point.result.cycles, 0u);
    }
    // at() finds every grid point.
    for (int p : procs) {
        for (auto s : sizes)
            EXPECT_NO_FATAL_FAILURE(points.at(p, s));
    }
}

TEST(Integration, TablesHaveTheRightShape)
{
    auto factory = [] {
        splash::Mp3dParams params;
        params.nparticles = 400;
        params.steps = 1;
        return std::make_unique<splash::Mp3d>(params);
    };
    std::vector<std::uint64_t> sizes{8 << 10, 64 << 10};
    std::vector<int> procs{1, 2};
    auto points = sweep::SweepExecutor({}).run(factory, MachineConfig{},
                                               sizes, procs);

    auto normalized = DesignSpace::normalizedTimeTable(
        "t", points, sizes, procs);
    EXPECT_EQ(normalized.rows(), sizes.size());
    EXPECT_EQ(normalized.columns(), procs.size() + 1);
    // The reference cell is 100 by construction.
    EXPECT_EQ(normalized.at(0, 1), "100.0");

    auto speedup =
        DesignSpace::speedupTable("t", points, sizes, procs);
    EXPECT_EQ(speedup.at(0, 1), "1.0");

    auto missRates =
        DesignSpace::missRateTable("t", points, sizes, procs);
    EXPECT_EQ(missRates.rows(), procs.size());
    EXPECT_EQ(missRates.columns(), sizes.size() + 1);
}

TEST(Integration, PaperAxes)
{
    auto sizes = DesignSpace::paperSccSizes();
    ASSERT_EQ(sizes.size(), 8u);
    EXPECT_EQ(sizes.front(), 4u << 10);
    EXPECT_EQ(sizes.back(), 512u << 10);
    auto procs = DesignSpace::paperClusterSizes();
    EXPECT_EQ(procs, (std::vector<int>{1, 2, 4, 8}));
}

TEST(IntegrationDeath, MissingDesignPointPanics)
{
    DesignGrid grid;
    EXPECT_DEATH(grid.at(1, 4096), "not in sweep");
}

TEST(Integration, SlackWindowKeepsResultsClose)
{
    // Relaxing the interleaving window is a speed knob; results
    // must stay within a few percent of the exact ordering.
    auto time = [](CycleDelta window) {
        splash::BarnesParams params;
        params.nbodies = 256;
        params.steps = 2;
        splash::Barnes barnes(params);
        MachineConfig config;
        config.cpusPerCluster = 4;
        config.engine.slackWindow = window;
        return (double)runParallel(config, barnes).cycles;
    };
    double exact = time(0);
    double relaxed = time(20);
    EXPECT_NEAR(relaxed / exact, 1.0, 0.10);
}

} // namespace
