/**
 * @file
 * Tests for the observability subsystem (src/obs): the zero-cost
 * off-switch contract (recorder on/off runs are bit-identical),
 * event-ring drop accounting, Chrome trace_event JSON validity,
 * barrier-epoch phase attribution, and exact integration of the
 * interval-metrics series back to whole-run statistics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/parallel_run.hh"
#include "core/workload.hh"
#include "obs/event.hh"
#include "obs/recorder.hh"
#include "sweep/json.hh"

namespace
{

using namespace scmp;

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * A small fixed-work workload with barrier-delimited phases: each
 * thread walks its slice of a shared array once per phase. The
 * footprint (2048 words) overflows an 8 KB SCC, so a run produces
 * engine slices, bus traffic, SCC port references, MSHR fills, and
 * three barrier releases — every event source except sched.
 */
class PhasedStreamer : public ParallelWorkload
{
  public:
    std::string name() const override { return "obs-phased"; }

    void
    setup(Arena &arena, const Topology &topo) override
    {
        _words = arena.alloc<Shared<std::uint64_t>>(totalWords);
        _barrier.emplace(arena, topo.totalCpus());
    }

    void
    threadMain(ThreadCtx &ctx, int tid, const Topology &topo)
        override
    {
        int n = topo.totalCpus();
        int first = totalWords * tid / n;
        int last = totalWords * (tid + 1) / n;
        for (int phase = 0; phase < phases; ++phase) {
            for (int i = first; i < last; ++i)
                _words[i].rmw(ctx, [](std::uint64_t v) {
                    return v + 1;
                });
            ctx.barrier(*_barrier);
        }
    }

    bool
    verify() override
    {
        return _words[0].raw() == (std::uint64_t)phases;
    }

    static constexpr int totalWords = 2048;
    static constexpr int phases = 3;

  private:
    Shared<std::uint64_t> *_words = nullptr;
    std::optional<SimBarrier> _barrier;
};

/** The pinned machine point every test here runs. */
MachineConfig
testMachine()
{
    MachineConfig config;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 8 << 10;
    return config;
}

RunResult
runPoint(const obs::RecorderConfig &obsConfig)
{
    MachineConfig config = testMachine();
    config.obs = obsConfig;
    PhasedStreamer workload;
    return runParallel(config, workload);
}

/** Parse @p text or fail the test with the parser's error. */
sweep::Json
parsed(const std::string &text)
{
    sweep::Json doc;
    std::string error;
    EXPECT_TRUE(sweep::Json::parse(text, doc, &error)) << error;
    return doc;
}

TEST(EventRing, CapacityBoundsRecordingAndCountsDrops)
{
    obs::EventRing ring(4);
    obs::Event event;
    for (int i = 0; i < 10; ++i) {
        event.start = event.end = (Cycle)i;
        bool stored = ring.push(event);
        EXPECT_EQ(stored, i < 4);
    }
    EXPECT_EQ(ring.recorded(), 4u);
    EXPECT_EQ(ring.dropped(), 6u);
    EXPECT_EQ(ring.events().size(), 4u);
}

TEST(Recorder, OnOffRunsAreBitIdentical)
{
    RunResult off = runPoint(obs::RecorderConfig{});

    std::string tracePath = tempPath("obs_onoff_trace.json");
    std::string seriesPath = tempPath("obs_onoff_series.csv");
    obs::RecorderConfig obsConfig;
    obsConfig.enabled = true;
    obsConfig.tracePath = tracePath;
    obsConfig.seriesPath = seriesPath;
    obsConfig.intervalCycles = 512;
    obsConfig.captureSeries = true;
    RunResult on = runPoint(obsConfig);

    // The whole point of the subsystem: full observability changes
    // no simulated result, bit for bit.
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.instructions, off.instructions);
    EXPECT_EQ(on.references, off.references);
    EXPECT_EQ(on.readMissRate, off.readMissRate);
    EXPECT_EQ(on.missRate, off.missRate);
    EXPECT_EQ(on.invalidations, off.invalidations);
    EXPECT_EQ(on.busTransactions, off.busTransactions);
    EXPECT_EQ(on.busUtilization, off.busUtilization);
    EXPECT_EQ(on.verified, off.verified);
    EXPECT_TRUE(on.verified);

    // Only the observability carry-through differs.
    EXPECT_TRUE(off.obsSeries.empty());
    EXPECT_FALSE(on.obsSeries.empty());
    EXPECT_FALSE(slurp(tracePath).empty());
    EXPECT_FALSE(slurp(seriesPath).empty());
    std::remove(tracePath.c_str());
    std::remove(seriesPath.c_str());
}

TEST(Recorder, TraceIsValidChromeJsonCoveringAllSources)
{
    std::string tracePath = tempPath("obs_trace.json");
    obs::RecorderConfig obsConfig;
    obsConfig.enabled = true;
    obsConfig.tracePath = tracePath;
    runPoint(obsConfig);

    sweep::Json doc = parsed(slurp(tracePath));
    std::remove(tracePath.c_str());

    const sweep::Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_FALSE(events->asArray().empty());

    std::set<std::string> cats;
    std::set<std::string> phs;
    for (const sweep::Json &event : events->asArray()) {
        const sweep::Json *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        phs.insert(ph->asString());
        if (ph->asString() == "M")
            continue;  // metadata has no cat/ts
        ASSERT_NE(event.find("cat"), nullptr);
        ASSERT_NE(event.find("ts"), nullptr);
        ASSERT_NE(event.find("pid"), nullptr);
        ASSERT_NE(event.find("tid"), nullptr);
        cats.insert(event.find("cat")->asString());
    }
    // The acceptance bar: events from the engine, the bus, the SCC
    // ports, and the MSHR file all present in one quick run.
    EXPECT_TRUE(cats.count("engine"));
    EXPECT_TRUE(cats.count("bus"));
    EXPECT_TRUE(cats.count("scc"));
    EXPECT_TRUE(cats.count("mshr"));
    // Complete slices, instants, async fill pairs, and metadata.
    EXPECT_TRUE(phs.count("X"));
    EXPECT_TRUE(phs.count("i"));
    EXPECT_TRUE(phs.count("b"));
    EXPECT_TRUE(phs.count("e"));
    EXPECT_TRUE(phs.count("M"));

    // The scmp trailer carries the recording ledger.
    const sweep::Json *scmp = doc.find("scmp");
    ASSERT_NE(scmp, nullptr);
    EXPECT_GT(scmp->find("recorded")->asU64(), 0u);
    const sweep::Json *dropped = scmp->find("dropped");
    ASSERT_NE(dropped, nullptr);
    for (const char *source : {"engine", "bus", "scc", "mshr",
                               "sched"})
        EXPECT_EQ(dropped->find(source)->asU64(), 0u)
            << source << " dropped events in an uncapped run";
    EXPECT_GT(scmp->find("mshr_allocs")->asU64(), 0u);
}

TEST(Recorder, TinyEventCapDropsAndAccounts)
{
    std::string tracePath = tempPath("obs_capped_trace.json");
    obs::RecorderConfig obsConfig;
    obsConfig.enabled = true;
    obsConfig.tracePath = tracePath;
    obsConfig.eventCap = 8;
    runPoint(obsConfig);

    sweep::Json doc = parsed(slurp(tracePath));
    std::remove(tracePath.c_str());

    const sweep::Json *scmp = doc.find("scmp");
    ASSERT_NE(scmp, nullptr);
    // At most cap events per source ring survive; the rest are
    // counted, not silently lost.
    EXPECT_LE(scmp->find("recorded")->asU64(),
              8u * (std::uint64_t)obs::numSources);
    std::uint64_t droppedTotal = 0;
    for (const char *source : {"engine", "bus", "scc", "mshr",
                               "sched"})
        droppedTotal += scmp->find("dropped")->find(source)->asU64();
    EXPECT_GT(droppedTotal, 0u);
}

TEST(Recorder, PhaseCyclesTelescopeToTheRunExactly)
{
    std::string tracePath = tempPath("obs_phase_trace.json");
    obs::RecorderConfig obsConfig;
    obsConfig.enabled = true;
    obsConfig.tracePath = tracePath;
    RunResult result = runPoint(obsConfig);

    sweep::Json doc = parsed(slurp(tracePath));
    std::remove(tracePath.c_str());

    const sweep::Json *phases = doc.find("scmp")->find("phases");
    ASSERT_NE(phases, nullptr);
    const auto &list = phases->asArray();
    // Three barrier releases plus the finish boundary: at least the
    // workload's phase count (the trailing epoch may be empty).
    ASSERT_GE(list.size(), (std::size_t)PhasedStreamer::phases);

    Cycle cursor = 0;
    std::uint64_t totalCycles = 0;
    for (const sweep::Json &phase : list) {
        std::uint64_t start = phase.find("start")->asU64();
        std::uint64_t end = phase.find("end")->asU64();
        EXPECT_EQ(start, cursor) << "phases must be contiguous";
        EXPECT_LE(start, end);
        EXPECT_EQ(phase.find("cycles")->asU64(), end - start);
        totalCycles += end - start;
        cursor = end;
    }
    // Telescoping: epoch durations sum exactly to the run's cycle
    // count, cycle 0 through the finish time.
    EXPECT_EQ(totalCycles, result.cycles);
    EXPECT_EQ(cursor, result.cycles);

    // Work attribution: the three real phases each retire
    // references (every thread walks its slice every phase).
    for (int i = 0; i < PhasedStreamer::phases; ++i) {
        const sweep::Json *deltas = list[i].find("deltas");
        ASSERT_NE(deltas, nullptr);
        std::uint64_t refs =
            deltas->find("readHits")->asU64() +
            deltas->find("readMisses")->asU64() +
            deltas->find("writeHits")->asU64() +
            deltas->find("writeMisses")->asU64();
        EXPECT_GT(refs, 0u) << "phase " << i;
    }
}

TEST(Recorder, SeriesIntegratesBackToWholeRunStats)
{
    obs::RecorderConfig obsConfig;
    obsConfig.enabled = true;
    obsConfig.intervalCycles = 512;
    obsConfig.captureSeries = true;
    RunResult result = runPoint(obsConfig);

    ASSERT_FALSE(result.obsSeries.empty());
    sweep::Json doc = parsed(result.obsSeries);
    const sweep::Json *columns = doc.find("columns");
    const sweep::Json *rows = doc.find("rows");
    ASSERT_NE(columns, nullptr);
    ASSERT_NE(rows, nullptr);
    ASSERT_GE(rows->asArray().size(), 2u);

    auto columnIndex = [&](const std::string &name) {
        const auto &names = columns->asArray();
        for (std::size_t i = 0; i < names.size(); ++i)
            if (names[i].asString() == name)
                return i;
        ADD_FAILURE() << "no column '" << name << "'";
        return (std::size_t)0;
    };
    std::size_t cycleCol = columnIndex("cycle");
    std::size_t busCol = columnIndex("busTransactions");
    std::size_t invalCol = columnIndex("invalidations");

    // The series opens with a cycle-0 baseline row, advances
    // strictly, and cumulative columns are monotone. The sampler's
    // forced final row lands at the exact finish cycle, so the last
    // row IS the whole-run aggregate — equality, not approximation.
    EXPECT_EQ(rows->asArray()
                  .front()
                  .asArray()[cycleCol]
                  .asU64(),
              0u);
    std::uint64_t prevBus = 0;
    std::uint64_t prevCycle = 0;
    bool firstRow = true;
    for (const sweep::Json &row : rows->asArray()) {
        std::uint64_t cycle = row.asArray()[cycleCol].asU64();
        std::uint64_t bus = row.asArray()[busCol].asU64();
        if (!firstRow) {
            EXPECT_GT(cycle, prevCycle);
        }
        EXPECT_GE(bus, prevBus);
        prevCycle = cycle;
        prevBus = bus;
        firstRow = false;
    }
    const sweep::Json &last = rows->asArray().back();
    EXPECT_EQ(last.asArray()[cycleCol].asU64(), result.cycles);
    EXPECT_EQ(last.asArray()[busCol].asU64(),
              result.busTransactions);
    EXPECT_EQ(last.asArray()[invalCol].asU64(),
              result.invalidations);
}

TEST(Recorder, EnvAttachMirrorsScmpCheck)
{
    obs::RecorderConfig config;
    ::unsetenv("SCMP_OBS");
    ::unsetenv("SCMP_OBS_INTERVAL");
    ::unsetenv("SCMP_OBS_SERIES");
    ::unsetenv("SCMP_OBS_CAP");
    obs::applyEnv(config);
    EXPECT_FALSE(config.enabled);

    ::setenv("SCMP_OBS", "1", 1);
    obs::applyEnv(config);
    EXPECT_TRUE(config.enabled);
    EXPECT_EQ(config.tracePath, "scmp_trace.json");

    config = obs::RecorderConfig{};
    ::setenv("SCMP_OBS", "my_trace.json", 1);
    ::setenv("SCMP_OBS_INTERVAL", "2k", 1);
    ::setenv("SCMP_OBS_CAP", "64", 1);
    obs::applyEnv(config);
    EXPECT_TRUE(config.enabled);
    EXPECT_EQ(config.tracePath, "my_trace.json");
    EXPECT_EQ(config.intervalCycles, 2048u);
    EXPECT_EQ(config.eventCap, 64u);

    // "0" means off, exactly like SCMP_CHECK.
    config = obs::RecorderConfig{};
    ::setenv("SCMP_OBS", "0", 1);
    obs::applyEnv(config);
    EXPECT_FALSE(config.enabled);

    // A series path on its own turns the recorder on, as
    // --obs-series does, sampling at the default interval.
    config = obs::RecorderConfig{};
    ::unsetenv("SCMP_OBS");
    ::unsetenv("SCMP_OBS_INTERVAL");
    ::unsetenv("SCMP_OBS_CAP");
    ::setenv("SCMP_OBS_SERIES", "s.csv", 1);
    obs::applyEnv(config);
    EXPECT_TRUE(config.enabled);
    EXPECT_EQ(config.seriesPath, "s.csv");
    EXPECT_TRUE(config.tracePath.empty());
    EXPECT_EQ(config.intervalCycles, obs::defaultObsInterval);

    // Leave no trace for the rest of the test binary (the Machine
    // constructor consults these).
    ::unsetenv("SCMP_OBS");
    ::unsetenv("SCMP_OBS_INTERVAL");
    ::unsetenv("SCMP_OBS_SERIES");
    ::unsetenv("SCMP_OBS_CAP");
}

/** A malformed size in the environment stops the run, naming the
 *  variable, rather than running without it. */
TEST(RecorderDeathTest, MalformedEnvSizesAreFatal)
{
    struct Case
    {
        const char *var;
        const char *value;
        const char *message;
    };
    for (const Case &c :
         {Case{"SCMP_OBS_INTERVAL", "abc",
               "SCMP_OBS_INTERVAL: cannot parse size from 'abc'"},
          Case{"SCMP_OBS_CAP", "12q",
               "SCMP_OBS_CAP: cannot parse size from '12q'"},
          Case{"SCMP_OBS_CAP", "0", "SCMP_OBS_CAP must be at least 1"}}) {
        ::setenv(c.var, c.value, 1);
        obs::RecorderConfig config;
        EXPECT_EXIT(obs::applyEnv(config), ::testing::ExitedWithCode(1),
                    c.message)
            << c.var << "=" << c.value;
        ::unsetenv(c.var);
    }
}

} // namespace
