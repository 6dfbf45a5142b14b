/**
 * @file
 * Tests for the sweep subsystem: stable point keys, the JSON-lines
 * result store, resume semantics, parallel-vs-serial bit identity,
 * the machine-readable statistics dump records attach, and the
 * study driver (key dedupe, axis tags, the resume identity rule).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "sweep/json.hh"
#include "sweep/point_key.hh"
#include "sweep/result_store.hh"
#include "sweep/sweep.hh"

namespace
{

using namespace scmp;

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/**
 * A small fixed-work workload (same shape as the integration
 * tests' Streamer): cheap enough for an 8-point grid per test.
 */
class MiniStreamer : public ParallelWorkload
{
  public:
    std::string name() const override { return "mini"; }

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
        for (int round = 0; round < 2; ++round) {
            for (int i = first; i < last; ++i)
                _words[i].rmw(ctx, [](std::uint64_t v) {
                    return v + 1;
                });
        }
    }

    bool
    verify() override
    {
        return _words[0].raw() == 2;
    }

    static constexpr int totalWords = 2048;

  private:
    Shared<std::uint64_t> *_words = nullptr;
};

DesignSpace::WorkloadFactory
miniFactory()
{
    return [] { return std::make_unique<MiniStreamer>(); };
}

/** Collects every seed the executor hands out, thread-safely. */
struct SeedLog
{
    std::mutex mutex;
    std::multiset<std::uint64_t> seeds;
    std::vector<std::uint64_t> arrivals; //!< seeds in reseed() order
    std::set<std::thread::id> threads;   //!< host threads that reseeded
};

/** A workload that records its reseed() value into a SeedLog. */
class SeedProbe : public ParallelWorkload
{
  public:
    explicit SeedProbe(SeedLog *log) : _log(log) {}

    std::string name() const override { return "seed-probe"; }

    void
    reseed(std::uint64_t pointSeed) override
    {
        std::lock_guard<std::mutex> lock(_log->mutex);
        _log->seeds.insert(pointSeed);
        _log->arrivals.push_back(pointSeed);
        _log->threads.insert(std::this_thread::get_id());
    }

    void
    setup(Arena &arena, const Topology &) override
    {
        _counter = arena.alloc<Shared<std::uint64_t>>();
    }

    void
    threadMain(ThreadCtx &ctx, int, const Topology &) override
    {
        _counter->rmw(ctx, [](std::uint64_t v) { return v + 1; });
    }

  private:
    SeedLog *_log;
    Shared<std::uint64_t> *_counter = nullptr;
};

void
expectSameResults(const std::vector<DesignPoint> &a,
                  const std::vector<DesignPoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const DesignPoint &pa = a[i];
        const DesignPoint &pb = b[i];
        EXPECT_EQ(pa.cpusPerCluster, pb.cpusPerCluster);
        EXPECT_EQ(pa.sccBytes, pb.sccBytes);
        EXPECT_EQ(pa.result.cycles, pb.result.cycles);
        EXPECT_EQ(pa.result.instructions, pb.result.instructions);
        EXPECT_EQ(pa.result.references, pb.result.references);
        EXPECT_EQ(pa.result.readMissRate, pb.result.readMissRate);
        EXPECT_EQ(pa.result.missRate, pb.result.missRate);
        EXPECT_EQ(pa.result.invalidations,
                  pb.result.invalidations);
        EXPECT_EQ(pa.result.busTransactions,
                  pb.result.busTransactions);
        EXPECT_EQ(pa.result.busUtilization,
                  pb.result.busUtilization);
        EXPECT_EQ(pa.result.verified, pb.result.verified);
    }
}

const std::vector<std::uint64_t> testSizes{8 << 10, 32 << 10};
const std::vector<int> testProcs{1, 2};

TEST(PointKey, StableAcrossEqualConfigs)
{
    MachineConfig a;
    MachineConfig b;
    EXPECT_EQ(sweep::hashMachineConfig(a),
              sweep::hashMachineConfig(b));
    EXPECT_EQ(sweep::pointKey(a, "barnes", "quick"),
              sweep::pointKey(b, "barnes", "quick"));
}

TEST(PointKey, SensitiveToEveryAxis)
{
    MachineConfig base;
    std::uint64_t baseKey =
        sweep::pointKey(base, "barnes", "quick");

    MachineConfig other = base;
    other.cpusPerCluster = 2;
    EXPECT_NE(sweep::pointKey(other, "barnes", "quick"), baseKey);

    other = base;
    other.scc.sizeBytes *= 2;
    EXPECT_NE(sweep::pointKey(other, "barnes", "quick"), baseKey);

    other = base;
    other.scc.protocol = CoherenceProtocol::WriteUpdate;
    EXPECT_NE(sweep::pointKey(other, "barnes", "quick"), baseKey);

    other = base;
    other.bus.memoryLatency += 1;
    EXPECT_NE(sweep::pointKey(other, "barnes", "quick"), baseKey);

    other = base;
    other.engine.slackWindow = 10;
    EXPECT_NE(sweep::pointKey(other, "barnes", "quick"), baseKey);

    EXPECT_NE(sweep::pointKey(base, "mp3d", "quick"), baseKey);
    EXPECT_NE(sweep::pointKey(base, "barnes", "full"), baseKey);
}

TEST(PointKey, HexRoundTrip)
{
    std::uint64_t key = 0x0123456789abcdefull;
    std::string hex = sweep::keyHex(key);
    EXPECT_EQ(hex, "0123456789abcdef");
    std::uint64_t parsed = 0;
    ASSERT_TRUE(sweep::parseKeyHex(hex, parsed));
    EXPECT_EQ(parsed, key);
    EXPECT_FALSE(sweep::parseKeyHex("no", parsed));
    EXPECT_FALSE(sweep::parseKeyHex("xxxxxxxxxxxxxxxx", parsed));
}

/** The machine half of a point key, as a store prints keys. */
std::string
machineKey(const MachineConfig &config)
{
    return sweep::keyHex(sweep::hashMachineConfig(config));
}

// Keys captured before the design-field table existed, for configs
// that turn every axis on and set each field that acts off its
// default. Deriving the key from the table must not move any of them.
TEST(PointKey, PinsHoldForEveryAxis)
{
    MachineConfig tree;
    tree.numClusters = 8;
    tree.net.topology = NetTopology::Tree;
    tree.net.segments = 4;
    tree.net.snoopFilterCapacity = 256;
    EXPECT_EQ(machineKey(tree), "59aedccc8b3d4870");

    MachineConfig split;
    split.net.topology = NetTopology::Split;
    split.net.arbitration = NetArbitration::Priority;
    split.net.arbLatency = 3;
    EXPECT_EQ(machineKey(split), "134cb530371c0cf5");

    MachineConfig numa;
    numa.net.topology = NetTopology::Tree;
    numa.dram.kind = MemBackendKind::Banked;
    numa.dram.channels = 4;
    numa.dram.banks = 8;
    numa.dram.sched = MemSched::FrFcfs;
    numa.dram.rowBytes = 4096;
    numa.dram.numaRemotePenalty = 60;
    numa.dram.timing = {20, 60, 100, 4};
    EXPECT_EQ(machineKey(numa), "6331b60a410a448d");

    MachineConfig weak;
    weak.consistency.model = ConsistencyModel::Weak;
    weak.consistency.storeBufferEntries = 4;
    EXPECT_EQ(machineKey(weak), "47bb151f96634cc1");

    const char *const tmKeys[] = {"62b569054ca6b8f1",
                                  "7e274f7b56d220ce"};
    int i = 0;
    for (TmMode mode : {TmMode::Eager, TmMode::Lazy}) {
        MachineConfig tm;
        tm.tm = {mode, 16, 4, 8, 2, 6, 12};
        EXPECT_EQ(machineKey(tm), tmKeys[i++]) << nameOf(mode);
    }

    const char *const secKeys[] = {"fa7309f99a9a96e4",
                                   "d61b73cd83b6a253",
                                   "d1b4bcafcf0ad5de"};
    i = 0;
    for (IsolationMode mode : {IsolationMode::WayPart,
                               IsolationMode::Color,
                               IsolationMode::Rand}) {
        MachineConfig sec;
        sec.scc.assoc = 4;
        sec.scc.sec = {mode, 4, 512, 0x1234};
        EXPECT_EQ(machineKey(sec), secKeys[i++]) << nameOf(mode);
    }

    MachineConfig icache;
    icache.icache = {true, 8 << 10, 64, 8};
    EXPECT_EQ(machineKey(icache), "f0cdd8256f3cdb79");

    MachineConfig engine;
    engine.engine.slackWindow = 100;
    engine.engine.yieldLatency = 8;
    engine.engine.barrierOverhead = 32;
    engine.engine.contextSwitchCost = 500;
    EXPECT_EQ(machineKey(engine), "827fffaf89232666");

    MachineConfig priv;
    priv.organization = ClusterOrganization::PrivateCaches;
    priv.privateCacheBytes = 16 << 10;
    EXPECT_EQ(machineKey(priv), "ef0163561237bca5");

    // fig_net_scaling --quick's one-cluster tree (its fixture key).
    MachineConfig lone;
    lone.numClusters = 1;
    lone.cpusPerCluster = 4;
    lone.bus.transferOccupancy = 8;
    lone.net.topology = NetTopology::Tree;
    EXPECT_EQ(sweep::keyHex(sweep::pointKey(lone, "Barnes-Hut",
                                            "quick")),
              "1f8fc7267b6361fb");
}

TEST(Json, ParsesWhatItDumps)
{
    sweep::Json obj = sweep::Json::object();
    obj.set("name", sweep::Json::string("he said \"hi\"\n"));
    obj.set("big",
            sweep::Json::unsignedInt(12345678901234567890ull));
    obj.set("frac", sweep::Json::number(1.0 / 3.0));
    obj.set("neg", sweep::Json::number(-2.5));
    obj.set("flag", sweep::Json::boolean(true));
    obj.set("none", sweep::Json::null());
    sweep::Json arr = sweep::Json::array();
    arr.push(sweep::Json::unsignedInt(1));
    arr.push(sweep::Json::unsignedInt(2));
    obj.set("list", std::move(arr));

    sweep::Json parsed;
    std::string error;
    ASSERT_TRUE(sweep::Json::parse(obj.dump(), parsed, &error))
        << error;
    EXPECT_EQ(parsed.find("name")->asString(),
              "he said \"hi\"\n");
    EXPECT_EQ(parsed.find("big")->asU64(),
              12345678901234567890ull);
    EXPECT_EQ(parsed.find("frac")->asDouble(), 1.0 / 3.0);
    EXPECT_EQ(parsed.find("neg")->asDouble(), -2.5);
    EXPECT_TRUE(parsed.find("flag")->asBool());
    EXPECT_EQ(parsed.find("none")->type(),
              sweep::Json::Type::Null);
    EXPECT_EQ(parsed.find("list")->asArray().size(), 2u);
}

TEST(Json, RejectsGarbage)
{
    sweep::Json out;
    std::string error;
    EXPECT_FALSE(sweep::Json::parse("{\"a\":", out, &error));
    EXPECT_FALSE(sweep::Json::parse("{\"a\":1} trailing", out,
                                    &error));
    EXPECT_FALSE(sweep::Json::parse("", out, &error));
    EXPECT_FALSE(sweep::Json::parse("{'a':1}", out, &error));
}

TEST(ResultStore, RecordRoundTripIsExact)
{
    sweep::StoredPoint point;
    point.key = 0xdeadbeefcafef00dull;
    point.workload = "barnes";
    point.scale = "full";
    point.cpusPerCluster = 8;
    point.sccBytes = 512 << 10;
    point.result.cycles = 12345678901234567ull;
    point.result.instructions = 987654321ull;
    point.result.references = 123456789ull;
    point.result.readMissRate = 0.1 + 0.2;  // not representable
    point.result.missRate = 1.0 / 3.0;
    point.result.invalidations = 42;
    point.result.busTransactions = 77;
    point.result.busUtilization = 0.9999999999999999;
    point.result.verified = true;
    point.wallMs = 1234.5678;
    point.statsJson = "{\"bus\":{\"transactions\":77}}";

    // The same record with every optional result group (dram, tm,
    // server, sec) present.
    sweep::StoredPoint grouped = point;
    RunResult &g = grouped.result;
    g.dramFills = 5001;
    g.dramRowHitRate = 2.0 / 7.0;
    g.tmCommits = 64;
    g.tmAborts = 9;
    g.tmFallbacks = 2;
    g.tmAbortRate = 9.0 / 73.0;
    g.requests = 250000;
    g.latencyP50 = 812.5;
    g.latencyP95 = 4096.25;
    g.latencyP99 = 1.0e6 / 3.0;
    g.throughput = 0.7071067811865476;
    g.secEpochs = 96;
    g.secProbeAccuracy = 11.0 / 96.0;
    g.secChanceAccuracy = 0.125;
    g.leakBitsPerEpoch = 1.0e-3 / 7.0;

    for (const sweep::StoredPoint *in : {&point, &grouped}) {
        sweep::StoredPoint back;
        std::string error;
        ASSERT_TRUE(sweep::ResultStore::deserialize(
            sweep::ResultStore::serialize(*in), back, &error))
            << error;

        EXPECT_EQ(back.key, in->key);
        EXPECT_EQ(back.workload, in->workload);
        EXPECT_EQ(back.scale, in->scale);
        EXPECT_EQ(back.cpusPerCluster, in->cpusPerCluster);
        EXPECT_EQ(back.sccBytes, in->sccBytes);
        const RunResult &r = back.result;
        const RunResult &e = in->result;
        EXPECT_EQ(r.cycles, e.cycles);
        EXPECT_EQ(r.instructions, e.instructions);
        EXPECT_EQ(r.references, e.references);
        // Doubles must survive the text round trip bit-exactly.
        EXPECT_EQ(r.readMissRate, e.readMissRate);
        EXPECT_EQ(r.missRate, e.missRate);
        EXPECT_EQ(r.busUtilization, e.busUtilization);
        EXPECT_EQ(r.invalidations, e.invalidations);
        EXPECT_EQ(r.busTransactions, e.busTransactions);
        EXPECT_EQ(r.verified, e.verified);
        EXPECT_EQ(r.dramFills, e.dramFills);
        EXPECT_EQ(r.dramRowHitRate, e.dramRowHitRate);
        EXPECT_EQ(r.tmCommits, e.tmCommits);
        EXPECT_EQ(r.tmAborts, e.tmAborts);
        EXPECT_EQ(r.tmFallbacks, e.tmFallbacks);
        EXPECT_EQ(r.tmAbortRate, e.tmAbortRate);
        EXPECT_EQ(r.requests, e.requests);
        EXPECT_EQ(r.latencyP50, e.latencyP50);
        EXPECT_EQ(r.latencyP95, e.latencyP95);
        EXPECT_EQ(r.latencyP99, e.latencyP99);
        EXPECT_EQ(r.throughput, e.throughput);
        EXPECT_EQ(r.secEpochs, e.secEpochs);
        EXPECT_EQ(r.secProbeAccuracy, e.secProbeAccuracy);
        EXPECT_EQ(r.secChanceAccuracy, e.secChanceAccuracy);
        EXPECT_EQ(r.leakBitsPerEpoch, e.leakBitsPerEpoch);
        EXPECT_EQ(back.wallMs, in->wallMs);
        sweep::Json stats;
        ASSERT_TRUE(sweep::Json::parse(back.statsJson, stats, &error))
            << error;
        EXPECT_EQ(stats.find("bus")->find("transactions")->asU64(),
                  77u);
    }
}

TEST(ResultStore, AppendThenReload)
{
    std::string path = tempPath("store_reload.jsonl");
    sweep::StoredPoint a;
    a.key = 1;
    a.workload = "mini";
    a.scale = "quick";
    a.result.cycles = 100;
    sweep::StoredPoint b = a;
    b.key = 2;
    b.result.cycles = 200;
    {
        sweep::ResultStore store;
        store.open(path, false);
        store.append(a);
        store.append(b);
    }
    sweep::ResultStore store;
    store.open(path, true);
    EXPECT_EQ(store.size(), 2u);
    ASSERT_NE(store.find(1), nullptr);
    ASSERT_NE(store.find(2), nullptr);
    EXPECT_EQ(store.find(1)->result.cycles, 100u);
    EXPECT_EQ(store.find(2)->result.cycles, 200u);
    EXPECT_EQ(store.find(3), nullptr);
    std::remove(path.c_str());
}

TEST(ResultStoreDeath, CorruptLineIsFatal)
{
    std::string path = tempPath("store_corrupt.jsonl");
    sweep::StoredPoint a;
    a.key = 1;
    a.workload = "mini";
    a.scale = "quick";
    {
        sweep::ResultStore store;
        store.open(path, false);
        store.append(a);
    }
    {
        // A corrupt line that is newline-terminated is NOT a crash
        // artifact; resuming over it must refuse loudly.
        std::ofstream out(path, std::ios::app);
        out << "{\"v\":1,\"key\":\"garbage\n";
    }
    EXPECT_EXIT(
        {
            sweep::ResultStore store;
            store.open(path, true);
        },
        ::testing::ExitedWithCode(1), "corrupt");
    std::remove(path.c_str());
}

TEST(ResultStore, PartialFinalRecordIsDiscarded)
{
    std::string path = tempPath("store_partial.jsonl");
    sweep::StoredPoint a;
    a.key = 1;
    a.workload = "mini";
    a.scale = "quick";
    {
        sweep::ResultStore store;
        store.open(path, false);
        store.append(a);
    }
    {
        // Simulate a kill mid-append: no trailing newline.
        std::ofstream out(path, std::ios::app);
        out << "{\"v\":1,\"key\":\"0000";
    }
    setLogQuiet(true);
    sweep::ResultStore store;
    store.open(path, true);
    setLogQuiet(false);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_NE(store.find(1), nullptr);

    // The partial tail was truncated away, so appending again
    // yields a fully parseable file.
    sweep::StoredPoint b = a;
    b.key = 2;
    store.append(b);
    store.close();
    sweep::ResultStore reloaded;
    reloaded.open(path, true);
    EXPECT_EQ(reloaded.size(), 2u);
    std::remove(path.c_str());
}

TEST(Sweep, ParallelIsBitIdenticalToSerial)
{
    sweep::SweepOptions serialOptions;
    serialOptions.jobs = 1;
    sweep::SweepExecutor serial(serialOptions);
    auto serialGrid = serial.run(miniFactory(), MachineConfig{},
                                 testSizes, testProcs);

    sweep::SweepOptions parallelOptions;
    parallelOptions.jobs = 4;
    sweep::SweepExecutor parallel(parallelOptions);
    auto parallelGrid = parallel.run(
        miniFactory(), MachineConfig{}, testSizes, testProcs);

    ASSERT_EQ(serialGrid.size(),
              testSizes.size() * testProcs.size());
    expectSameResults(serialGrid.points(), parallelGrid.points());
    for (const auto &point : serialGrid)
        EXPECT_TRUE(point.result.verified);
}

TEST(Sweep, EveryPointGetsItsConfigHashSeed)
{
    auto runAndCollect = [](int jobs) {
        SeedLog log;
        auto factory = [&log] {
            return std::make_unique<SeedProbe>(&log);
        };
        sweep::SweepOptions options;
        options.jobs = jobs;
        sweep::SweepExecutor executor(options);
        executor.run(factory, MachineConfig{}, testSizes,
                     testProcs);
        return log.seeds;
    };

    auto serialSeeds = runAndCollect(1);
    auto parallelSeeds = runAndCollect(3);

    // One seed per grid point, no duplicates, identical sets
    // regardless of host-thread count.
    EXPECT_EQ(serialSeeds.size(),
              testSizes.size() * testProcs.size());
    EXPECT_EQ(serialSeeds, parallelSeeds);
    EXPECT_EQ(std::set<std::uint64_t>(serialSeeds.begin(),
                                      serialSeeds.end())
                  .size(),
              serialSeeds.size());

    // And each seed is exactly the point's stable key.
    for (int procs : testProcs) {
        for (std::uint64_t size : testSizes) {
            MachineConfig config;
            config.cpusPerCluster = procs;
            config.scc.sizeBytes = size;
            EXPECT_EQ(serialSeeds.count(sweep::pointKey(
                          config, "seed-probe", "default")),
                      1u);
        }
    }
}

TEST(Sweep, ResumeRecomputesOnlyMissingPoints)
{
    std::string path = tempPath("sweep_resume.jsonl");
    std::remove(path.c_str());

    // First run covers half the grid (one cluster size).
    sweep::SweepOptions firstOptions;
    firstOptions.jobs = 2;
    firstOptions.resultsPath = path;
    sweep::SweepExecutor first(firstOptions);
    first.run(miniFactory(), MachineConfig{}, testSizes, {1});
    EXPECT_EQ(first.runStats().computed, testSizes.size());

    // The resumed full-grid run must reuse those and compute only
    // the other cluster size.
    sweep::SweepOptions resumeOptions;
    resumeOptions.jobs = 2;
    resumeOptions.resultsPath = path;
    resumeOptions.resume = true;
    sweep::SweepExecutor resumed(resumeOptions);
    auto resumedGrid = resumed.run(miniFactory(), MachineConfig{},
                                   testSizes, testProcs);
    EXPECT_EQ(resumed.runStats().total,
              testSizes.size() * testProcs.size());
    EXPECT_EQ(resumed.runStats().reused, testSizes.size());
    EXPECT_EQ(resumed.runStats().computed, testSizes.size());

    // ... and the merged grid is bit-identical to a fresh serial
    // sweep of the whole grid.
    sweep::SweepExecutor fresh(sweep::SweepOptions{});
    auto freshGrid = fresh.run(miniFactory(), MachineConfig{},
                               testSizes, testProcs);
    expectSameResults(freshGrid.points(), resumedGrid.points());

    // A second resume recomputes nothing: factory is called once
    // (for the workload name) and zero times for points.
    int factoryCalls = 0;
    auto countingFactory = [&factoryCalls]()
        -> std::unique_ptr<ParallelWorkload> {
        ++factoryCalls;
        return std::make_unique<MiniStreamer>();
    };
    sweep::SweepExecutor again(resumeOptions);
    auto againGrid = again.run(countingFactory, MachineConfig{},
                               testSizes, testProcs);
    EXPECT_EQ(again.runStats().computed, 0u);
    EXPECT_EQ(again.runStats().reused,
              testSizes.size() * testProcs.size());
    EXPECT_EQ(factoryCalls, 1);
    expectSameResults(freshGrid.points(), againGrid.points());
    std::remove(path.c_str());
}

TEST(Sweep, AttachedStatsLandInTheStore)
{
    std::string path = tempPath("sweep_stats.jsonl");
    std::remove(path.c_str());

    sweep::SweepOptions options;
    options.resultsPath = path;
    options.attachStats = true;
    sweep::SweepExecutor executor(options);
    executor.run(miniFactory(), MachineConfig{}, {8 << 10}, {2});

    sweep::ResultStore store;
    store.open(path, true);
    ASSERT_EQ(store.size(), 1u);
    MachineConfig config;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 8 << 10;
    const sweep::StoredPoint *stored = store.find(
        sweep::pointKey(config, "mini", "default"));
    ASSERT_NE(stored, nullptr);
    ASSERT_FALSE(stored->statsJson.empty());

    sweep::Json stats;
    std::string error;
    ASSERT_TRUE(
        sweep::Json::parse(stored->statsJson, stats, &error))
        << error;
    // The machine's stats tree has the bus and per-cluster SCCs.
    EXPECT_NE(stats.find("bus"), nullptr);
    std::remove(path.c_str());
}

/** A workload that only answers to a stored record's name. */
class NameOnly : public ParallelWorkload
{
  public:
    explicit NameOnly(std::string name) : _name(std::move(name)) {}

    std::string name() const override { return _name; }

    void
    setup(Arena &, const Topology &) override
    {
        ADD_FAILURE() << "a stored point was recomputed";
    }

    void threadMain(ThreadCtx &, int, const Topology &) override {}

  private:
    std::string _name;
};

/** 2 clusters x 2 CPUs, 8 KB 4-way SCC (way partitioning divides). */
MachineConfig
studyBase()
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 8 << 10;
    config.scc.assoc = 4;
    return config;
}

/** The 4P/64KB point every resume-identity test stores. */
MachineConfig
sharedPoint()
{
    MachineConfig config;
    config.cpusPerCluster = 4;
    config.scc.sizeBytes = 64 << 10;
    return config;
}

std::vector<MachineConfig>
netStudyConfigs()
{
    std::vector<MachineConfig> configs;
    for (NetTopology topology : {NetTopology::Atomic,
                                 NetTopology::Split,
                                 NetTopology::Tree}) {
        for (int clusters : {1, 2}) {
            MachineConfig config = studyBase();
            config.net.topology = topology;
            config.numClusters = clusters;
            configs.push_back(config);
        }
    }
    return configs;
}

TEST(Study, InertAxisValuesRunOnce)
{
    // TM set size is inert under --tm=off: one lock point per fabric.
    std::vector<MachineConfig> tm;
    for (TmMode mode : {TmMode::Off, TmMode::Eager}) {
        for (NetTopology topology :
             {NetTopology::Atomic, NetTopology::Split}) {
            for (int entries : {2, 64}) {
                MachineConfig config = studyBase();
                config.tm.mode = mode;
                config.tm.setEntries = entries;
                config.net.topology = topology;
                tm.push_back(config);
            }
        }
    }
    sweep::SweepExecutor executor(sweep::SweepOptions{});
    auto points = executor.runStudy(miniFactory(), tm,
                                    {"net", "tm", "tmEntries"});
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(executor.runStats().computed, 6u);
    // First seen wins, and order is kept.
    EXPECT_EQ(points[0].config.tm.mode, TmMode::Off);
    EXPECT_EQ(points[0].config.tm.setEntries, 2);
    EXPECT_EQ(points[1].config.tm.mode, TmMode::Off);
    EXPECT_EQ(points[1].config.net.topology, NetTopology::Split);
    EXPECT_EQ(points[2].config.tm.mode, TmMode::Eager);
    EXPECT_EQ(points[3].config.tm.setEntries, 64);

    // Domains are inert under --isolation=none: one open cache.
    std::vector<MachineConfig> isolation;
    for (IsolationMode mode :
         {IsolationMode::None, IsolationMode::WayPart}) {
        for (int domains : {2, 4}) {
            MachineConfig config = studyBase();
            config.scc.sec.mode = mode;
            config.scc.sec.domains = domains;
            isolation.push_back(config);
        }
    }
    points = executor.runStudy(miniFactory(), isolation,
                               {"isolation", "isolationDomains"});
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(executor.runStats().computed, 3u);
    EXPECT_EQ(points[0].config.scc.sec.mode, IsolationMode::None);
    EXPECT_EQ(points[1].config.scc.sec.domains, 2);
    EXPECT_EQ(points[2].config.scc.sec.domains, 4);

    // Arbitration is inert on the atomic bus: one atomic point.
    std::vector<MachineConfig> fabric;
    for (NetTopology topology :
         {NetTopology::Atomic, NetTopology::Split}) {
        for (NetArbitration arbitration :
             {NetArbitration::RoundRobin, NetArbitration::Priority}) {
            MachineConfig config = studyBase();
            config.net.topology = topology;
            config.net.arbitration = arbitration;
            fabric.push_back(config);
        }
    }
    points = executor.runStudy(miniFactory(), fabric,
                               {"net", "consistency"});
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(executor.runStats().computed, 3u);
    EXPECT_EQ(points[0].config.net.topology, NetTopology::Atomic);
    EXPECT_EQ(points[1].config.net.arbitration,
              NetArbitration::RoundRobin);
    EXPECT_EQ(points[2].config.net.arbitration,
              NetArbitration::Priority);
}

/** The records of the store at @p path, in file order. */
std::vector<sweep::StoredPoint>
storedRecords(const std::string &path)
{
    std::vector<sweep::StoredPoint> records;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
        sweep::StoredPoint point;
        std::string error;
        EXPECT_TRUE(sweep::ResultStore::deserialize(line, point, &error))
            << error;
        records.push_back(point);
    }
    return records;
}

/** Run @p configs as a study that stores into @p path. */
sweep::SweepRunStats
storedStudy(const std::vector<MachineConfig> &configs,
            const std::vector<std::string> &axes,
            const std::string &path, bool resume)
{
    sweep::SweepOptions options;
    options.resultsPath = path;
    options.resume = resume;
    sweep::SweepExecutor executor(options);
    executor.runStudy(miniFactory(), configs, axes);
    return executor.runStats();
}

// A value the machine never acts on is the same design point: one
// run and one record.
TEST(Study, DeadFieldValuesRunOnce)
{
    std::string path = tempPath("study_dead.jsonl");
    auto runsOnce = [&](const std::vector<MachineConfig> &configs) {
        EXPECT_EQ(storedStudy(configs, {"clusters", "net"}, path,
                              false)
                      .computed,
                  1u);
        EXPECT_EQ(storedRecords(path).size(), 1u);
    };

    // Arbitration acts only on the split bus.
    MachineConfig rr = studyBase();
    rr.net.topology = NetTopology::Tree;
    MachineConfig priority = rr;
    priority.net.arbitration = NetArbitration::Priority;
    runsOnce({rr, priority});

    // Two clusters build at most two leaf segments.
    MachineConfig five = rr;
    five.net.segments = 5;
    runsOnce({rr, five});
    std::remove(path.c_str());
}

TEST(Study, TreeResumesAcrossArbitration)
{
    std::string path = tempPath("study_arbitration.jsonl");
    MachineConfig rr = studyBase();
    rr.net.topology = NetTopology::Tree;
    EXPECT_EQ(storedStudy({rr}, {"net"}, path, false).computed, 1u);

    MachineConfig priority = rr;
    priority.net.arbitration = NetArbitration::Priority;
    sweep::SweepRunStats resumed =
        storedStudy({priority}, {"net"}, path, true);
    EXPECT_EQ(resumed.computed, 0u);
    EXPECT_EQ(resumed.reused, 1u);
    EXPECT_EQ(storedRecords(path).size(), 1u);
    std::remove(path.c_str());
}

TEST(PointKey, DeadFieldsKeepTheKey)
{
    // The snoop filter is the tree's; the split bus has none.
    MachineConfig split;
    split.net.topology = NetTopology::Split;
    MachineConfig capped = split;
    capped.net.snoopFilterCapacity = 64;
    EXPECT_EQ(machineKey(capped), machineKey(split));

    // One cluster builds one segment, whatever --segments says, so
    // fig_net_scaling's one-cluster tree keeps its fixture key.
    MachineConfig lone;
    lone.numClusters = 1;
    lone.cpusPerCluster = 4;
    lone.bus.transferOccupancy = 8;
    lone.net.topology = NetTopology::Tree;
    lone.net.segments = 5;
    EXPECT_EQ(sweep::keyHex(sweep::pointKey(lone, "Barnes-Hut",
                                            "quick")),
              "1f8fc7267b6361fb");
}

TEST(Study, DeadAxesWriteNoTag)
{
    std::string path = tempPath("study_channels.jsonl");
    MachineConfig flat = studyBase();
    flat.dram.channels = 4;
    MachineConfig banked = studyBase();
    banked.dram.kind = MemBackendKind::Banked;
    storedStudy({flat, banked}, {"mem", "channels"}, path, false);

    std::vector<sweep::StoredPoint> records = storedRecords(path);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].tags.at("mem"), "flat");
    EXPECT_EQ(records[0].tags.count("channels"), 0u);
    EXPECT_EQ(records[1].tags.at("channels"), "2");
    std::remove(path.c_str());
}

TEST(Study, ParallelIsBitIdenticalToSerial)
{
    sweep::SweepExecutor serial(sweep::SweepOptions{});
    auto serialPoints =
        serial.runStudy(miniFactory(), netStudyConfigs(),
                        {"clusters", "net"});

    sweep::SweepOptions parallelOptions;
    parallelOptions.jobs = 2;
    sweep::SweepExecutor parallel(parallelOptions);
    auto parallelPoints =
        parallel.runStudy(miniFactory(), netStudyConfigs(),
                          {"clusters", "net"});
    EXPECT_EQ(parallel.runStats().jobs, 2);

    ASSERT_EQ(serialPoints.size(), netStudyConfigs().size());
    expectSameResults(serialPoints, parallelPoints);
    for (std::size_t i = 0; i < serialPoints.size(); ++i) {
        EXPECT_EQ(parallelPoints[i].config.net.topology,
                  serialPoints[i].config.net.topology);
        EXPECT_EQ(parallelPoints[i].config.numClusters,
                  serialPoints[i].config.numClusters);
        EXPECT_TRUE(serialPoints[i].result.verified);
    }
}

TEST(Study, RecordsCarryTagsAndTheirJobCount)
{
    std::string path = tempPath("study_jobs.jsonl");
    std::remove(path.c_str());
    sweep::SweepOptions options;
    options.jobs = 2;
    options.resultsPath = path;
    sweep::SweepExecutor executor(options);
    executor.runStudy(miniFactory(), netStudyConfigs(),
                      {"clusters", "net"});

    sweep::ResultStore store;
    store.open(path, true);
    ASSERT_EQ(store.size(), netStudyConfigs().size());
    for (const MachineConfig &config : netStudyConfigs()) {
        const sweep::StoredPoint *stored =
            store.find(sweep::pointKey(config, "mini", "default"));
        ASSERT_NE(stored, nullptr);
        EXPECT_EQ(stored->jobs, 2);
        EXPECT_EQ(stored->tags.at("net"),
                  nameOf(config.net.topology));
        EXPECT_EQ(stored->tags.at("clusters"),
                  std::to_string(config.numClusters));
        EXPECT_TRUE(stored->describes(config, "mini"));
    }
    std::remove(path.c_str());
}

// Whatever the job count, each distinct point is reseeded and run
// exactly once and the store ends up with the same records; one job
// runs the points in config order on the calling thread.
TEST(Study, EveryPointRunsOnceAtAnyJobCount)
{
    // Arbitration is dead on the tree, so the copy inserted third is
    // the same point as the last config, seen first.
    std::vector<MachineConfig> configs = netStudyConfigs();
    MachineConfig priority = configs.back();
    priority.net.arbitration = NetArbitration::Priority;
    configs.insert(configs.begin() + 2, priority);
    ASSERT_EQ(configs.size(), 7u);

    std::vector<std::uint64_t> keys;
    for (const MachineConfig &config : configs) {
        std::uint64_t key =
            sweep::pointKey(config, "seed-probe", "default");
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
            keys.push_back(key);
    }
    ASSERT_EQ(keys.size(), 6u);

    std::string path = tempPath("study_any_jobs.jsonl");
    std::vector<std::string> serialLines;
    for (int jobs : {1, 2, 3, 16}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        SeedLog log;
        auto factory = [&log] {
            return std::make_unique<SeedProbe>(&log);
        };
        sweep::SweepOptions options;
        options.jobs = jobs;
        options.resultsPath = path;
        sweep::SweepExecutor executor(options);
        auto points =
            executor.runStudy(factory, configs, {"clusters", "net"});
        ASSERT_EQ(points.size(), keys.size());
        int used = std::min(jobs, (int)keys.size());
        EXPECT_EQ(executor.runStats().computed, keys.size());
        EXPECT_EQ(executor.runStats().jobs, used);

        EXPECT_EQ(log.seeds, std::multiset<std::uint64_t>(
                                 keys.begin(), keys.end()));
        if (jobs == 1) {
            EXPECT_EQ(log.arrivals, keys);
            EXPECT_EQ(log.threads, std::set<std::thread::id>{
                                       std::this_thread::get_id()});
        }

        std::vector<std::string> lines;
        for (sweep::StoredPoint record : storedRecords(path)) {
            EXPECT_EQ(record.jobs, used);
            record.jobs = 1;
            record.wallMs = 0;
            lines.push_back(sweep::ResultStore::serialize(record));
        }
        std::sort(lines.begin(), lines.end());
        EXPECT_EQ(lines.size(), keys.size());
        if (jobs == 1)
            serialLines = lines;
        EXPECT_EQ(lines, serialLines);
    }
    std::remove(path.c_str());
}

TEST(Study, ResumeServesGridRecords)
{
    // A grid record carries no axis tags, so it describes the same
    // point reached through any study: the tm-off/atomic and
    // sc/atomic points below share its key.
    std::string path = tempPath("study_grid.jsonl");
    std::remove(path.c_str());
    sweep::SweepOptions options;
    options.resultsPath = path;
    sweep::SweepExecutor grid(options);
    DesignGrid swept =
        grid.run(miniFactory(), MachineConfig{}, {64 << 10}, {4});

    options.resume = true;
    sweep::SweepExecutor tm(options);
    auto tmPoints = tm.runStudy(miniFactory(), {sharedPoint()},
                                {"net", "tm", "tmEntries"});
    EXPECT_EQ(tm.runStats().computed, 0u);
    EXPECT_EQ(tm.runStats().reused, 1u);
    expectSameResults(swept.points(), tmPoints);

    sweep::SweepExecutor consistency(options);
    auto scPoints = consistency.runStudy(
        miniFactory(), {sharedPoint()}, {"net", "consistency"});
    EXPECT_EQ(consistency.runStats().computed, 0u);
    EXPECT_EQ(consistency.runStats().reused, 1u);
    expectSameResults(swept.points(), scPoints);
    std::remove(path.c_str());
}

TEST(StudyDeath, ContradictingTagIsFatal)
{
    // A record under the atomic point's key that says "split" is a
    // key collision or a corrupt store, never a result to serve.
    std::string path = tempPath("study_collision.jsonl");
    MachineConfig point = sharedPoint();
    sweep::StoredPoint record;
    record.key = sweep::pointKey(point, "mini", "default");
    record.workload = "mini";
    record.scale = "default";
    record.cpusPerCluster = point.cpusPerCluster;
    record.sccBytes = point.scc.sizeBytes;
    record.tags["net"] = "split";
    {
        sweep::ResultStore store;
        store.open(path, false);
        store.append(record);
    }
    sweep::SweepOptions options;
    options.resultsPath = path;
    options.resume = true;
    EXPECT_EXIT(
        {
            sweep::SweepExecutor executor(options);
            executor.runStudy(miniFactory(), {point},
                              {"net", "tm", "tmEntries"});
        },
        ::testing::ExitedWithCode(1),
        "key collision or corrupt store");
    // The grid path applies the same identity rule.
    EXPECT_EXIT(
        {
            sweep::SweepExecutor executor(options);
            executor.run(miniFactory(), MachineConfig{}, {64 << 10},
                         {4});
        },
        ::testing::ExitedWithCode(1),
        "key collision or corrupt store");
    std::remove(path.c_str());
}

// Three records fig_tm --quick wrote before the study driver
// existed (tests/golden/studies/fig_tm.jsonl): no "jobs" field, and
// the lock baseline without a "tmEntries" tag.
const char *const parentTmRecords[] = {
    R"({"v":1,"key":"29c7f6a352d1dcb7","workload":"tmvacation-r64-c16-t128-q4","scale":"quick","procs":4,"scc":65536,"net":"atomic","tm":"off","wallMs":2.215522,"result":{"cycles":168431,"instructions":27138,"references":10754,"readMissRate":0.16259607173356105,"missRate":0.13619437721094768,"invalidations":1323,"busTransactions":2141,"busUtilization":0.019622278559172601,"verified":true}})",
    R"({"v":1,"key":"d92c98c667ecf502","workload":"tmvacation-r64-c16-t128-q4","scale":"quick","procs":4,"scc":65536,"net":"atomic","tm":"eager","tmEntries":2,"wallMs":27.182715999999999,"result":{"cycles":258950,"instructions":38729,"references":22345,"readMissRate":0.18469945355191256,"missRate":0.16797205161435735,"invalidations":2831,"busTransactions":4492,"busUtilization":0.023518053678316279,"verified":true,"tmCommits":1345,"tmAborts":6125,"tmFallbacks":703,"tmAbortRate":0.81994645247657294}})",
    R"({"v":1,"key":"73c66ee1c8df9df1","workload":"tmvacation-r64-c16-t128-q4","scale":"quick","procs":4,"scc":65536,"net":"split","tm":"lazy","tmEntries":64,"wallMs":3.7377359999999999,"result":{"cycles":16179,"instructions":23847,"references":7463,"readMissRate":0.1652490886998785,"missRate":0.14768562508483779,"invalidations":949,"busTransactions":1758,"busUtilization":0.10782495827925088,"verified":true,"tmCommits":2048,"tmAborts":241,"tmFallbacks":0,"tmAbortRate":0.1052861511577108}})",
};

TEST(Study, TagTableRewritesParentRecordsByteForByte)
{
    for (const char *line : parentTmRecords) {
        sweep::StoredPoint point;
        std::string error;
        ASSERT_TRUE(
            sweep::ResultStore::deserialize(line, point, &error))
            << error;
        EXPECT_EQ(sweep::ResultStore::serialize(point), line);
    }
}

TEST(Study, ResumesFromParentFormatRecords)
{
    std::string path = tempPath("study_parent.jsonl");
    {
        std::ofstream out(path, std::ios::trunc);
        for (const char *line : parentTmRecords)
            out << line << "\n";
    }
    auto sizeOf = [&path] {
        std::ifstream in(path, std::ios::ate | std::ios::binary);
        return (std::streamoff)in.tellg();
    };
    const std::streamoff before = sizeOf();

    // fig_tm's machine at the three stored points.
    auto at = [](TmMode mode, NetTopology topology, int entries) {
        MachineConfig config;
        config.numClusters = 4;
        config.cpusPerCluster = 4;
        config.scc.sizeBytes = 64 << 10;
        config.tm.mode = mode;
        config.net.topology = topology;
        config.tm.setEntries = entries;
        return config;
    };
    std::vector<MachineConfig> configs = {
        at(TmMode::Off, NetTopology::Atomic, 2),
        at(TmMode::Eager, NetTopology::Atomic, 2),
        at(TmMode::Lazy, NetTopology::Split, 64),
    };

    int factoryCalls = 0;
    auto factory = [&factoryCalls]()
        -> std::unique_ptr<ParallelWorkload> {
        ++factoryCalls;
        return std::make_unique<NameOnly>(
            "tmvacation-r64-c16-t128-q4");
    };
    sweep::SweepOptions options;
    options.resultsPath = path;
    options.resume = true;
    options.scale = "quick";
    sweep::SweepExecutor executor(options);
    auto points = executor.runStudy(factory, configs,
                                    {"net", "tm", "tmEntries"});

    EXPECT_EQ(executor.runStats().computed, 0u);
    EXPECT_EQ(executor.runStats().reused, 3u);
    EXPECT_EQ(factoryCalls, 1);  // the workload name only
    EXPECT_EQ(sizeOf(), before);  // nothing appended
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].result.cycles, 168431u);
    EXPECT_EQ(points[1].result.tmAborts, 6125u);
    EXPECT_EQ(points[2].result.cycles, 16179u);
    std::remove(path.c_str());
}

} // namespace
