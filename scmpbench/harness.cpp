/**
 * @file
 * One iteration of one scmpbench workload, reported as a single
 * JSON object on stdout.
 *
 *   scmpbench_harness <grid|fabric|server> <seed> <plain|traced>
 *
 * Every workload is a list of studies. A study screens its grid
 * analytically (one reuse-distance profile, then one evaluation per
 * point) and runs its frontier cycle-accurately: the whole grid, or
 * the top-K points by predicted cycles, which is what
 * `--model=hybrid` does.
 *
 * plain drives the public sweep API exactly as the figure benches
 * do (SweepExecutor, jobs=1) and times only what a workload
 * decorator sees from outside: point start (reseed), the end of
 * machine/arena construction (setup entry), ParallelWorkload::setup,
 * and Engine::run (first threadMain to verify).
 *
 * traced screens the grid through the same executor call, then runs
 * the frontier without the executor: it assembles Machine, Arena and
 * Engine like runParallel does, with a timing MemorySystem decorator
 * between the engine and the machine. The
 * decorator adds per-access TSC deltas into hit and miss counters
 * (no span per access). Each point's bus stream, captured through
 * Interconnect::setObserver, is then replayed into a fresh fabric
 * from makeInterconnect and a fresh MemoryBackend to time the
 * interconnect and DRAM layers on their own.
 *
 * Both modes print a digest of every RunResult; the runner checks
 * they agree with each other and with the pinned digests.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "core/design_space.hh"
#include "core/machine.hh"
#include "core/parallel_run.hh"
#include "dram/memory_backend.hh"
#include "mem/coherence_observer.hh"
#include "net/interconnect.hh"
#include "sweep/point_key.hh"
#include "sweep/sweep.hh"
#include "workloads/server/server.hh"
#include "workloads/splash/barnes.hh"
#include "workloads/splash/mp3d.hh"

using namespace scmp;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Cheap monotonic tick counter for per-access timing. */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return (std::uint64_t)Clock::now().time_since_epoch().count();
#endif
}

/// @name Workload definitions
/// @{

/** One grid of design points and how much of it runs cycle-accurately. */
struct Study
{
    std::string label;
    DesignSpace::WorkloadFactory factory;
    MachineConfig base;
    std::vector<std::uint64_t> sccSizes;
    std::vector<int> clusterSizes;
    /** Frontier size; 0 runs every point cycle-accurately. */
    std::size_t topK = 0;
    /** SHARDS sampling shift of the profiling pass (0 = exact). */
    std::uint32_t profileShift = 0;
};

/** Derive a workload's input seed from the benchmark seed; 0 keeps
 *  the workload's own default input. */
std::uint64_t
inputSeed(std::uint64_t defaultSeed, std::uint64_t seed)
{
    return defaultSeed + seed * 0x9e3779b97f4a7c15ull;
}

std::vector<Study>
studiesFor(const std::string &workload, std::uint64_t seed)
{
    std::vector<Study> studies;
    if (workload == "grid") {
        // The paper's Table 4 coordinates for Barnes and MP3D.
        splash::BarnesParams barnes;
        barnes.nbodies = 1024;
        barnes.steps = 3;
        barnes.seed = inputSeed(barnes.seed, seed);
        splash::Mp3dParams mp3d;
        mp3d.nparticles = 10000;
        mp3d.steps = 5;
        mp3d.seed = inputSeed(mp3d.seed, seed);
        std::vector<std::uint64_t> sizes = {8ull << 10, 64ull << 10,
                                            256ull << 10};
        studies.push_back({"barnes",
                           [barnes] {
                               return std::make_unique<splash::Barnes>(
                                   barnes);
                           },
                           MachineConfig{}, sizes, {1, 2, 4, 8}, 0});
        studies.push_back({"mp3d",
                           [mp3d] {
                               return std::make_unique<splash::Mp3d>(
                                   mp3d);
                           },
                           MachineConfig{}, sizes, {1, 2, 4, 8}, 0});
    } else if (workload == "fabric") {
        // One large miss- and write-dominated point on the tree
        // fabric with banked NUMA DRAM.
        splash::Mp3dParams mp3d;
        mp3d.nparticles = 40000;
        mp3d.steps = 10;
        mp3d.seed = inputSeed(mp3d.seed, seed);
        MachineConfig base;
        base.numClusters = 8;
        base.net.topology = NetTopology::Tree;
        base.net.segments = 4;
        base.net.snoopFilterCapacity = 512;
        base.dram.kind = MemBackendKind::Banked;
        base.dram.channels = 2;
        base.dram.banks = 8;
        base.dram.sched = MemSched::FrFcfs;
        studies.push_back({"mp3d",
                           [mp3d] {
                               return std::make_unique<splash::Mp3d>(
                                   mp3d);
                           },
                           base, {16ull << 10}, {4}, 0, 4});
    } else if (workload == "server") {
        // fig_twospeed's compute-server hybrid sweep.
        server::ServerParams params;
        params.requests = 250'000;
        params.offeredLoad = 0.70;
        params.seed = inputSeed(params.seed, seed);
        MachineConfig base;
        base.icache.enabled = true;
        studies.push_back(
            {"server",
             [params] {
                 return std::make_unique<server::ServerWorkload>(
                     params);
             },
             base, {32ull << 10, 128ull << 10}, {1, 2, 4, 8}, 4});
    }
    return studies;
}

/// @}

/// @name Result digests
/// @{

class Fnv
{
  public:
    void
    add(const void *data, std::size_t len)
    {
        const auto *bytes = (const unsigned char *)data;
        for (std::size_t i = 0; i < len; ++i) {
            _hash ^= bytes[i];
            _hash *= 0x100000001b3ull;
        }
    }
    template <typename T>
    void
    add(T value)
    {
        add(&value, sizeof(value));
    }
    std::uint64_t value() const { return _hash; }

  private:
    std::uint64_t _hash = 0xcbf29ce484222325ull;
};

/** Hash every simulated field of a RunResult (not obsSeries, which
 *  is observability output). */
std::uint64_t
digest(const RunResult &r)
{
    Fnv h;
    h.add(r.cycles);
    h.add(r.instructions);
    h.add(r.references);
    h.add(r.readMissRate);
    h.add(r.missRate);
    h.add(r.invalidations);
    h.add(r.busTransactions);
    h.add(r.busUtilization);
    h.add((std::uint8_t)r.verified);
    h.add(r.dramFills);
    h.add(r.dramRowHitRate);
    h.add(r.requests);
    h.add(r.latencyP50);
    h.add(r.latencyP95);
    h.add(r.latencyP99);
    h.add(r.throughput);
    h.add(r.tmCommits);
    h.add(r.tmAborts);
    h.add(r.tmFallbacks);
    h.add(r.tmAbortRate);
    h.add(r.secEpochs);
    h.add(r.secProbeAccuracy);
    h.add(r.secChanceAccuracy);
    h.add(r.leakBitsPerEpoch);
    return h.value();
}

/// @}

/// @name Boundary probes for the plain (executor-driven) mode
/// @{

/** Host-time boundaries of one cycle-accurate point. */
struct PointTimes
{
    Clock::time_point start, setupBegin, setupEnd, runBegin, runEnd,
        end;
};

/**
 * ParallelWorkload decorator: forwards every call and stamps the
 * boundaries runParallel crosses. A point is logged at annotate(),
 * so the profiling pass (no verify/annotate) never counts as one.
 */
class ProbedWorkload : public ParallelWorkload
{
  public:
    ProbedWorkload(std::unique_ptr<ParallelWorkload> inner,
                   std::vector<PointTimes> *log)
        : _inner(std::move(inner)), _log(log)
    {
    }

    std::string name() const override { return _inner->name(); }

    void
    reseed(std::uint64_t pointSeed) override
    {
        _times.start = Clock::now();
        _inner->reseed(pointSeed);
    }

    void
    setup(Arena &arena, const Topology &topo) override
    {
        _times.setupBegin = Clock::now();
        _inner->setup(arena, topo);
        _times.setupEnd = Clock::now();
    }

    void
    threadMain(ThreadCtx &ctx, int tid, const Topology &topo) override
    {
        if (!_running) {
            _running = true;
            _times.runBegin = Clock::now();
        }
        _inner->threadMain(ctx, tid, topo);
    }

    bool
    verify() override
    {
        _times.runEnd = Clock::now();
        return _inner->verify();
    }

    void
    annotate(RunResult &result) const override
    {
        _inner->annotate(result);
        PointTimes times = _times;
        times.end = Clock::now();
        _log->push_back(times);
    }

  private:
    std::unique_ptr<ParallelWorkload> _inner;
    std::vector<PointTimes> *_log;
    PointTimes _times;
    bool _running = false;
};

/// @}

/// @name Layer timing for the traced mode
/// @{

/**
 * MemorySystem decorator around Machine: times each access with the
 * TSC and charges it to the hit or the miss counter, told apart by
 * whether the serving cache's miss counters moved.
 */
class TimedMemory : public MemorySystem
{
  public:
    explicit TimedMemory(Machine &machine) : _machine(machine)
    {
        int cpus = machine.config().totalCpus();
        for (CpuId cpu = 0; cpu < cpus; ++cpu) {
            _sccs.push_back(&machine.cacheOf(cpu));
            _icaches.push_back(machine.config().icache.enabled
                                   ? &machine.icache(cpu)
                                   : nullptr);
        }
    }

    Cycle
    access(CpuId cpu, RefType type, Addr addr, Cycle now,
           std::uint32_t instrGap) override
    {
        double before = missEvents(cpu);
        std::uint64_t t0 = ticks();
        Cycle done = _machine.access(cpu, type, addr, now, instrGap);
        std::uint64_t dt = ticks() - t0;
        if (missEvents(cpu) != before) {
            missTicks += dt;
            ++misses;
        } else {
            hitTicks += dt;
            ++hits;
        }
        return done;
    }

    Cycle fence(CpuId cpu, Cycle now) override
    {
        return _machine.fence(cpu, now);
    }
    TmPolicy tmPolicy() const override { return _machine.tmPolicy(); }
    Cycle tmBegin(CpuId cpu, Cycle now) override
    {
        return _machine.tmBegin(cpu, now);
    }
    bool tmPoll(CpuId cpu) const override
    {
        return _machine.tmPoll(cpu);
    }
    Cycle tmCommit(CpuId cpu, Cycle now, bool *committed) override
    {
        return _machine.tmCommit(cpu, now, committed);
    }
    Cycle tmAbort(CpuId cpu, Cycle now) override
    {
        return _machine.tmAbort(cpu, now);
    }
    void tmFallback(CpuId cpu) override { _machine.tmFallback(cpu); }

    std::uint64_t hitTicks = 0, missTicks = 0;
    std::uint64_t hits = 0, misses = 0;

  private:
    double
    missEvents(CpuId cpu) const
    {
        const SharedClusterCache &scc = *_sccs[(std::size_t)cpu];
        double events = scc.readMisses.value() +
                        scc.writeMisses.value() +
                        scc.upgradeHits.value() +
                        scc.mergedMisses.value();
        if (const ICache *icache = _icaches[(std::size_t)cpu])
            events += icache->misses.value();
        return events;
    }

    Machine &_machine;
    std::vector<const SharedClusterCache *> _sccs;
    std::vector<const ICache *> _icaches;
};

/** One captured bus transaction. */
struct BusRecord
{
    Addr lineAddr;
    Cycle grant;
    ClusterId source;
    BusOp op;
};

/** Records the fabric's transaction stream (capped). */
class BusCapture : public CoherenceObserver
{
  public:
    static constexpr std::size_t cap = 1u << 20;

    /** Reserved up front, so no reallocation lands inside a timed
     *  access. */
    BusCapture() { records.reserve(cap); }

    void onCpuAccessStart(CpuId, int, RefType, Addr) override {}
    void onCpuAccessEnd(CpuId, int, RefType, Addr) override {}
    void onEvict(ClusterId, Addr, bool) override {}
    void onFill(ClusterId, Addr, CoherenceState) override {}
    void onDirtyFlush(ClusterId, Addr) override {}
    void onInvalidate(ClusterId, Addr) override {}
    void onUpdateAbsorbed(ClusterId, Addr) override {}

    void
    onBusTransaction(ClusterId source, BusOp op, Addr lineAddr,
                     Cycle grant) override
    {
        if (source >= 0 && records.size() < cap)
            records.push_back({lineAddr, grant, source, op});
    }

    std::vector<BusRecord> records;
};

/** A snooper that never holds a line: the replayed fabric is timed
 *  without the caches behind it. */
class NullSnooper : public Snooper
{
  public:
    explicit NullSnooper(ClusterId id) : _id(id) {}
    SnoopResult snoop(BusOp, Addr, Cycle) override { return {}; }
    ClusterId snooperId() const override { return _id; }

  private:
    ClusterId _id;
};

/** Per-layer host time and counts summed over one traced iteration. */
struct Layers
{
    double runS = 0;
    std::uint64_t runTicks = 0;
    std::uint64_t hitTicks = 0, missTicks = 0, hits = 0, misses = 0;
    double netReplayS = 0;
    std::uint64_t netReplayed = 0;
    double fillReplayS = 0;
    std::uint64_t fillsReplayed = 0;

    std::uint64_t refs = 0, readMisses = 0, mergedMisses = 0,
                  bankConflictCycles = 0, netTransactions = 0,
                  netWaitCycles = 0, snoopsFiltered = 0,
                  backInvalidations = 0, dramFills = 0,
                  dramQueueWaitCycles = 0;
    double dramRowHits = 0;
};

std::uint64_t
statOr0(const stats::Group &root, const std::string &path)
{
    const stats::Stat *stat = root.find(path);
    return stat ? (std::uint64_t)stat->value() : 0;
}

/** Replay a captured stream into a fresh fabric and memory backend. */
void
replayLayers(const MachineConfig &config, int numCaches,
             const std::vector<BusRecord> &records, Layers &layers)
{
    stats::Group root("replay");
    auto net = makeInterconnect(&root, config.bus, config.net,
                                config.dram, numCaches);
    std::vector<NullSnooper> snoopers;
    snoopers.reserve((std::size_t)numCaches);
    for (int c = 0; c < numCaches; ++c)
        snoopers.emplace_back(c);
    for (NullSnooper &snooper : snoopers)
        net->attach(&snooper);
    Cycle sink = 0;
    auto t0 = Clock::now();
    for (const BusRecord &r : records)
        sink += net->transaction(r.source, r.op, r.lineAddr, r.grant);
    layers.netReplayS += secondsBetween(t0, Clock::now());
    layers.netReplayed += records.size();

    auto memory = makeMemoryBackend(&root, "mem",
                                    config.bus.memoryLatency,
                                    config.dram);
    std::uint64_t fills = 0;
    t0 = Clock::now();
    for (const BusRecord &r : records) {
        if (r.op == BusOp::Read || r.op == BusOp::ReadExcl) {
            sink += memory->fill(r.lineAddr, r.grant);
            ++fills;
        }
    }
    layers.fillReplayS += secondsBetween(t0, Clock::now());
    layers.fillsReplayed += fills;
    // Keep the replayed timing live so neither loop is elided.
    if (sink == 1)
        std::fputs("", stderr);
}

/**
 * runParallel with the timing decorator in place. The RunResult is
 * harvested exactly as runParallel does, so its digest must match
 * the executor's.
 */
RunResult
runTraced(const MachineConfig &config, ParallelWorkload &workload,
          PointTimes &times, Layers &layers)
{
    times.start = Clock::now();
    Machine machine(config);
    Arena arena(config.arenaBytes);
    TimedMemory timed(machine);
    Engine engine(&timed, &arena, config.engine);
    BusCapture capture;
    machine.bus().setObserver(&capture);

    Topology topo{config.numClusters, config.cpusPerCluster};
    times.setupBegin = Clock::now();
    workload.setup(arena, topo);
    times.setupEnd = Clock::now();
    for (CpuId cpu = 0; cpu < topo.totalCpus(); ++cpu) {
        engine.spawn(cpu, [&workload, cpu, topo](ThreadCtx &ctx) {
            workload.threadMain(ctx, cpu, topo);
        });
    }
    engine.setRecorder(machine.recorder());
    times.runBegin = Clock::now();
    std::uint64_t tick0 = ticks();
    engine.run();
    layers.runTicks += ticks() - tick0;
    times.runEnd = Clock::now();
    machine.finishObs(engine.finishTime());
    machine.bus().setObserver(nullptr);

    RunResult result;
    result.cycles = engine.finishTime();
    result.instructions = engine.totalInstructions();
    result.references = engine.totalRefs();
    result.readMissRate = machine.readMissRate();
    result.missRate = machine.missRate();
    result.invalidations = machine.invalidations();
    result.busTransactions =
        (std::uint64_t)machine.bus().transactions.value();
    result.busUtilization = machine.bus().utilization(result.cycles);
    double weightedHitRate = 0;
    for (int m = 0; m < machine.bus().numMemories(); ++m) {
        const MemoryBackend &mem = machine.bus().memory(m);
        result.dramFills += mem.fills();
        weightedHitRate += mem.rowHitRate() * (double)mem.fills();
    }
    if (result.dramFills)
        result.dramRowHitRate =
            weightedHitRate / (double)result.dramFills;
    if (const TmStats *tm = machine.tmStats()) {
        result.tmCommits = (std::uint64_t)tm->commits.value();
        result.tmAborts = (std::uint64_t)tm->aborts.value();
        result.tmFallbacks = (std::uint64_t)tm->fallbacks.value();
        std::uint64_t attempts = result.tmCommits + result.tmAborts;
        if (attempts)
            result.tmAbortRate =
                (double)result.tmAborts / (double)attempts;
    }
    result.verified = workload.verify();
    workload.annotate(result);
    times.end = Clock::now();

    layers.runS += secondsBetween(times.runBegin, times.runEnd);
    layers.hitTicks += timed.hitTicks;
    layers.missTicks += timed.missTicks;
    layers.hits += timed.hits;
    layers.misses += timed.misses;

    const stats::Group &root = machine.statsRoot();
    layers.refs += engine.totalRefs();
    for (int c = 0; c < machine.numCaches(); ++c) {
        const SharedClusterCache &scc = machine.scc(c);
        layers.readMisses += (std::uint64_t)scc.readMisses.value();
        layers.mergedMisses += (std::uint64_t)scc.mergedMisses.value();
        layers.bankConflictCycles +=
            (std::uint64_t)scc.bankConflictCycles.value();
    }
    layers.netTransactions += result.busTransactions;
    layers.netWaitCycles +=
        (std::uint64_t)machine.bus().waitCycles.value();
    layers.snoopsFiltered += statOr0(root, "bus.snoopsFiltered");
    layers.backInvalidations += statOr0(root, "bus.backInvalidations");
    layers.dramFills += result.dramFills;
    layers.dramRowHits += weightedHitRate;
    layers.dramQueueWaitCycles +=
        statOr0(root, "bus.mem.queueWaitCycles");
    for (int m = 0; m < machine.bus().numMemories(); ++m)
        layers.dramQueueWaitCycles += statOr0(
            root, "bus.mem" + std::to_string(m) + ".queueWaitCycles");

    replayLayers(config, machine.numCaches(), capture.records, layers);
    return result;
}

/// @}

/// @name Output
/// @{

/** One evaluated point; host times only for cycle-accurate ones. */
struct PointOut
{
    std::string name;
    RunResult result;
    PointTimes times{};
};

/** One study's analytic screen: a profiling pass and evaluations. */
struct ScreenOut
{
    std::string name;
    double wallS = 0;
    double profileS = 0;
    double evalS = 0;
};

std::string
pointName(const std::string &label, const MachineConfig &config)
{
    return label + "/p" + std::to_string(config.cpusPerCluster) + "/" +
           std::to_string(config.scc.sizeBytes >> 10) + "K";
}

void
printPoints(const char *key, const std::vector<PointOut> &points)
{
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointOut &p = points[i];
        const PointTimes &t = p.times;
        std::printf("%s{\"name\": \"%s\", \"digest\": \"%016" PRIx64
                    "\", \"verified\": %s, \"read_miss_rate\": %.17g, "
                    "\"refs\": %" PRIu64 ", \"wall_s\": %.9g, "
                    "\"run_s\": %.9g, \"setup_s\": %.9g, "
                    "\"setup_machine_s\": %.9g, "
                    "\"setup_workload_s\": %.9g}",
                    i ? ", " : "", p.name.c_str(), digest(p.result),
                    p.result.verified ? "true" : "false",
                    p.result.readMissRate,
                    (std::uint64_t)p.result.references,
                    secondsBetween(t.start, t.end),
                    secondsBetween(t.runBegin, t.runEnd),
                    secondsBetween(t.start, t.setupEnd),
                    secondsBetween(t.start, t.setupBegin),
                    secondsBetween(t.setupBegin, t.setupEnd));
    }
    std::printf("]");
}

/// @}

/** Everything one iteration measured. */
struct Iteration
{
    std::vector<PointOut> cycle;      //!< cycle-accurate points
    std::vector<PointOut> predicted;  //!< analytic screen, every point
    std::vector<ScreenOut> screens;   //!< one per study
    double sweepS = 0;                //!< executor wall (plain mode)
    Layers layers;
};

/** Grid points in the executor's order (cluster sizes outer). */
std::vector<MachineConfig>
gridConfigs(const Study &study)
{
    std::vector<MachineConfig> configs;
    for (int procs : study.clusterSizes) {
        for (std::uint64_t size : study.sccSizes) {
            MachineConfig config = study.base;
            config.cpusPerCluster = procs;
            config.scc.sizeBytes = size;
            configs.push_back(config);
        }
    }
    return configs;
}

/** Indices of the frontier: the top-K by predicted cycles (stable,
 *  like the hybrid sweep), or every point. */
std::vector<std::size_t>
frontier(const Study &study, const std::vector<RunResult> &predicted)
{
    std::vector<std::size_t> order(predicted.size());
    std::iota(order.begin(), order.end(), 0);
    if (study.topK == 0)
        return order;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return predicted[a].cycles < predicted[b].cycles;
                     });
    order.resize(std::min(study.topK, order.size()));
    std::sort(order.begin(), order.end());
    return order;
}

/**
 * The study's analytic screen, run through SweepExecutor exactly as
 * --model=analytic does. Records the screen's SweepRunStats and the
 * predicted results; returns the predictions in grid order.
 */
std::vector<RunResult>
runScreen(const Study &study, Iteration &it)
{
    sweep::SweepOptions options;
    options.jobs = 1;
    options.model = sweep::SweepModel::Analytic;
    options.profileSampleShift = study.profileShift;
    sweep::SweepExecutor screen(options);
    DesignGrid screened = screen.run(study.factory, study.base,
                                     study.sccSizes, study.clusterSizes);
    const sweep::SweepRunStats &stats = screen.runStats();
    it.screens.push_back({study.label + "/screen", stats.wallMs / 1000.0,
                          stats.profileMs / 1000.0,
                          stats.analyticMs / 1000.0});
    it.sweepS += stats.wallMs / 1000.0;
    std::vector<MachineConfig> configs = gridConfigs(study);
    std::vector<RunResult> predicted;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        predicted.push_back(screened[i].result);
        it.predicted.push_back({pointName(study.label, configs[i]),
                                screened[i].result});
    }
    return predicted;
}

void
runPlain(const Study &study, Iteration &it)
{
    std::vector<PointTimes> log;
    DesignSpace::WorkloadFactory probed = [&study, &log] {
        return std::make_unique<ProbedWorkload>(study.factory(), &log);
    };
    std::vector<MachineConfig> configs = gridConfigs(study);
    std::vector<std::size_t> front = frontier(study, runScreen(study, it));

    sweep::SweepOptions cycleOptions;
    cycleOptions.jobs = 1;
    sweep::SweepExecutor cycle(cycleOptions);
    // jobs=1 runs the points in grid order, so the probe log lines
    // up with the returned points.
    auto record = [&](const DesignGrid &grid) {
        it.sweepS += cycle.runStats().wallMs / 1000.0;
        std::size_t first = log.size() - grid.size();
        for (std::size_t k = 0; k < grid.size(); ++k) {
            MachineConfig config = study.base;
            config.cpusPerCluster = grid[k].cpusPerCluster;
            config.scc.sizeBytes = grid[k].sccBytes;
            it.cycle.push_back({pointName(study.label, config),
                                grid[k].result, log[first + k]});
        }
    };
    if (front.size() == configs.size()) {
        record(cycle.run(probed, study.base, study.sccSizes,
                         study.clusterSizes));
    } else {
        for (std::size_t i : front) {
            record(cycle.run(probed, study.base,
                             {configs[i].scc.sizeBytes},
                             {configs[i].cpusPerCluster}));
        }
    }
}

void
runTracedStudy(const Study &study, Iteration &it)
{
    std::vector<MachineConfig> configs = gridConfigs(study);
    const std::string name = study.factory()->name();
    // Reseed each point as the executor does, at its default scale.
    const std::string scale = sweep::SweepOptions{}.scale;
    for (std::size_t i : frontier(study, runScreen(study, it))) {
        auto workload = study.factory();
        workload->reseed(sweep::pointKey(configs[i], name, scale));
        PointTimes times;
        RunResult result =
            runTraced(configs[i], *workload, times, it.layers);
        it.cycle.push_back(
            {pointName(study.label, configs[i]), result, times});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 4) {
        std::fprintf(stderr, "usage: %s <grid|fabric|server> <seed> "
                             "<plain|traced>\n", argv[0]);
        return 2;
    }
    const std::string workload = argv[1];
    const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
    const std::string mode = argv[3];
    std::vector<Study> studies = studiesFor(workload, seed);
    if (studies.empty() || (mode != "plain" && mode != "traced")) {
        std::fprintf(stderr, "unknown workload '%s' or mode '%s'\n",
                     workload.c_str(), mode.c_str());
        return 2;
    }
    const bool traced = mode == "traced";

    Iteration it;
    auto start = Clock::now();
    for (const Study &study : studies) {
        if (traced)
            runTracedStudy(study, it);
        else
            runPlain(study, it);
    }
    double wallS = secondsBetween(start, Clock::now());

    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"mode\": \"%s\", ",
                workload.c_str(), seed, mode.c_str());
    std::printf("\"wall_s\": %.9g, \"sweep_s\": %.9g, "
                "\"peak_rss_mb\": %.6g, \"screens\": [",
                wallS, it.sweepS, (double)usage.ru_maxrss / 1024.0);
    for (std::size_t i = 0; i < it.screens.size(); ++i) {
        const ScreenOut &screen = it.screens[i];
        std::printf("%s{\"name\": \"%s\", \"wall_s\": %.9g, "
                    "\"profile_s\": %.9g, \"eval_s\": %.9g}",
                    i ? ", " : "", screen.name.c_str(), screen.wallS,
                    screen.profileS, screen.evalS);
    }
    std::printf("], ");
    if (traced) {
        const Layers &l = it.layers;
        double secPerTick = l.runTicks ? l.runS / (double)l.runTicks : 0;
        std::printf(
            "\"layers\": {\"hit_s\": %.9g, \"miss_s\": %.9g, "
            "\"hits\": %" PRIu64 ", \"misses\": %" PRIu64 ", "
            "\"net_replay_s\": %.9g, \"net_replayed\": %" PRIu64 ", "
            "\"fill_replay_s\": %.9g, \"fills_replayed\": %" PRIu64
            "}, ",
            (double)l.hitTicks * secPerTick,
            (double)l.missTicks * secPerTick, l.hits, l.misses,
            l.netReplayS, l.netReplayed, l.fillReplayS,
            l.fillsReplayed);
        std::printf(
            "\"counts\": {\"exec.refs\": %" PRIu64
            ", \"mem.read_misses\": %" PRIu64
            ", \"mem.merged_misses\": %" PRIu64
            ", \"mem.bank_conflict_cycles\": %" PRIu64
            ", \"net.transactions\": %" PRIu64
            ", \"net.wait_cycles\": %" PRIu64
            ", \"net.snoops_filtered\": %" PRIu64
            ", \"net.back_invalidations\": %" PRIu64
            ", \"dram.fills\": %" PRIu64
            ", \"dram.row_hit_rate\": %.17g"
            ", \"dram.queue_wait_cycles\": %" PRIu64 "}, ",
            l.refs, l.readMisses, l.mergedMisses, l.bankConflictCycles,
            l.netTransactions, l.netWaitCycles, l.snoopsFiltered,
            l.backInvalidations, l.dramFills,
            l.dramFills ? l.dramRowHits / (double)l.dramFills : 0.0,
            l.dramQueueWaitCycles);
    }
    printPoints("cycle", it.cycle);
    std::printf(", ");
    printPoints("predicted", it.predicted);
    std::printf("}\n");
    return 0;
}
