#include "profile_run.hh"

#include "trace/trace.hh"

namespace scmp::model
{

namespace
{

/**
 * Engine slack window for the pass. Zero (lock-step interleaving by
 * local clock) is deliberate: a wide window lets each thread run
 * long private stretches, which serializes the profiled stream and
 * inflates shared-data reuse distances far past what any real
 * interleaving produces. Profiling is cheap enough that fidelity
 * wins.
 */
constexpr CycleDelta profileSlackWindow = 0;

/**
 * The functional memory: feed the tap, complete instantly. The
 * engine still charges instruction time, so thread clocks (and
 * with them the interleaving) advance realistically.
 */
class ProfilingMemory : public MemorySystem
{
  public:
    explicit ProfilingMemory(RefTap *tap) : _tap(tap) {}

    Cycle
    access(CpuId cpu, RefType type, Addr addr, Cycle now,
           std::uint32_t instrGap) override
    {
        (void)instrGap;
        _tap->onRef(cpu, type, addr);
        return now;
    }

  private:
    RefTap *_tap;
};

ProfilerConfig
profilerConfigFor(const MachineConfig &config,
                  const ProfileRunOptions &options)
{
    ProfilerConfig pc;
    pc.numClusters = config.numClusters;
    pc.cpusPerCluster = config.cpusPerCluster;
    pc.lineSizes = options.lineSizes.empty()
                       ? std::vector<std::uint32_t>{
                             config.scc.lineBytes}
                       : options.lineSizes;
    pc.sampleShift = options.sampleShift;
    return pc;
}

} // namespace

ReuseProfile
profileWorkload(const MachineConfig &config,
                ParallelWorkload &workload,
                const ProfileRunOptions &options)
{
    ReuseProfiler profiler(profilerConfigFor(config, options));
    ProfilingMemory memory(&profiler);

    Arena arena(config.arenaBytes);
    EngineOptions engineOptions = config.engine;
    engineOptions.slackWindow = profileSlackWindow;
    Engine engine(&memory, &arena, engineOptions);

    Topology topo{config.numClusters, config.cpusPerCluster};
    workload.setup(arena, topo);
    for (CpuId cpu = 0; cpu < topo.totalCpus(); ++cpu) {
        engine.spawn(cpu,
                     [&workload, cpu, topo](ThreadCtx &ctx) {
                         workload.threadMain(ctx, cpu, topo);
                     });
    }
    engine.run();
    profiler.setInstructions(engine.totalInstructions());
    return profiler.profile();
}

ReuseProfile
profileTrace(const std::string &path, const MachineConfig &config,
             const ProfileRunOptions &options)
{
    ReuseProfiler profiler(profilerConfigFor(config, options));
    TraceReader reader(path);
    TraceRecord record;
    std::uint64_t instructions = 0;
    while (reader.next(record)) {
        instructions += record.gap;
        profiler.onRef((CpuId)record.cpu, record.refType(),
                       record.addr);
    }
    profiler.setInstructions(instructions);
    return profiler.profile();
}

} // namespace scmp::model
