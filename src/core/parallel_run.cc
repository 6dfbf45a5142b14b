#include "parallel_run.hh"

#include "sim/logging.hh"

namespace scmp
{

RunResult
runParallel(const MachineConfig &config, ParallelWorkload &workload,
            Arena *externalArena, std::ostream *statsDump,
            std::ostream *statsJsonDump)
{
    Machine machine(config);
    std::unique_ptr<Arena> owned;
    Arena *arenaPtr = externalArena;
    if (!arenaPtr) {
        owned = std::make_unique<Arena>(config.arenaBytes);
        arenaPtr = owned.get();
    }
    Arena &arena = *arenaPtr;
    Engine engine(&machine, &arena, config.engine);

    Topology topo{config.numClusters, config.cpusPerCluster};
    int n = topo.totalCpus();
    workload.setup(arena, topo);

    for (CpuId cpu = 0; cpu < n; ++cpu) {
        engine.spawn(cpu, [&workload, cpu, topo](ThreadCtx &ctx) {
            workload.threadMain(ctx, cpu, topo);
        });
    }
    engine.setRecorder(machine.recorder());
    engine.run();
    machine.finishObs(engine.finishTime());

    RunResult result;
    result.cycles = engine.finishTime();
    result.instructions = engine.totalInstructions();
    result.references = engine.totalRefs();
    result.readMissRate = machine.readMissRate();
    result.missRate = machine.missRate();
    result.invalidations = machine.invalidations();
    result.busTransactions = machine.bus().transactions.value();
    result.busUtilization =
        machine.bus().utilization(result.cycles);
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
        result.tmCommits = tm->commits.value();
        result.tmAborts = tm->aborts.value();
        result.tmFallbacks = tm->fallbacks.value();
        std::uint64_t attempts = result.tmCommits + result.tmAborts;
        if (attempts)
            result.tmAbortRate =
                (double)result.tmAborts / (double)attempts;
    }
    if (machine.recorder())
        result.obsSeries = machine.recorder()->seriesJson();
    if (statsDump)
        machine.statsRoot().dump(*statsDump);
    if (statsJsonDump)
        machine.statsRoot().dumpJson(*statsJsonDump);
    result.verified = workload.verify();
    workload.annotate(result);
    if (!result.verified) {
        warn("workload '", workload.name(),
             "' failed verification (procs/cluster=",
             config.cpusPerCluster, ", scc=",
             sizeString(config.scc.sizeBytes), ")");
    }
    return result;
}

} // namespace scmp
