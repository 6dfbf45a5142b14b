/**
 * @file
 * Trace-driven simulation: record one direct-execution run of
 * Barnes-Hut, then replay the reference stream against several
 * SCC sizes — one execution, many cache configurations, the
 * pixie-era methodology the paper used for its multiprogramming
 * study.
 *
 * Usage:
 *   trace_replay [--bodies=N] [--steps=N] [--procs=N]
 *                [--trace=/tmp/scmp.trace]
 *                [--obs[=FILE]] [--obs-interval=N]
 *                [--obs-series=FILE]
 *
 * --obs attaches the src/obs recorder to every replayed machine
 * (output paths suffixed with the SCC size), so a replayed run
 * produces the same timelines and interval series a live run
 * does.
 */

#include <cstdio>

#include "core/parallel_run.hh"
#include "sim/config.hh"
#include "trace/trace.hh"
#include "workloads/splash/barnes.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    Config config;
    config.parseArgs(argc, argv);
    std::string path =
        config.getString("trace", "/tmp/scmp.trace");
    int procs = config.getIntAs<int>("procs", 2);

    splash::BarnesParams params;
    params.nbodies = config.getIntAs<int>("bodies", 512);
    params.steps = config.getIntAs<int>("steps", 2);

    // Observability for the replay sweep: one recorder per
    // replayed machine, file outputs suffixed per SCC size so the
    // four replays don't clobber each other.
    obs::RecorderConfig obsConfig =
        obs::fromFlags(config, "scmp_replay_trace.json");
    config.rejectUnread();

    // 1. Record: run the workload once under a TracingMemory.
    MachineConfig recordConfig;
    recordConfig.cpusPerCluster = procs;
    recordConfig.scc.sizeBytes = 64 << 10;
    {
        Machine machine(recordConfig);
        TraceWriter writer(path);
        TracingMemory tracer(&machine, &writer);
        Arena arena(recordConfig.arenaBytes);
        Engine engine(&tracer, &arena, recordConfig.engine);

        splash::Barnes barnes(params);
        Topology topo{recordConfig.numClusters,
                      recordConfig.cpusPerCluster};
        barnes.setup(arena, topo);
        for (CpuId cpu = 0; cpu < topo.totalCpus(); ++cpu) {
            engine.spawn(cpu, [&, cpu](ThreadCtx &ctx) {
                barnes.threadMain(ctx, cpu, topo);
            });
        }
        engine.run();
        std::printf("recorded %llu references to %s "
                    "(direct execution: %llu cycles)\n",
                    (unsigned long long)writer.recordsWritten(),
                    path.c_str(),
                    (unsigned long long)engine.finishTime());
    }

    // 2. Replay the one trace against a cache-size sweep.
    std::printf("\n%-10s %14s %12s %14s\n", "SCC", "cycles",
                "rd-miss", "invalidations");
    for (std::uint64_t scc :
         {8ull << 10, 32ull << 10, 128ull << 10, 512ull << 10}) {
        MachineConfig replayConfig = recordConfig;
        replayConfig.scc.sizeBytes = scc;
        replayConfig.obs = obs::tagPaths(obsConfig, sizeString(scc));
        Machine machine(replayConfig);
        TraceReader reader(path);
        auto result = replayTrace(machine, reader);
        std::printf("%-10s %14llu %11.2f%% %14llu\n",
                    sizeString(scc).c_str(),
                    (unsigned long long)result.cycles,
                    100.0 * result.readMissRate,
                    (unsigned long long)result.invalidations);
    }
    return 0;
}
