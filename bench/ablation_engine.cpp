/**
 * @file
 * Ablations of the design choices DESIGN.md calls out:
 *
 *  1. Self-scheduling chunk size in Barnes-Hut — per-body grabs
 *     maximize intra-cluster prefetching; large chunks decay
 *     toward static partitioning and lose the shared-cache
 *     miss-rate benefit.
 *  2. Engine slack window — how far a thread may run ahead of the
 *     slowest runnable thread before yielding. Validates that the
 *     exact-interleaving default (0) can be relaxed for simulation
 *     speed without changing results materially.
 *  3. SCC banks per processor — the paper chose four; fewer banks
 *     raise bank-conflict stalls.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    options.config.rejectUnread();

    // 1. GETSUB chunk size.
    {
        Table table("Ablation: Barnes-Hut self-scheduling chunk "
                    "(8P/cluster, 64KB SCC)");
        table.setHeader({"Chunk", "Cycles", "Read miss rate"});
        for (int chunk : {1, 4, 16, 64}) {
            splash::BarnesParams params;
            params.steps = options.scale == bench::Scale::Quick
                               ? 2 : 3;
            params.nbodies = options.scale == bench::Scale::Quick
                                 ? 256 : 1024;
            params.chunkBodies = chunk;
            splash::Barnes barnes(params);
            MachineConfig machine;
            machine.cpusPerCluster = 8;
            machine.scc.sizeBytes = 64 << 10;
            auto result = runParallel(machine, barnes);
            table.addRow({Table::cell((std::uint64_t)chunk),
                          Table::cell(result.cycles),
                          Table::percentCell(
                              result.readMissRate)});
        }
        bench::emit(table, options);
    }

    // 2. Engine slack window.
    {
        Table table("Ablation: engine slack window (Barnes 4P, "
                    "32KB SCC)");
        table.setHeader({"Window", "Cycles", "Read miss rate"});
        for (CycleDelta window : {0, 10, 50, 200}) {
            splash::BarnesParams params;
            params.steps = 2;
            params.nbodies = options.scale == bench::Scale::Quick
                                 ? 256 : 1024;
            splash::Barnes barnes(params);
            MachineConfig machine;
            machine.cpusPerCluster = 4;
            machine.scc.sizeBytes = 32 << 10;
            machine.engine.slackWindow = window;
            auto result = runParallel(machine, barnes);
            table.addRow({Table::cell((std::uint64_t)window),
                          Table::cell(result.cycles),
                          Table::percentCell(
                              result.readMissRate)});
        }
        bench::emit(table, options);
    }

    // 3. SCC banks per processor.
    {
        Table table("Ablation: SCC banks per processor (MP3D "
                    "8P/cluster, 64KB SCC)");
        table.setHeader({"Banks/proc", "Cycles",
                         "Bank conflict cycles"});
        for (std::uint32_t banks : {1u, 2u, 4u, 8u}) {
            splash::Mp3dParams params;
            params.nparticles =
                options.scale == bench::Scale::Quick ? 2000
                                                     : 10000;
            params.steps = 3;
            splash::Mp3d mp3d(params);
            MachineConfig machine;
            machine.cpusPerCluster = 8;
            machine.scc.sizeBytes = 64 << 10;
            machine.scc.banksPerCpu = banks;
            Machine sim(machine);
            Arena arena(machine.arenaBytes);
            Engine engine(&sim, &arena, machine.engine);
            Topology topo{machine.numClusters,
                          machine.cpusPerCluster};
            mp3d.setup(arena, topo);
            for (CpuId cpu = 0; cpu < topo.totalCpus(); ++cpu) {
                engine.spawn(cpu, [&, cpu](ThreadCtx &ctx) {
                    mp3d.threadMain(ctx, cpu, topo);
                });
            }
            engine.run();
            double conflicts = 0;
            for (int c = 0; c < machine.numClusters; ++c) {
                conflicts +=
                    sim.scc(c).bankConflictCycles.value();
            }
            table.addRow({Table::cell((std::uint64_t)banks),
                          Table::cell(engine.finishTime()),
                          Table::cell((std::uint64_t)conflicts)});
        }
        bench::emit(table, options);
    }
    return 0;
}
