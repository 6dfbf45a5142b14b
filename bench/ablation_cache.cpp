/**
 * @file
 * Cache-geometry ablations for two design choices the paper makes
 * without sweeping them:
 *
 *  1. Line size — the paper picks 16 B "to help reduce
 *     false-sharing between clusters". We sweep 16-128 B on MP3D
 *     (heavy fine-grained write sharing of the cell array):
 *     larger lines fetch more per miss but invalidate more
 *     bystander data, and the invalidation count shows it.
 *  2. SCC associativity — the paper's caches are direct-mapped
 *     (the 30-FO4 access budget demands it). We sweep 1/2/4-way
 *     on the multiprogrammed workload, where eight processes'
 *     hot sets collide in a direct-mapped SCC.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    options.config.rejectUnread();

    {
        Table table("Ablation: SCC line size (MP3D, 4 clusters x "
                    "4 procs, 64KB)");
        table.setHeader({"Line", "Cycles", "Read miss rate",
                         "Invalidations"});
        for (std::uint32_t line : {16u, 32u, 64u, 128u}) {
            auto workload = bench::mp3dFactory(options)();
            MachineConfig machine;
            machine.cpusPerCluster = 4;
            machine.scc.sizeBytes = 64 << 10;
            machine.scc.lineBytes = line;
            auto result = runParallel(machine, *workload);
            table.addRow({sizeString(line),
                          Table::cell(result.cycles),
                          Table::percentCell(result.readMissRate),
                          Table::cell(result.invalidations)});
        }
        bench::emit(table, options);
        std::cout << "\nunder the paper's contention-free bus, "
                     "larger lines win on spatial locality;\n"
                     "the false-sharing cost appears once line "
                     "transfers occupy the bus:\n";
    }

    {
        Table table("Ablation: line size with a real bus "
                    "(occupancy = line/4 cycles)");
        table.setHeader({"Line", "Cycles", "Bus utilization"});
        for (std::uint32_t line : {16u, 32u, 64u, 128u}) {
            auto workload = bench::mp3dFactory(options)();
            MachineConfig machine;
            machine.cpusPerCluster = 4;
            machine.scc.sizeBytes = 64 << 10;
            machine.scc.lineBytes = line;
            machine.bus.transferOccupancy = line / 4;
            auto result = runParallel(machine, *workload);
            table.addRow({sizeString(line),
                          Table::cell(result.cycles),
                          Table::percentCell(
                              result.busUtilization)});
        }
        bench::emit(table, options);
    }

    {
        Table table("Ablation: SCC associativity "
                    "(multiprogramming, 4 procs, 64KB)");
        table.setHeader({"Ways", "Cycles", "Read miss rate"});
        for (std::uint32_t ways : {1u, 2u, 4u}) {
            MachineConfig machine;
            machine.cpusPerCluster = 4;
            machine.scc.sizeBytes = 64 << 10;
            machine.scc.assoc = ways;
            MultiprogParams params;
            params.totalRefs = bench::multiprogRefs(options) / 2;
            auto result = runMultiprog(
                machine, spec::makeSpecWorkload(), params);
            table.addRow({Table::cell((std::uint64_t)ways),
                          Table::cell(result.cycles),
                          Table::percentCell(
                              result.readMissRate)});
        }
        bench::emit(table, options);
    }
    return 0;
}
