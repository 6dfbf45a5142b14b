/**
 * @file
 * Ablation: inter-cluster bus contention.
 *
 * The paper's simulator charges a FIXED 100-cycle fetch latency
 * and models contention only at the SCC banks — effectively an
 * infinitely-pipelined bus. This ablation re-runs Barnes-Hut and
 * the multiprogramming workload with increasing bus occupancy per
 * line transfer, showing how a circuit-switched 1990s bus would
 * cap the wide-cluster configurations. (This is why the paper's
 * conclusions implicitly depend on the low shared-cache miss
 * rates: bus demand scales with miss rate x processor count.)
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    options.config.rejectUnread();

    const Cycle occupancies[] = {1, 4, 8, 16, 32};

    Table table("Bus-occupancy ablation: execution time (cycles)");
    table.setHeader({"Occupancy", "Barnes 1P/64KB",
                     "Barnes 8P/64KB", "Barnes 8P speedup",
                     "Multiprog 8P/64KB"});

    for (Cycle occupancy : occupancies) {
        MachineConfig machine;
        machine.bus.transferOccupancy = occupancy;
        machine.scc.sizeBytes = 64 << 10;

        machine.cpusPerCluster = 1;
        auto barnes1 = bench::barnesFactory(options)();
        double t1 = (double)runParallel(machine, *barnes1).cycles;

        machine.cpusPerCluster = 8;
        auto barnes8 = bench::barnesFactory(options)();
        double t8 = (double)runParallel(machine, *barnes8).cycles;

        MultiprogParams params;
        params.totalRefs = bench::multiprogRefs(options) / 2;
        MachineConfig mpMachine = machine;
        mpMachine.icache.enabled = true;
        double tm = (double)runMultiprog(mpMachine,
                                         spec::makeSpecWorkload(),
                                         params)
                        .cycles;

        table.addRow({Table::cell((std::uint64_t)occupancy),
                      Table::cell((std::uint64_t)t1),
                      Table::cell((std::uint64_t)t8),
                      Table::cell(t1 / t8, 2),
                      Table::cell((std::uint64_t)tm)});
    }
    bench::emit(table, options);
    return 0;
}
