/**
 * @file
 * Coherence-protocol ablation: write-invalidate (the paper's
 * scheme) vs write-update (the era's Firefly/Dragon alternative),
 * on MP3D — the workload whose globally-shared cell array
 * generates the paper's invalidation traffic.
 *
 * Write-update converts remote re-read misses into bus update
 * broadcasts. With the paper's contention-free bus the updates
 * are nearly free and update wins; the second table shows the
 * trade reversing as update broadcasts start occupying a real
 * bus, which is why invalidate won the era's commercial designs.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    options.config.rejectUnread();

    for (Cycle addressOccupancy : {Cycle(1), Cycle(8)}) {
        Table table(
            addressOccupancy == 1
                ? "Protocol ablation: MP3D, contention-free bus"
                : "Protocol ablation: MP3D, update broadcasts "
                  "occupy 8 bus cycles");
        table.setHeader({"Procs/cl", "Invalidate cycles",
                         "Update cycles", "Inval rd-miss",
                         "Update rd-miss", "Invalidations"});

        for (int procs : {2, 8}) {
            RunResult results[2];
            int index = 0;
            for (auto protocol :
                 {CoherenceProtocol::WriteInvalidate,
                  CoherenceProtocol::WriteUpdate}) {
                auto workload = bench::mp3dFactory(options)();
                MachineConfig machine;
                machine.cpusPerCluster = procs;
                machine.scc.sizeBytes = 128 << 10;
                machine.scc.protocol = protocol;
                machine.bus.addressOccupancy = addressOccupancy;
                results[index++] =
                    runParallel(machine, *workload);
            }
            table.addRow(
                {Table::cell((std::uint64_t)procs),
                 Table::cell(results[0].cycles),
                 Table::cell(results[1].cycles),
                 Table::percentCell(results[0].readMissRate),
                 Table::percentCell(results[1].readMissRate),
                 Table::cell(results[0].invalidations)});
        }
        bench::emit(table, options);
    }
    return 0;
}
