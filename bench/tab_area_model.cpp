/**
 * @file
 * Section 4 implementation costs: chip areas, interconnect and
 * SRAM breakdowns, pad budgets, FO4 access times and the derived
 * load latencies for the four cluster designs (Figures 8-11).
 *
 * Paper values to reproduce: 204 / 279 / 297 / 306 mm^2 chip
 * areas (the multi-processor chips being 37% / 46% / 50% larger
 * than the one-processor chip), a 12.1 mm^2 three-port crossbar,
 * 6.6 mm^2 single-ported 8 KB SRAM vs 8 mm^2 multiported 4 KB SCC
 * banks, 64 KB as the largest single-cycle direct-mapped cache,
 * and load latencies of 2 / 3 / 4 / 4 cycles.
 */

#include <iostream>

#include "bench_common.hh"
#include "cost/chips.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    options.config.rejectUnread();

    cost::AreaModel model;
    cost::TimingModel timing;

    Table chips("Section 4: cluster chip designs");
    chips.setHeader({"Design", "Chip mm^2", "vs 1-proc",
                     "Chips/cluster", "Cluster mm^2", "Load lat",
                     "Signal pads"});
    double oneProcArea = cost::oneProcChip().areaMm2(model);
    for (const auto &impl : cost::paperImplementations()) {
        double chipArea = impl.chip.areaMm2(model);
        chips.addRow({impl.chip.name, Table::cell(chipArea, 1),
                      Table::cell((chipArea / oneProcArea - 1.0) *
                                      100.0, 0) + "%",
                      Table::cell((std::uint64_t)
                                      impl.chipsPerCluster),
                      Table::cell(impl.clusterAreaMm2(model), 1),
                      Table::cell((std::uint64_t)
                                      impl.chip.loadLatency(timing)),
                      Table::cell((std::uint64_t)
                                      impl.chip.signalPads)});
    }
    bench::emit(chips, options);

    Table parts("Section 4: component areas (0.4um process)");
    parts.setHeader({"Component", "Area mm^2"});
    parts.addRow({"processor datapath (scaled 21064 IU+FPU)",
                  Table::cell(model.processorDatapathMm2(), 1)});
    parts.addRow({"16KB instruction cache",
                  Table::cell(model.icacheMm2(), 1)});
    parts.addRow({"8KB single-ported SRAM block",
                  Table::cell(model.sram.singlePortBlockMm2, 1)});
    parts.addRow({"4KB multiported SCC bank block",
                  Table::cell(model.sram.sccBankBlockMm2, 1)});
    parts.addRow({"64KB single-ported data cache",
                  Table::cell(
                      model.sram.singlePortedAreaMm2(64 << 10),
                      1)});
    parts.addRow({"32KB SCC (8 banks)",
                  Table::cell(model.sram.sccAreaMm2(32 << 10),
                              1)});
    parts.addRow({"3-port crossbar ICN",
                  Table::cell(model.icn.areaMm2(3), 1)});
    parts.addRow({"9-port crossbar ICN (two crossbars)",
                  Table::cell(model.icn.areaMm2(9), 1)});
    bench::emit(parts, options);

    Table access("Section 4: direct-mapped access time (FO4; "
                 "cycle budget = 30)");
    access.setHeader({"Cache size", "Access FO4",
                      "Single cycle?"});
    for (std::uint64_t kb : {8, 16, 32, 64, 128, 256}) {
        std::uint64_t bytes = kb << 10;
        access.addRow({sizeString(bytes),
                       Table::cell(timing.cacheAccessFo4(bytes), 1),
                       timing.fitsSingleCycle(bytes) ? "yes"
                                                     : "no"});
    }
    bench::emit(access, options);

    std::cout << "\nSCC bank arbitration: "
              << Table::cell(timing.arbitrationFo4, 0)
              << " FO4 -> extra pipeline stage (3-cycle loads); "
                 "MCM crossing -> 4-cycle loads\n";
    return 0;
}
