/**
 * @file
 * Figure 5: multiprogramming performance characteristics — one
 * cluster running the eight-application SPEC92-class workload
 * under a round-robin scheduler with a 5 M-cycle quantum.
 *
 * Paper shape to reproduce: execution time falls steeply with SCC
 * size; the eight-processor configuration's time grows by a factor
 * of ~4.1 going from the 512 KB SCC down to 4 KB, and similarly
 * for the other processor counts.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    bench::GridAxes axes = bench::gridAxes(options);
    obs::RecorderConfig obsConfig = obs::fromFlags(options.config);
    options.config.rejectUnread();

    Table table("Figure 5: multiprogramming normalized execution "
                "time (1P/4KB = 100)");
    std::vector<std::string> header{"SCC Size"};
    for (int procs : axes.clusterSizes) {
        header.push_back(std::to_string(procs) +
                         (procs == 1 ? " Proc" : " Procs"));
    }
    table.setHeader(header);

    double base = 0;
    std::vector<std::vector<double>> grid;
    for (std::uint64_t size : axes.sccSizes) {
        std::vector<double> row;
        for (int procs : axes.clusterSizes) {
            auto result = bench::multiprogPoint(procs, size, options,
                                                obsConfig);
            fatal_if(!result.verified,
                     "SPEC workload failed verification");
            row.push_back((double)result.cycles);
            if (base == 0)
                base = (double)result.cycles;
        }
        grid.push_back(row);
    }

    std::size_t rowIndex = 0;
    for (std::uint64_t size : axes.sccSizes) {
        std::vector<std::string> row{sizeString(size)};
        for (double cycles : grid[rowIndex])
            row.push_back(Table::cell(100.0 * cycles / base, 1));
        table.addRow(row);
        ++rowIndex;
    }
    bench::emit(table, options);

    // The paper's headline factor: 8P time at 4 KB vs 512 KB.
    if (axes.sccSizes.size() >= 2) {
        std::size_t lastProc = axes.clusterSizes.size() - 1;
        double small = grid.front()[lastProc];
        double large = grid.back()[lastProc];
        std::cout << "\nlargest-cluster slowdown from "
                  << sizeString(axes.sccSizes.back()) << " to "
                  << sizeString(axes.sccSizes.front()) << ": "
                  << Table::cell(small / large, 2)
                  << "x (paper: 4.1x)\n";
    }
    return 0;
}
