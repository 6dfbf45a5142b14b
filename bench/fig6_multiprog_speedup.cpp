/**
 * @file
 * Figure 6: multiprogramming self-relative speedup as a function
 * of processors per cluster, normalized to one processor at the
 * same SCC size.
 *
 * Paper shape to reproduce: degradation from ideal speedup is due
 * to interference conflicts in the shared cache alone and shrinks
 * as the SCC grows.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    options.config.rejectUnread();

    Table table("Figure 6: multiprogramming self-relative speedup "
                "(vs 1 proc at the same SCC size)");
    std::vector<std::string> header{"SCC Size"};
    for (int procs : options.clusterSizes)
        header.push_back(std::to_string(procs) + "P");
    table.setHeader(header);

    for (std::uint64_t size : options.sccSizes) {
        std::vector<std::string> row{sizeString(size)};
        double base = 0;
        for (int procs : options.clusterSizes) {
            auto result =
                bench::multiprogPoint(procs, size, options);
            fatal_if(!result.verified,
                     "SPEC workload failed verification");
            if (base == 0)
                base = (double)result.cycles;
            row.push_back(
                Table::cell(base / (double)result.cycles, 2));
        }
        table.addRow(row);
    }
    bench::emit(table, options);
    return 0;
}
