/**
 * @file
 * Figure 2: Barnes-Hut performance characteristics — normalized
 * execution time as a function of SCC size for one to eight
 * processors per cluster on the four-cluster machine.
 *
 * Paper shape to reproduce: execution time falls with SCC size for
 * every cluster width; wider clusters are uniformly faster, with
 * the gap growing at medium/large SCC sizes.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    bench::GridAxes axes = bench::gridAxes(options);
    sweep::SweepExecutor executor(bench::sweepOptions(options));
    options.config.rejectUnread();

    DesignGrid points =
        executor.run(bench::barnesFactory(options), MachineConfig{},
                     axes.sccSizes, axes.clusterSizes);

    bench::emit(DesignSpace::normalizedTimeTable(
                    "Figure 2: Barnes-Hut normalized execution "
                    "time (1P/4KB = 100)",
                    points, axes.sccSizes, axes.clusterSizes),
                options);
    return 0;
}
