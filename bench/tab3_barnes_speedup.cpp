/**
 * @file
 * Table 3: Barnes-Hut speedups relative to one processor per
 * cluster, per SCC size.
 *
 * Paper shape to reproduce: speedup grows with SCC size (4.5 at
 * 4 KB up to 12.5 at 512 KB for eight processors per cluster); the
 * paper sees super-linear speedups at large SCCs from the shared
 * cache's intra-cluster prefetching.
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

    bench::emit(DesignSpace::speedupTable(
                    "Table 3: Barnes-Hut speedups relative to one "
                    "processor per cluster",
                    points, axes.sccSizes, axes.clusterSizes),
                options);
    return 0;
}
