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
    options.config.rejectUnread();

    auto points = DesignSpace::sweep(
        bench::barnesFactory(options), MachineConfig{},
        options.sccSizes, options.clusterSizes);

    bench::emit(DesignSpace::speedupTable(
                    "Table 3: Barnes-Hut speedups relative to one "
                    "processor per cluster",
                    points, options.sccSizes,
                    options.clusterSizes),
                options);
    return 0;
}
