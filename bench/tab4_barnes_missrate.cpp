/**
 * @file
 * Table 4: effects of prefetching and destructive interference on
 * Barnes-Hut read miss rates, for 8 KB / 64 KB / 256 KB SCCs and
 * 1/2/4/8 processors per cluster.
 *
 * Paper shape to reproduce: at the small SCC, more processors per
 * cluster RAISE the miss rate (destructive interference); at the
 * medium/large SCCs, sharing LOWERS it (inter-processor
 * prefetching), and total invalidations do not grow — the paper's
 * core clustering claim. The invalidation view is printed too.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    options.config.rejectUnread();

    // The paper's Table 4 uses exactly these three sizes.
    if (!options.config.has("sizes"))
        options.sccSizes = {8ull << 10, 64ull << 10, 256ull << 10};

    auto points = DesignSpace::sweep(
        bench::barnesFactory(options), MachineConfig{},
        options.sccSizes, options.clusterSizes);

    bench::emit(DesignSpace::missRateTable(
                    "Table 4: Barnes-Hut read miss rates",
                    points, options.sccSizes,
                    options.clusterSizes),
                options);
    bench::emit(DesignSpace::invalidationTable(
                    "Table 4 (supplement): invalidations actually "
                    "performed",
                    points, options.sccSizes,
                    options.clusterSizes),
                options);
    return 0;
}
