/**
 * @file
 * Figure 4: Cholesky (BCSSTK14-class input) performance
 * characteristics.
 *
 * Paper shape to reproduce: the worst-scaling of the three SPLASH
 * codes — self-relative speedup of eight processors per cluster is
 * only ~3.0 at 4 KB and ~3.5 at 512 KB, capped by the small
 * input's limited concurrency, load imbalance and synchronization
 * overhead rather than by the memory system.
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
        bench::choleskyFactory(options), MachineConfig{},
        options.sccSizes, options.clusterSizes);

    bench::emit(DesignSpace::normalizedTimeTable(
                    "Figure 4: Cholesky normalized execution time "
                    "(1P/4KB = 100)",
                    points, options.sccSizes,
                    options.clusterSizes),
                options);
    bench::emit(DesignSpace::speedupTable(
                    "Figure 4 (view): Cholesky self-relative "
                    "speedups",
                    points, options.sccSizes,
                    options.clusterSizes),
                options);
    return 0;
}
