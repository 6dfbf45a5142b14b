/**
 * @file
 * Figure 3: MP3D performance characteristics.
 *
 * Paper shape to reproduce: self-relative speedup of eight
 * processors per cluster is ~3.8 at the 4 KB SCC (destructive
 * interference) and ~7.2 at 512 KB (near-linear), and invalidation
 * traffic is essentially independent of processors per cluster.
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
        executor.run(bench::mp3dFactory(options), MachineConfig{},
                     axes.sccSizes, axes.clusterSizes);

    bench::emit(DesignSpace::normalizedTimeTable(
                    "Figure 3: MP3D normalized execution time "
                    "(1P/4KB = 100)",
                    points, axes.sccSizes, axes.clusterSizes),
                options);
    bench::emit(DesignSpace::speedupTable(
                    "Figure 3 (view): MP3D self-relative speedups",
                    points, axes.sccSizes, axes.clusterSizes),
                options);
    bench::emit(DesignSpace::invalidationTable(
                    "Figure 3 (view): MP3D invalidations",
                    points, axes.sccSizes, axes.clusterSizes),
                options);
    return 0;
}
