/**
 * @file
 * Design-space exploration: sweep processors-per-cluster and SCC
 * size for a chosen SPLASH workload and print the paper's four
 * views (normalized time, speedup, read miss rate, invalidations).
 *
 * Usage:
 *   design_space [barnes|mp3d|cholesky]
 *                [--quick] [--sizes=4K,64K,512K] [--procs=1,2,4,8]
 *                [sweep flags]
 *
 * The sweep flags are the executor's (sweep::fromFlags), among them
 * --jobs=N to run N design points concurrently (auto = one per
 * hardware thread), --results=FILE to persist every completed point
 * to a JSON-lines store and --resume to skip points already in it,
 * so an interrupted paper-scale sweep restarts where it stopped.
 * Per-point progress is always on.
 */

#include <cstdio>
#include <iostream>

#include "core/design_space.hh"
#include "sim/config.hh"
#include "sweep/sweep.hh"
#include "workloads/splash/barnes.hh"
#include "workloads/splash/cholesky.hh"
#include "workloads/splash/mp3d.hh"

int
main(int argc, char **argv)
{
    scmp::Config config;
    auto positional = config.parseArgs(argc, argv);
    std::string which =
        positional.empty() ? "barnes" : positional[0];
    bool quick = config.getBool("quick", false);

    auto sizes = config.getSizeList(
        "sizes", scmp::DesignSpace::paperSccSizes());
    auto procs = config.getIntList(
        "procs", scmp::DesignSpace::paperClusterSizes(), 1);

    scmp::DesignSpace::WorkloadFactory factory;
    if (which == "barnes") {
        scmp::splash::BarnesParams params;
        if (quick) {
            params.nbodies = 256;
            params.steps = 2;
        }
        factory = [params] {
            return std::make_unique<scmp::splash::Barnes>(params);
        };
    } else if (which == "mp3d") {
        scmp::splash::Mp3dParams params;
        if (quick) {
            params.nparticles = 2000;
            params.steps = 2;
        }
        factory = [params] {
            return std::make_unique<scmp::splash::Mp3d>(params);
        };
    } else if (which == "cholesky") {
        scmp::splash::CholeskyParams params;
        if (quick) {
            params.gridRows = 16;
            params.gridCols = 16;
        }
        factory = [params] {
            return std::make_unique<scmp::splash::Cholesky>(
                params);
        };
    } else {
        fatal("unknown workload '", which,
              "' (want barnes, mp3d or cholesky)");
    }

    scmp::sweep::SweepOptions sweepOptions =
        scmp::sweep::fromFlags(config, quick ? "quick" : "default");
    sweepOptions.verbose = true;
    config.rejectUnread();

    scmp::sweep::SweepExecutor executor(sweepOptions);
    auto points =
        executor.run(factory, scmp::MachineConfig{}, sizes, procs);

    scmp::DesignSpace::normalizedTimeTable(
        which + ": normalized execution time", points, sizes,
        procs)
        .print(std::cout);
    scmp::DesignSpace::speedupTable(
        which + ": speedup vs 1 proc/cluster", points, sizes,
        procs)
        .print(std::cout);
    scmp::DesignSpace::missRateTable(
        which + ": read miss rate", points, sizes, procs)
        .print(std::cout);
    scmp::DesignSpace::invalidationTable(
        which + ": invalidations performed", points, sizes, procs)
        .print(std::cout);
    return 0;
}
