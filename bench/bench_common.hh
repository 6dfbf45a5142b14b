/**
 * @file
 * Shared plumbing for the table/figure reproduction benches.
 *
 * A bench reads only the flags it acts on, and refuses any other
 * (Config::rejectUnread). Every bench reads, in parseBenchArgs():
 *   --quick        reduced inputs (CI-scale, same qualitative shape)
 *   --full         paper-scale inputs
 *   --csv          also emit tables as CSV
 *   --check        run every machine under the coherence checker
 *                  (src/check) — slower, but any figure produced is
 *                  backed by a verified protocol
 *
 * The grid benches (fig2-fig6, tab3, tab4, fig_twospeed) read their
 * axes in gridAxes():
 *   --sizes=...    override the SCC size axis
 *   --procs=...    override the processors-per-cluster axis
 *
 * The benches that run the sweep executor (fig2-fig4, tab3, tab4,
 * fig_twospeed and the five per-axis studies) read its flags in
 * sweepOptions() through sweep::fromFlags: --jobs, --model, --topk,
 * --profile-shift, --results, --resume, --stats, --progress and the
 * --obs flags (src/sweep/sweep.hh). The benches that build
 * multiprogramming machines (fig5, fig6, tab6, tab7) read the --obs
 * flags through obs::fromFlags, one trace per multiprog point.
 * Logs stay quiet unless --progress is given.
 */

#ifndef SCMP_BENCH_COMMON_HH
#define SCMP_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/design_space.hh"
#include "multiprog/scheduler.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/table.hh"
#include "sweep/sweep.hh"
#include "workloads/spec/spec_app.hh"
#include "workloads/splash/barnes.hh"
#include "workloads/splash/cholesky.hh"
#include "workloads/splash/mp3d.hh"

namespace scmp::bench
{

/** Run scale selected on the command line. */
enum class Scale
{
    Quick,
    Default,
    Full,
};

/** The flags every bench reads, and the rest left to read. */
struct BenchOptions
{
    Scale scale = Scale::Default;
    bool csv = false;
    Config config;
};

/** Tag mixed into result-store keys so scales never collide. */
inline const char *
scaleName(Scale scale)
{
    switch (scale) {
      case Scale::Quick: return "quick";
      case Scale::Default: return "default";
      case Scale::Full: return "full";
    }
    return "default";
}

inline BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions options;
    options.config.parseArgs(argc, argv);
    // Both are read, so neither is left over as an unknown flag;
    // --quick wins when both are given.
    bool quick = options.config.getBool("quick", false);
    bool full = options.config.getBool("full", false);
    if (quick)
        options.scale = Scale::Quick;
    else if (full)
        options.scale = Scale::Full;
    options.csv = options.config.getBool("csv", false);
    // --check rides on the environment so every Machine built
    // anywhere in the bench (sweep workers included) attaches the
    // coherence checker.
    if (options.config.getBool("check", false))
        setenv("SCMP_CHECK", "1", 1);
    // Benches print tables, not logs; sweepOptions() turns them on
    // for --progress.
    setLogQuiet(true);
    return options;
}

/** A grid bench's axes. */
struct GridAxes
{
    std::vector<std::uint64_t> sccSizes;
    std::vector<int> clusterSizes;
};

/**
 * The axes --sizes and --procs ask for: the paper's by default, a
 * 3 x 3 grid at --quick.
 */
inline GridAxes
gridAxes(const BenchOptions &options)
{
    GridAxes axes{DesignSpace::paperSccSizes(),
                  DesignSpace::paperClusterSizes()};
    if (options.scale == Scale::Quick)
        axes = {{4ull << 10, 32ull << 10, 256ull << 10}, {1, 2, 8}};
    axes.sccSizes = options.config.getSizeList("sizes", axes.sccSizes);
    axes.clusterSizes =
        options.config.getIntList("procs", axes.clusterSizes, 1);
    return axes;
}

/** sweep::fromFlags for this bench; --progress turns the logs on. */
inline sweep::SweepOptions
sweepOptions(const BenchOptions &options)
{
    sweep::SweepOptions sweepFlags =
        sweep::fromFlags(options.config, scaleName(options.scale));
    setLogQuiet(!sweepFlags.verbose);
    return sweepFlags;
}

/** Emit a table (and optionally CSV) to stdout. */
inline void
emit(const Table &table, const BenchOptions &options)
{
    table.print(std::cout);
    if (options.csv) {
        std::cout << "\n-- csv: " << table.title() << "\n";
        table.printCsv(std::cout);
    }
}

/**
 * The result of the study point (see SweepExecutor::runStudy) whose
 * configuration satisfies @p match; fatal if there is none.
 */
template <class Match>
const RunResult &
studyResult(const std::vector<DesignPoint> &points, Match match)
{
    for (const DesignPoint &point : points) {
        if (match(point.config))
            return point.result;
    }
    fatal("study point missing from the sweep");
}

/// @name Workload factories scaled by the bench options.
/// @{
inline DesignSpace::WorkloadFactory
barnesFactory(const BenchOptions &options)
{
    splash::BarnesParams params;
    switch (options.scale) {
      case Scale::Quick:
        params.nbodies = 256;
        params.steps = 2;
        break;
      case Scale::Default:
        params.nbodies = 1024;
        params.steps = 3;
        break;
      case Scale::Full:
        params.nbodies = 1024;  // the paper's input
        params.steps = 6;
        break;
    }
    return [params] {
        return std::make_unique<splash::Barnes>(params);
    };
}

inline DesignSpace::WorkloadFactory
mp3dFactory(const BenchOptions &options)
{
    splash::Mp3dParams params;
    switch (options.scale) {
      case Scale::Quick:
        params.nparticles = 2000;
        params.steps = 3;
        break;
      case Scale::Default:
        params.nparticles = 10000;  // the paper's input
        params.steps = 5;
        break;
      case Scale::Full:
        params.nparticles = 10000;
        params.steps = 5;
        break;
    }
    return [params] {
        return std::make_unique<splash::Mp3d>(params);
    };
}

inline DesignSpace::WorkloadFactory
choleskyFactory(const BenchOptions &options)
{
    splash::CholeskyParams params;
    switch (options.scale) {
      case Scale::Quick:
        params.gridRows = 20;
        params.gridCols = 20;
        break;
      case Scale::Default:
      case Scale::Full:
        params.gridRows = 42;  // BCSSTK14-class, n = 1806
        params.gridCols = 43;
        break;
    }
    return [params] {
        return std::make_unique<splash::Cholesky>(params);
    };
}
/// @}

/** Reference budget for multiprogramming runs at each scale. */
inline std::uint64_t
multiprogRefs(const BenchOptions &options)
{
    switch (options.scale) {
      case Scale::Quick: return 1'000'000;
      case Scale::Default: return 4'000'000;
      case Scale::Full: return 100'000'000;  // the paper's scale
    }
    return 4'000'000;
}

/** A design point's tag in observability file names: "2P-32KB". */
inline std::string
pointTag(int procs, std::uint64_t sccBytes)
{
    return std::to_string(procs) + "P-" + sizeString(sccBytes);
}

/**
 * Run the multiprogramming workload at one design point, observed
 * as @p obsConfig asks (obs::fromFlags), its files tagged with the
 * point.
 */
inline MultiprogResult
multiprogPoint(int procs, std::uint64_t sccBytes,
               const BenchOptions &options,
               const obs::RecorderConfig &obsConfig)
{
    MachineConfig machine;
    machine.cpusPerCluster = procs;
    machine.scc.sizeBytes = sccBytes;
    machine.icache.enabled = true;
    machine.obs = obs::tagPaths(obsConfig, pointTag(procs, sccBytes));

    MultiprogParams params;
    params.totalRefs = multiprogRefs(options);
    return runMultiprog(machine, spec::makeSpecWorkload(), params);
}

/**
 * Run the parallel workload @p factory makes at one design point,
 * observed as @p obsConfig asks, its files tagged with the point.
 */
inline RunResult
splashPoint(const DesignSpace::WorkloadFactory &factory, int procs,
            std::uint64_t sccBytes, const obs::RecorderConfig &obsConfig)
{
    MachineConfig machine;
    machine.cpusPerCluster = procs;
    machine.scc.sizeBytes = sccBytes;
    machine.obs = obs::tagPaths(obsConfig, pointTag(procs, sccBytes));
    auto workload = factory();
    return runParallel(machine, *workload);
}

} // namespace scmp::bench

#endif // SCMP_BENCH_COMMON_HH
