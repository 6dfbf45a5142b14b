/**
 * @file
 * Shared plumbing for the table/figure reproduction benches.
 *
 * Every bench accepts:
 *   --quick        reduced inputs (CI-scale, same qualitative shape)
 *   --full         paper-scale inputs
 *   --csv          also emit tables as CSV
 *   --sizes=...    override the SCC size axis
 *   --procs=...    override the processors-per-cluster axis
 *   --jobs=N       sweep design points on N host threads
 *                  (auto/0 = one per hardware thread; default serial)
 *   --model=M      sweep evaluation model: cycle (default),
 *                  analytic (reuse-distance screen only) or hybrid
 *                  (screen the grid, run the top-K frontier
 *                  cycle-accurately)
 *   --topk=K       hybrid frontier size (0 = auto, max(3, total/4))
 *   --profile-shift=S  SHARDS sampling shift for the profiling
 *                  pass (rate 1/2^S, S in [0, 31]; 0 = exact)
 *   --profile-cap=N    stop recording profile histograms after N
 *                  references (0 = unbounded)
 *   --results=FILE persist each design point to a JSON-lines store
 *   --resume       skip points already present in --results
 *   --stats        attach per-point hierarchical stats to the store
 *   --progress     per-point progress with wall time and ETA
 *   --check        run every design point under the coherence
 *                  checker (src/check) — slower, but any figure
 *                  produced is backed by a verified protocol
 *   --obs=FILE     write a Chrome trace_event timeline per design
 *                  point (FILE suffixed with each point's key)
 *   --obs-interval=N  sample interval metrics every N cycles and
 *                  attach each point's series to --results records
 *   --obs-series=FILE also write each point's series as CSV
 */

#ifndef SCMP_BENCH_COMMON_HH
#define SCMP_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <limits>
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

/** Parsed common options. */
struct BenchOptions
{
    Scale scale = Scale::Default;
    bool csv = false;
    std::vector<std::uint64_t> sccSizes;
    std::vector<int> clusterSizes;
    sweep::SweepOptions sweep;
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

    std::vector<std::uint64_t> sizes = DesignSpace::paperSccSizes();
    std::vector<int> procs = DesignSpace::paperClusterSizes();
    if (options.scale == Scale::Quick) {
        sizes = {4ull << 10, 32ull << 10, 256ull << 10};
        procs = {1, 2, 8};
    }
    options.sccSizes = options.config.getSizeList("sizes", sizes);
    options.clusterSizes = options.config.getIntList("procs", procs, 1);

    // Sweep execution knobs: every DesignSpace::sweep call in this
    // binary runs through the executor with these settings.
    options.sweep.jobs =
        options.config.getString("jobs", "") == "auto"
            ? 0
            : (int)options.config.getIntIn(
                  "jobs", 1, 0, std::numeric_limits<int>::max());
    options.sweep.model =
        options.config.getEnum("model", options.sweep.model);
    // Screen knobs are range-checked here, where the flag can still
    // be named: a negative count would wrap to a huge unsigned one.
    options.sweep.topK = (int)options.config.getIntIn(
        "topk", 0, 0, std::numeric_limits<int>::max());
    options.sweep.profileSampleShift =
        (std::uint32_t)options.config.getIntIn("profile-shift", 0, 0,
                                               31);
    options.sweep.profileMaxSamples =
        (std::uint64_t)options.config.getIntIn(
            "profile-cap", 0, 0,
            std::numeric_limits<std::int64_t>::max());
    options.sweep.resultsPath =
        options.config.getString("results", "");
    options.sweep.resume = options.config.getBool("resume", false);
    options.sweep.attachStats =
        options.config.getBool("stats", false);
    options.sweep.verbose =
        options.config.getBool("progress", false);
    options.sweep.scale = scaleName(options.scale);
    fatal_if(options.sweep.resume &&
                 options.sweep.resultsPath.empty(),
             "--resume needs --results=FILE");
    // Observability (src/obs): applied to every design point the
    // sweep builds; the executor suffixes file paths per point, and
    // --obs-interval also keeps each point's series for the store.
    options.sweep.obs = obs::fromFlags(options.config, "scmp_trace.json");
    options.sweep.obs.captureSeries = options.config.has("obs-interval");
    sweep::setDefaultSweepOptions(options.sweep);
    // --check rides on the environment so every Machine built
    // anywhere in the sweep (including worker threads) attaches the
    // coherence checker without plumbing a flag through DesignSpace.
    if (options.config.getBool("check", false))
        setenv("SCMP_CHECK", "1", 1);
    // Benches print tables, not logs — but --progress asks for the
    // per-point telemetry, so only quiet the run without it.
    setLogQuiet(!options.sweep.verbose);
    return options;
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
 * The result of the study point (see DesignSpace::study) whose
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

/** Run the multiprogramming workload at one design point. */
inline MultiprogResult
multiprogPoint(int procs, std::uint64_t sccBytes,
               const BenchOptions &options)
{
    MachineConfig machine;
    machine.cpusPerCluster = procs;
    machine.scc.sizeBytes = sccBytes;
    machine.icache.enabled = true;
    // Multiprog points run outside the sweep executor; apply the
    // --obs options directly (no per-point path suffix needed — one
    // multiprog point per bench run).
    machine.obs = sweep::defaultSweepOptions().obs;

    MultiprogParams params;
    params.totalRefs = multiprogRefs(options);
    return runMultiprog(machine, spec::makeSpecWorkload(), params);
}

} // namespace scmp::bench

#endif // SCMP_BENCH_COMMON_HH
