/**
 * @file
 * Host-parallel, resumable design-space sweep execution.
 *
 * Every figure and table in the paper is a grid sweep over
 * {processors per cluster} x {SCC size}, and every per-axis study
 * (fabric, DRAM, consistency, TM, isolation) is a list of machine
 * configurations. Each point is a fully self-contained simulation
 * (fresh Machine, fresh workload, fresh Arena, deterministic
 * engine). The SweepExecutor exploits that independence: the
 * calling thread and jobs - 1 helper threads take points in order
 * from one shared cursor (--jobs=1 runs every point on the calling
 * thread), a ResultStore persists each completed point keyed by its
 * stable configuration hash, and a resumed sweep skips every point
 * the store already holds. The analytic screen's profiling pass
 * runs once, before any point; its reuse profiler's three scope
 * workers (src/model) run at any --jobs.
 *
 * Correctness bar: a sweep with --jobs=N produces bit-identical
 * RunResults to the serial sweep. Each point's inputs are functions
 * only of its own configuration (the executor hands the point its
 * config-hash seed before setup; nothing is shared across points),
 * so results cannot depend on host scheduling order.
 */

#ifndef SCMP_SWEEP_SWEEP_HH
#define SCMP_SWEEP_SWEEP_HH

#include <string>
#include <vector>

#include "core/design_space.hh"
#include "obs/recorder.hh"
#include "sim/config.hh"
#include "sim/names.hh"
#include "sweep/result_store.hh"

namespace scmp::sweep
{

/**
 * Evaluation model for a grid sweep (--model=cycle|analytic|hybrid).
 *
 * Cycle runs every point through the cycle-accurate machine — the
 * reference mode, and the only one whose results are exact.
 * Analytic profiles the workload's reuse-distance histograms once
 * (src/model) and predicts every point from that single pass —
 * orders of magnitude faster, within the model's error bars.
 * Hybrid screens the whole grid analytically, ranks points by
 * predicted cycles, and runs only the top-K frontier
 * cycle-accurately — fast where the grid is boring, exact where it
 * matters.
 */
enum class SweepModel
{
    Cycle,
    Analytic,
    Hybrid,
};

inline std::span<const NameRow<SweepModel>>
nameTable(SweepModel)
{
    static constexpr NameRow<SweepModel> names[] = {
        {"cycle", SweepModel::Cycle},
        {"analytic", SweepModel::Analytic},
        {"hybrid", SweepModel::Hybrid},
    };
    return names;
}

/** Execution knobs for one sweep (the flags' reader: fromFlags). */
struct SweepOptions
{
    /**
     * Design points run at once; 1 = every point on the calling
     * thread, 0 = one per hardware thread. The profiling pass's
     * scope workers do not count.
     */
    int jobs = 1;

    /** Evaluation model (see SweepModel). */
    SweepModel model = SweepModel::Cycle;

    /**
     * Hybrid mode: number of analytically top-ranked points that
     * get the cycle-accurate treatment. 0 = auto, max(3, total/4).
     */
    int topK = 0;

    /**
     * Profiling-pass SHARDS sample shift (analytic/hybrid): rate
     * 1/2^shift, 0 = exact. See model::ProfileRunOptions.
     */
    std::uint32_t profileSampleShift = 0;

    /** JSON-lines result store path; empty = no persistence. */
    std::string resultsPath;

    /**
     * Reload resultsPath and skip already-stored points. Without
     * this flag an existing results file is overwritten.
     */
    bool resume = false;

    /** inform() per-point progress with wall time and ETA. */
    bool verbose = false;

    /** Scale tag mixed into each point's store key. */
    std::string scale = "default";

    /**
     * Attach each point's hierarchical statistics tree (as JSON,
     * see stats::Group::dumpJson) to its store record.
     */
    bool attachStats = false;

    /**
     * Observability (src/obs) applied to every point's machine.
     * File paths are suffixed with each point's key so concurrent
     * workers never collide; with captureSeries set, each point's
     * interval-metrics series lands in its store record. Never part
     * of the point key — resumed sweeps match either way.
     */
    obs::RecorderConfig obs;
};

/** Counters describing what one run() actually did. */
struct SweepRunStats
{
    std::size_t total = 0;     //!< grid points requested
    std::size_t computed = 0;  //!< simulated this run
    std::size_t reused = 0;    //!< served from the result store
    std::size_t screened = 0;  //!< evaluated analytically
    double wallMs = 0;         //!< whole-sweep host wall time
    double profileMs = 0;      //!< reuse-profiling pass wall time
    double analyticMs = 0;     //!< analytic evaluation wall time
    int jobs = 0;              //!< worker threads actually used
};

/**
 * The options the sweep flags ask for: --jobs=N|auto, --model,
 * --topk, --profile-shift, --results=FILE, --resume (fatal without
 * --results), --stats, --progress, and the --obs flags
 * (obs::fromFlags; with --obs-interval each point's series lands in
 * the store). @p scale is mixed into every point key.
 */
SweepOptions fromFlags(const Config &flags, std::string scale);

/**
 * Executor over a set of design points: a grid (run) or a study's
 * configuration list (runStudy), both through one
 * store/resume/obs/progress path.
 */
class SweepExecutor
{
  public:
    explicit SweepExecutor(SweepOptions options);

    /**
     * Evaluate base x sccSizes x clusterSizes (cluster sizes outer,
     * like the serial sweep always did) and return the completed
     * grid. Each point overrides base's cpusPerCluster and
     * scc.sizeBytes and runs a fresh workload from @p factory. May be
     * called repeatedly (each call reopens the result store);
     * runStats() describes the most recent run.
     */
    DesignGrid run(const DesignSpace::WorkloadFactory &factory,
                   MachineConfig base,
                   const std::vector<std::uint64_t> &sccSizes,
                   const std::vector<int> &clusterSizes);

    /**
     * Evaluate every configuration in @p configs cycle-accurately
     * (whatever options().model says: the analytic screen models
     * only the procs x SCC grid), tagging each stored record with
     * its value on every axis in @p axes (tag names, see
     * taggedField() in core/design_fields.hh). A configuration whose
     * point key equals an earlier one's (an axis value that is inert
     * for it, such as a TM set size under --tm=off) is evaluated
     * once and not repeated in the result.
     *
     * @return One point per distinct point key, in order.
     */
    std::vector<DesignPoint>
    runStudy(const DesignSpace::WorkloadFactory &factory,
             const std::vector<MachineConfig> &configs,
             const std::vector<std::string> &axes);

    const SweepRunStats &runStats() const { return _stats; }
    const SweepOptions &options() const { return _options; }

  private:
    /**
     * The shared core: dedupe @p configs by point key, screen them
     * analytically when @p profileConfig (the profiling pass's
     * machine) is given, serve stored points, and run the rest on
     * the workers.
     */
    std::vector<DesignPoint>
    execute(const DesignSpace::WorkloadFactory &factory,
            const std::vector<MachineConfig> &configs,
            const std::vector<std::string> &axes,
            const MachineConfig *profileConfig);

    SweepOptions _options;
    SweepRunStats _stats;
};

} // namespace scmp::sweep

#endif // SCMP_SWEEP_SWEEP_HH
