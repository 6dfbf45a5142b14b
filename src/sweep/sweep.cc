#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "model/analytic.hh"
#include "model/profile_run.hh"
#include "sim/logging.hh"
#include "sweep/point_key.hh"

namespace scmp::sweep
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               Clock::now() - start)
        .count();
}

/**
 * Store key for the analytic prediction of a point: the cycle
 * key salted with the model name, so a screened record can never
 * be served where a cycle-accurate result is expected (and vice
 * versa on resume).
 */
std::uint64_t
analyticKey(std::uint64_t key)
{
    KeyHasher hasher;
    hasher.mix(key);
    hasher.mix("analytic");
    return hasher.value();
}

} // namespace

SweepOptions
fromFlags(const Config &flags, std::string scale)
{
    SweepOptions options;
    options.jobs = flags.getString("jobs", "") == "auto"
                       ? 0
                       : (int)flags.getIntIn(
                             "jobs", 1, 0,
                             std::numeric_limits<int>::max());
    options.model = flags.getEnum("model", options.model);
    // Screen knobs are range-checked here, where the flag can still
    // be named: a negative count would wrap to a huge unsigned one.
    options.topK = (int)flags.getIntIn(
        "topk", 0, 0, std::numeric_limits<int>::max());
    options.profileSampleShift =
        (std::uint32_t)flags.getIntIn("profile-shift", 0, 0, 31);
    options.resultsPath = flags.getString("results", "");
    options.resume = flags.getBool("resume", false);
    fatal_if(options.resume && options.resultsPath.empty(),
             "--resume needs --results=FILE");
    options.attachStats = flags.getBool("stats", false);
    options.verbose = flags.getBool("progress", false);
    options.scale = std::move(scale);
    options.obs = obs::fromFlags(flags);
    return options;
}

SweepExecutor::SweepExecutor(SweepOptions options)
    : _options(std::move(options))
{
}

DesignGrid
SweepExecutor::run(const DesignSpace::WorkloadFactory &factory,
                   MachineConfig base,
                   const std::vector<std::uint64_t> &sccSizes,
                   const std::vector<int> &clusterSizes)
{
    std::vector<MachineConfig> configs;
    configs.reserve(clusterSizes.size() * sccSizes.size());
    for (int procs : clusterSizes) {
        for (std::uint64_t size : sccSizes) {
            MachineConfig config = base;
            config.cpusPerCluster = procs;
            config.scc.sizeBytes = size;
            configs.push_back(config);
        }
    }

    // Analytic/hybrid screens profile once at the grid's widest
    // cluster — the scope layout every grouping on the axis can be
    // derived from.
    std::optional<MachineConfig> profile;
    if (_options.model != SweepModel::Cycle && !configs.empty()) {
        profile = base;
        profile->cpusPerCluster = *std::max_element(
            clusterSizes.begin(), clusterSizes.end());
    }

    DesignGrid grid;
    for (DesignPoint &point :
         execute(factory, configs, {}, profile ? &*profile : nullptr))
        grid.add(std::move(point));
    return grid;
}

std::vector<DesignPoint>
SweepExecutor::runStudy(const DesignSpace::WorkloadFactory &factory,
                        const std::vector<MachineConfig> &configs,
                        const std::vector<std::string> &axes)
{
    return execute(factory, configs, axes, nullptr);
}

std::vector<DesignPoint>
SweepExecutor::execute(const DesignSpace::WorkloadFactory &factory,
                       const std::vector<MachineConfig> &configs,
                       const std::vector<std::string> &axes,
                       const MachineConfig *profileConfig)
{
    auto sweepStart = Clock::now();

    // One throwaway instance for the name; construction is cheap
    // (workloads allocate in setup(), not their constructors).
    const std::string workloadName = factory()->name();

    // One task per distinct point key, in first-seen order: a
    // config that differs from an earlier one only on an axis value
    // that is inert for it is the same design point.
    struct Task
    {
        MachineConfig config;  //!< as run: obs paths made per point
        std::uint64_t key;
    };
    std::vector<Task> tasks;
    std::vector<DesignPoint> results;
    std::unordered_set<std::uint64_t> seen;
    for (const MachineConfig &config : configs) {
        Task task{config,
                  pointKey(config, workloadName, _options.scale)};
        if (!seen.insert(task.key).second)
            continue;
        if (_options.obs.enabled)
            task.config.obs =
                obs::tagPaths(_options.obs, keyHex(task.key));
        DesignPoint point;
        point.cpusPerCluster = config.cpusPerCluster;
        point.sccBytes = config.scc.sizeBytes;
        point.config = config;
        results.push_back(std::move(point));
        tasks.push_back(std::move(task));
    }

    _stats = SweepRunStats{};
    _stats.total = tasks.size();

    ResultStore store;
    if (!_options.resultsPath.empty())
        store.open(_options.resultsPath, _options.resume);

    auto recordFor = [&](const Task &task) {
        StoredPoint record;
        record.key = task.key;
        record.workload = workloadName;
        record.scale = _options.scale;
        record.cpusPerCluster = task.config.cpusPerCluster;
        record.sccBytes = task.config.scc.sizeBytes;
        for (const std::string &name : axes) {
            const DesignField &axis = taggedField(name);
            if (axis.isLive(task.config))
                record.tags[name] = axis.text(task.config);
        }
        return record;
    };

    // Analytic screen (grids under analytic/hybrid only): one
    // functional profiling pass, then a microseconds-per-point
    // evaluation of the whole grid.
    std::vector<RunResult> predicted;
    std::vector<char> runCycle(
        tasks.size(),
        !profileConfig || _options.model != SweepModel::Analytic);
    if (profileConfig && !tasks.empty()) {
        auto profileStart = Clock::now();
        auto workload = factory();
        workload->reseed(pointKey(*profileConfig, workloadName,
                                  _options.scale));
        model::ProfileRunOptions profileOptions;
        profileOptions.sampleShift = _options.profileSampleShift;
        model::ReuseProfile profile = model::profileWorkload(
            *profileConfig, *workload, profileOptions);
        _stats.profileMs = msSince(profileStart);

        model::AnalyticEvaluator evaluator(profile);
        auto evalStart = Clock::now();
        predicted.resize(tasks.size());
        for (std::size_t i = 0; i < tasks.size(); ++i)
            predicted[i] = evaluator.evaluate(tasks[i].config);
        _stats.analyticMs = msSince(evalStart);
        _stats.screened = tasks.size();

        if (_options.model == SweepModel::Hybrid) {
            // Only the analytically best K points earn the
            // cycle-accurate treatment; the rest keep their
            // predictions.
            std::size_t topK =
                _options.topK > 0
                    ? (std::size_t)_options.topK
                    : std::max<std::size_t>(3, tasks.size() / 4);
            topK = std::min(topK, tasks.size());
            std::vector<std::size_t> order(tasks.size());
            std::iota(order.begin(), order.end(), 0);
            std::stable_sort(
                order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                    return predicted[a].cycles <
                           predicted[b].cycles;
                });
            std::fill(runCycle.begin(), runCycle.end(), 0);
            for (std::size_t k = 0; k < topK; ++k)
                runCycle[order[k]] = 1;
        }
        if (_options.verbose) {
            inform("sweep: ", workloadName, " analytic screen — ",
                   tasks.size(), " points from one ",
                   _stats.profileMs, " ms profile pass (",
                   _stats.analyticMs, " ms to evaluate)");
        }
    }

    // Partition the points into screened ones (served from the
    // analytic predictions), stored ones (served immediately) and
    // pending ones (dealt to the workers).
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const Task &task = tasks[i];
        if (!runCycle[i]) {
            results[i].result = predicted[i];
            if (store.isOpen()) {
                std::uint64_t screenKey = analyticKey(task.key);
                if (!(_options.resume && store.find(screenKey))) {
                    StoredPoint record = recordFor(task);
                    record.key = screenKey;
                    record.model = "analytic";
                    record.jobs = 1;  // one screen, whatever --jobs
                    record.result = predicted[i];
                    record.wallMs =
                        _stats.analyticMs / (double)tasks.size();
                    store.append(record);
                }
            }
            continue;
        }
        const StoredPoint *stored =
            _options.resume && store.isOpen() ? store.find(task.key)
                                              : nullptr;
        if (stored) {
            fatal_if(!stored->describes(task.config, workloadName),
                     "results file '", _options.resultsPath,
                     "' record ", keyHex(task.key),
                     " does not match its key's configuration ",
                     "(key collision or corrupt store)");
            results[i].result = stored->result;
            ++_stats.reused;
        } else {
            pending.push_back(i);
        }
    }
    if (_options.verbose && _stats.reused > 0) {
        inform("sweep: resuming ", workloadName, " — ",
               _stats.reused, "/", tasks.size(),
               " points already in '", _options.resultsPath, "'");
    }

    const std::size_t toCompute = pending.size();
    std::atomic<std::size_t> completed{0};
    auto computeStart = Clock::now();

    // Resolve the worker count up front so each stored record can
    // carry the job count that actually produced it.
    int jobs = _options.jobs;
    if (jobs <= 0)
        jobs = (int)std::thread::hardware_concurrency();
    if (jobs < 1)
        jobs = 1;
    if ((std::size_t)jobs > pending.size())
        jobs = (int)pending.size();
    if (jobs < 1)
        jobs = 1;
    _stats.jobs = jobs;

    auto runOne = [&](std::size_t i) {
        const Task &task = tasks[i];
        auto workload = factory();
        // Hand the point its deterministic identity before setup;
        // combined with the fresh Machine/Arena/Engine below this
        // makes the point's result independent of which host
        // thread runs it and in what order.
        workload->reseed(task.key);

        std::ostringstream statsJson;
        auto pointStart = Clock::now();
        RunResult result = runParallel(
            task.config, *workload, nullptr, nullptr,
            _options.attachStats ? &statsJson : nullptr);
        double wallMs = msSince(pointStart);

        results[i].result = result;

        if (store.isOpen()) {
            StoredPoint record = recordFor(task);
            record.jobs = jobs;
            record.result = result;
            record.wallMs = wallMs;
            record.statsJson = statsJson.str();
            record.series = result.obsSeries;
            store.append(record);
        }

        std::size_t doneCount =
            completed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (_options.verbose) {
            double elapsedS = msSince(computeStart) / 1000.0;
            double etaS = doneCount < toCompute
                              ? elapsedS / (double)doneCount *
                                    (double)(toCompute - doneCount)
                              : 0.0;
            std::string axisValues;
            for (const auto &[name, value] : recordFor(task).tags)
                axisValues += " " + name + "=" + value;
            inform("sweep ", doneCount, "/", toCompute, ": ",
                   workloadName, " ", task.config.cpusPerCluster,
                   "P/cluster ", sizeString(task.config.scc.sizeBytes),
                   axisValues, " -> ", result.cycles,
                   " cycles, rdMiss=", result.readMissRate, " (",
                   wallMs, " ms, ETA ", etaS, " s)");
        }
    };

    // One loop deals the pending points out in order through a
    // shared cursor. The calling thread runs it beside jobs - 1
    // helpers, so one job runs every point in order on the caller.
    std::atomic<std::size_t> cursor{0};
    auto work = [&] {
        for (;;) {
            std::size_t k =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (k >= pending.size())
                return;
            runOne(pending[k]);
        }
    };
    {
        // Helpers join as they leave this scope, on an exception too.
        std::vector<std::jthread> helpers;
        for (int w = 1; w < jobs; ++w)
            helpers.emplace_back(work);
        work();
    }

    _stats.computed = toCompute;
    _stats.wallMs = msSince(sweepStart);
    if (_options.verbose) {
        std::size_t cyclePoints = _stats.computed + _stats.reused;
        std::size_t served = _stats.screened > cyclePoints
                                 ? _stats.screened - cyclePoints
                                 : 0;
        inform("sweep: ", workloadName, " done — ",
               _stats.computed, " computed, ", _stats.reused,
               " reused, ", served, " screened, ",
               _stats.wallMs / 1000.0, " s");
    }
    return results;
}

} // namespace scmp::sweep
