/**
 * @file
 * The golden-number regression points, shared between the capture
 * tool (golden_capture) and the regression test (test_golden).
 *
 * Each point is one quick-scale workload run at a fixed machine
 * configuration. The simulator is bit-deterministic, so every
 * metric — cycle count, reference count, miss rates — must match
 * the committed fixture EXACTLY; any drift means a change altered
 * simulated behaviour and either is a bug or requires deliberately
 * re-capturing the fixtures (scripts: build/tests/golden_capture
 * tests/golden).
 *
 * Besides the SPLASH codes, two points pin engine paths no SPLASH
 * run reaches: a round-robin multiprogrammed SPEC point whose short
 * quantum blocks, wakes and rebinds processes many times, and an
 * open-loop compute-server point with i-fetch on, whose threads
 * idle until their next arrival.
 *
 * Fixture format: the sweep ResultStore's JSON-lines records, one
 * file per workload under tests/golden/, so the fixtures can be
 * inspected (and diffed in review) with the same tooling as sweep
 * results.
 *
 * The same tool also pins the reuse-distance profiler (src/model):
 * a few profiling passes, each written as text under
 * tests/golden/profiles/ with every histogram of every scope, so
 * a change to the profiler's internals must reproduce them bit for
 * bit (test_profile_golden).
 */

#ifndef SCMP_TESTS_GOLDEN_COMMON_HH
#define SCMP_TESTS_GOLDEN_COMMON_HH

#include <memory>
#include <string>
#include <vector>

#include "core/parallel_run.hh"
#include "model/profile_run.hh"
#include "multiprog/scheduler.hh"
#include "sweep/point_key.hh"
#include "sweep/result_store.hh"
#include "workloads/splash/barnes.hh"
#include "workloads/splash/cholesky.hh"
#include "workloads/splash/mp3d.hh"
#include "workloads/server/server.hh"

namespace scmp::golden
{

/** One pinned design point. */
struct GoldenSpec
{
    const char *workload;
    int cpusPerCluster;
    std::uint64_t sccBytes;
};

/** Scale tag mixed into the point keys. */
inline constexpr const char *goldenScale = "golden";

/** Every pinned point, grouped by workload file. */
inline std::vector<GoldenSpec>
goldenSpecs()
{
    return {
        {"barnes", 2, 32ull << 10},
        {"barnes", 4, 128ull << 10},
        {"mp3d", 2, 32ull << 10},
        {"mp3d", 4, 128ull << 10},
        {"cholesky", 2, 32ull << 10},
        {"cholesky", 4, 128ull << 10},
        {"multiprog", 3, 32ull << 10},
        {"server", 2, 32ull << 10},
    };
}

inline MachineConfig
goldenMachine(const GoldenSpec &spec)
{
    MachineConfig config;
    config.cpusPerCluster = spec.cpusPerCluster;
    config.scc.sizeBytes = spec.sccBytes;
    std::string workload = spec.workload;
    config.icache.enabled = workload == "multiprog" || workload == "server";
    return config;
}

/** Quick-scale workload instance for a spec (same as bench quick). */
inline std::unique_ptr<ParallelWorkload>
makeGoldenWorkload(const std::string &name)
{
    if (name == "barnes") {
        splash::BarnesParams params;
        params.nbodies = 256;
        params.steps = 2;
        return std::make_unique<splash::Barnes>(params);
    }
    if (name == "mp3d") {
        splash::Mp3dParams params;
        params.nparticles = 2000;
        params.steps = 3;
        return std::make_unique<splash::Mp3d>(params);
    }
    if (name == "cholesky") {
        splash::CholeskyParams params;
        params.gridRows = 20;
        params.gridCols = 20;
        return std::make_unique<splash::Cholesky>(params);
    }
    if (name == "server") {
        server::ServerParams params;
        params.requests = 3000;
        return std::make_unique<server::ServerWorkload>(params);
    }
    fatal("unknown golden workload '", name, "'");
}

/**
 * The multiprogrammed point: eight SPEC processes round robin on
 * three processors, with a quantum of 20 K cycles, so a few hundred
 * context switches. Its metrics go into the RunResult fields they
 * share with a parallel run.
 */
inline RunResult
runGoldenMultiprog(const MachineConfig &config)
{
    MultiprogParams params;
    params.quantum = 20'000;
    params.totalRefs = 300'000;
    MultiprogResult run =
        runMultiprog(config, spec::makeSpecWorkload(), params);
    RunResult result;
    result.cycles = run.cycles;
    result.references = run.references;
    result.readMissRate = run.readMissRate;
    result.missRate = run.missRate;
    result.invalidations = run.invalidations;
    result.verified = run.verified;
    return result;
}

/** Run one pinned point and package it as a store record. */
inline sweep::StoredPoint
runGoldenPoint(const GoldenSpec &spec)
{
    MachineConfig config = goldenMachine(spec);

    sweep::StoredPoint point;
    point.key = sweep::pointKey(config, spec.workload, goldenScale);
    point.workload = spec.workload;
    point.scale = goldenScale;
    point.cpusPerCluster = spec.cpusPerCluster;
    point.sccBytes = spec.sccBytes;
    if (point.workload == "multiprog")
        point.result = runGoldenMultiprog(config);
    else
        point.result =
            runParallel(config, *makeGoldenWorkload(spec.workload));
    return point;
}

/** Fixture file for a workload under @p dir. */
inline std::string
goldenPath(const std::string &dir, const std::string &workload)
{
    return dir + "/" + workload + ".json";
}

/** One pinned profiling pass. */
struct ProfileSpec
{
    const char *name;     //!< fixture file stem
    const char *workload; //!< makeGoldenWorkload() name
    std::uint32_t sampleShift;
    std::vector<std::uint32_t> lineSizes;
};

/**
 * Every pinned profiling pass: exact passes of Barnes (at two line
 * sizes, so the per-line-size stacks are pinned too) and MP3D, and
 * a SHARDS-sampled MP3D pass.
 */
inline std::vector<ProfileSpec>
profileSpecs()
{
    return {
        {"barnes", "barnes", 0, {16, 64}},
        {"mp3d", "mp3d", 0, {16}},
        {"mp3d_shift2", "mp3d", 2, {16}},
    };
}

/** Run one pinned profiling pass, at 4 clusters x 8 cpus. */
inline model::ReuseProfile
runGoldenProfile(const ProfileSpec &spec)
{
    MachineConfig config;
    config.numClusters = 4;
    config.cpusPerCluster = 8;
    auto workload = makeGoldenWorkload(spec.workload);
    model::ProfileRunOptions options;
    options.sampleShift = spec.sampleShift;
    options.lineSizes = spec.lineSizes;
    return model::profileWorkload(config, *workload, options);
}

/**
 * A profile as fixture text, one line per fact. Histogram lines
 * start with their scope ("line 16 cluster 2 writes") so the first
 * differing line names the scope that moved; trailing zero buckets
 * are left out.
 */
inline std::vector<std::string>
profileLines(const model::ReuseProfile &profile)
{
    auto number = [](std::uint64_t value) {
        return std::to_string(value);
    };
    std::vector<std::string> lines = {
        "topology " + number((std::uint64_t)profile.numClusters) +
            "x" + number((std::uint64_t)profile.cpusPerCluster),
        "sample_rate " + number(profile.sampleRate),
        "references " + number(profile.references),
        "reads " + number(profile.reads),
        "writes " + number(profile.writes),
        "instructions " + number(profile.instructions),
    };
    auto histogram = [&](const std::string &scope,
                         const model::ReuseHistogram &h) {
        std::string text = scope + " samples=" + number(h.samples) +
                           " cold=" + number(h.cold) +
                           " coherence=" + number(h.coherence) +
                           " buckets=";
        std::size_t used = h.buckets.size();
        while (used > 0 && h.buckets[used - 1] == 0)
            --used;
        for (std::size_t b = 0; b < used; ++b) {
            if (b)
                text += ',';
            text += number(h.buckets[b]);
        }
        lines.push_back(text);
    };
    auto scope = [&](const std::string &name,
                     const model::ScopeProfile &s) {
        histogram(name + " reads", s.reads);
        histogram(name + " writes", s.writes);
    };
    for (const model::LineProfile &line : profile.lines) {
        std::string prefix = "line " + number(line.lineBytes) + " ";
        scope(prefix + "machine", line.machine);
        for (std::size_t c = 0; c < line.clusters.size(); ++c)
            scope(prefix + "cluster " + number(c), line.clusters[c]);
        for (std::size_t c = 0; c < line.cpus.size(); ++c)
            scope(prefix + "cpu " + number(c), line.cpus[c]);
    }
    return lines;
}

/** Profile fixture file for a spec under @p dir. */
inline std::string
profilePath(const std::string &dir, const ProfileSpec &spec)
{
    return dir + "/profiles/" + spec.name + ".txt";
}

} // namespace scmp::golden

#endif // SCMP_TESTS_GOLDEN_COMMON_HH
