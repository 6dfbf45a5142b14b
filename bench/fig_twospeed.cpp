/**
 * @file
 * Two-speed exploration benchmark: quantifies what the
 * reuse-distance analytic fast path (src/model) buys over the
 * cycle-accurate machine on the paper's design grids.
 *
 * Four measurements, emitted as a table and optionally as JSON
 * (--json=FILE, the BENCH_PR8.json artifact):
 *
 *  1. Grid wall time, cycle vs analytic, on the Figure 2 (Barnes)
 *     and Figure 3 (MP3D) grids. The analytic path has two costs
 *     reported separately and never conflated: one profiling pass
 *     per workload (reusable across every grid that workload ever
 *     screens) and the per-grid evaluation. "speedupEval" compares
 *     grid evaluation against the cycle sweep; "speedupWithProfile"
 *     charges the whole profiling pass to this one grid — the
 *     worst-case, nothing-amortized number.
 *  2. Hybrid fidelity: the top-3 design points (by cycles) of a
 *     --model=hybrid sweep must match the cycle-accurate top-3.
 *  3. Model accuracy: analytic miss-rate error at each of the six
 *     golden-fixture points, against cycle-accurate truth computed
 *     live at the same (quick-scale) coordinates.
 *  4. The compute-server scenario: one hybrid sweep over the server
 *     grid replaying >= 1M requests total on the frontier, with
 *     p50/p95/p99 latency per point persisted to a ResultStore.
 *
 * Usage: fig_twospeed [common bench flags] [--json=FILE]
 *                     [--server-requests=N] [--server-load=X]
 *                     [--server-results=FILE]
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "model/analytic.hh"
#include "model/profile_run.hh"
#include "workloads/server/server.hh"

namespace
{

using namespace scmp;

/** Top @p k grid points by cycle count, as (procs, sccBytes). */
std::vector<std::pair<int, std::uint64_t>>
topPoints(const DesignGrid &grid, std::size_t k)
{
    std::vector<const DesignPoint *> sorted;
    for (const DesignPoint &point : grid.points())
        sorted.push_back(&point);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const DesignPoint *a, const DesignPoint *b) {
                         return a->result.cycles < b->result.cycles;
                     });
    std::vector<std::pair<int, std::uint64_t>> top;
    for (std::size_t i = 0; i < k && i < sorted.size(); ++i)
        top.emplace_back(sorted[i]->cpusPerCluster,
                         sorted[i]->sccBytes);
    return top;
}

std::string
pointsJson(const std::vector<std::pair<int, std::uint64_t>> &points)
{
    std::string out = "[";
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i)
            out += ",";
        out += "[" + std::to_string(points[i].first) + "," +
               std::to_string(points[i].second) + "]";
    }
    return out + "]";
}

/** One grid measured under all three models. */
struct GridReport
{
    std::string figure;
    std::string workload;
    std::size_t points = 0;
    double cycleMs = 0;
    double profileMs = 0;
    double analyticEvalMs = 0;
    double hybridMs = 0;
    bool top3Match = false;
    std::vector<std::pair<int, std::uint64_t>> top3Cycle;
    std::vector<std::pair<int, std::uint64_t>> top3Hybrid;

    double speedupEval() const
    {
        return analyticEvalMs > 0 ? cycleMs / analyticEvalMs : 0;
    }
    double speedupWithProfile() const
    {
        double total = profileMs + analyticEvalMs;
        return total > 0 ? cycleMs / total : 0;
    }
};

GridReport
measureGrid(const char *figure, const char *workload,
            const DesignSpace::WorkloadFactory &factory,
            const bench::BenchOptions &options)
{
    GridReport report;
    report.figure = figure;
    report.workload = workload;
    report.points =
        options.sccSizes.size() * options.clusterSizes.size();

    sweep::SweepOptions cycleOptions = options.sweep;
    cycleOptions.model = sweep::SweepModel::Cycle;
    cycleOptions.resultsPath.clear();
    cycleOptions.resume = false;
    sweep::SweepExecutor cycleExec(cycleOptions);
    DesignGrid cycleGrid =
        cycleExec.run(factory, MachineConfig{}, options.sccSizes,
                      options.clusterSizes);
    report.cycleMs = cycleExec.runStats().wallMs;

    sweep::SweepOptions analyticOptions = cycleOptions;
    analyticOptions.model = sweep::SweepModel::Analytic;
    sweep::SweepExecutor analyticExec(analyticOptions);
    analyticExec.run(factory, MachineConfig{}, options.sccSizes,
                     options.clusterSizes);
    report.profileMs = analyticExec.runStats().profileMs;
    report.analyticEvalMs = analyticExec.runStats().analyticMs;

    sweep::SweepOptions hybridOptions = cycleOptions;
    hybridOptions.model = sweep::SweepModel::Hybrid;
    hybridOptions.topK = options.sweep.topK;
    sweep::SweepExecutor hybridExec(hybridOptions);
    DesignGrid hybridGrid =
        hybridExec.run(factory, MachineConfig{}, options.sccSizes,
                       options.clusterSizes);
    report.hybridMs = hybridExec.runStats().wallMs;

    report.top3Cycle = topPoints(cycleGrid, 3);
    report.top3Hybrid = topPoints(hybridGrid, 3);
    report.top3Match = report.top3Cycle == report.top3Hybrid;
    return report;
}

/** Analytic miss-rate error at one golden-fixture coordinate. */
struct GoldenReport
{
    std::string workload;
    int cpusPerCluster = 0;
    std::uint64_t sccBytes = 0;
    double missCycle = 0;
    double missAnalytic = 0;

    double relError() const
    {
        return missCycle != 0
                   ? (missAnalytic - missCycle) / missCycle
                   : 0;
    }
};

std::vector<GoldenReport>
measureGolden()
{
    // The golden-fixture coordinates (tests/golden_common.hh) at
    // their quick-scale inputs, with cycle truth computed live so
    // the comparison never drifts from the fixtures' definition.
    struct Spec { const char *w; int procs; std::uint64_t scc; };
    const Spec specs[] = {
        {"barnes", 2, 32ull << 10},   {"barnes", 4, 128ull << 10},
        {"mp3d", 2, 32ull << 10},     {"mp3d", 4, 128ull << 10},
        {"cholesky", 2, 32ull << 10}, {"cholesky", 4, 128ull << 10},
    };

    bench::BenchOptions quick;
    quick.scale = bench::Scale::Quick;
    auto make = [&quick](const std::string &name) {
        if (name == "barnes")
            return bench::barnesFactory(quick)();
        if (name == "mp3d")
            return bench::mp3dFactory(quick)();
        return bench::choleskyFactory(quick)();
    };

    std::vector<GoldenReport> reports;
    for (const char *workload : {"barnes", "mp3d", "cholesky"}) {
        // One exact profiling pass per workload, at the widest
        // cluster the golden points use, serves both of them.
        MachineConfig profConfig;
        profConfig.cpusPerCluster = 4;
        auto profiled = make(workload);
        model::ReuseProfile profile = model::profileWorkload(
            profConfig, *profiled, model::ProfileRunOptions{});
        model::AnalyticEvaluator evaluator(profile);

        for (const Spec &spec : specs) {
            if (std::string(spec.w) != workload)
                continue;
            GoldenReport report;
            report.workload = spec.w;
            report.cpusPerCluster = spec.procs;
            report.sccBytes = spec.scc;

            MachineConfig config;
            config.cpusPerCluster = spec.procs;
            config.scc.sizeBytes = spec.scc;
            auto truth = make(workload);
            report.missCycle =
                runParallel(config, *truth).missRate;
            report.missAnalytic =
                evaluator.evaluate(config).missRate;
            reports.push_back(report);
        }
    }
    return reports;
}

/** The server hybrid sweep: frontier replays >= 1M requests. */
struct ServerReport
{
    std::size_t points = 0;
    std::size_t frontier = 0;
    std::uint64_t requestsReplayed = 0;
    double wallMs = 0;
    std::vector<DesignPoint> perPoint;
};

ServerReport
measureServer(const bench::BenchOptions &options,
              const server::ServerParams &params,
              const std::string &resultsPath)
{
    sweep::SweepOptions sweepOptions = options.sweep;
    sweepOptions.model = sweep::SweepModel::Hybrid;
    // Four frontier points x 250K requests = the 1M-request bar.
    sweepOptions.topK =
        options.sweep.topK > 0 ? options.sweep.topK : 4;
    sweepOptions.scale = "server";
    sweepOptions.resultsPath = resultsPath;
    sweepOptions.resume = false;

    MachineConfig base;
    base.icache.enabled = true;

    sweep::SweepExecutor executor(sweepOptions);
    DesignGrid grid = executor.run(
        [&params] {
            return std::make_unique<server::ServerWorkload>(params);
        },
        base, {32ull << 10, 128ull << 10}, {1, 2, 4, 8});

    ServerReport report;
    report.points = grid.points().size();
    report.wallMs = executor.runStats().wallMs;
    for (const DesignPoint &point : grid.points()) {
        report.perPoint.push_back(point);
        if (point.result.requests) {
            ++report.frontier;
            report.requestsReplayed += point.result.requests;
        }
    }
    return report;
}

void
writeJson(const std::string &path,
          const std::vector<GridReport> &grids,
          const std::vector<GoldenReport> &golden,
          const ServerReport &server, const char *scale, int jobs)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    fatal_if(!file, "cannot write ", path);
    auto put = [file](const char *fmt, auto... args) {
        std::fprintf(file, fmt, args...);
    };
    put("{\n  \"bench\": \"fig_twospeed\",\n");
    put("  \"scale\": \"%s\",\n  \"jobs\": %d,\n", scale, jobs);

    put("  \"grids\": [\n");
    for (std::size_t i = 0; i < grids.size(); ++i) {
        const GridReport &g = grids[i];
        put("    {\"figure\": \"%s\", \"workload\": \"%s\", "
            "\"points\": %zu,\n",
            g.figure.c_str(), g.workload.c_str(), g.points);
        put("     \"cycleMs\": %.3f, \"profileMs\": %.3f, "
            "\"analyticEvalMs\": %.3f, \"hybridMs\": %.3f,\n",
            g.cycleMs, g.profileMs, g.analyticEvalMs, g.hybridMs);
        put("     \"speedupEval\": %.1f, "
            "\"speedupWithProfile\": %.1f,\n",
            g.speedupEval(), g.speedupWithProfile());
        put("     \"top3Cycle\": %s, \"top3Hybrid\": %s, "
            "\"top3Match\": %s}%s\n",
            pointsJson(g.top3Cycle).c_str(),
            pointsJson(g.top3Hybrid).c_str(),
            g.top3Match ? "true" : "false",
            i + 1 < grids.size() ? "," : "");
    }
    put("  ],\n");

    double maxError = 0;
    put("  \"golden\": [\n");
    for (std::size_t i = 0; i < golden.size(); ++i) {
        const GoldenReport &g = golden[i];
        maxError = std::max(maxError, std::abs(g.relError()));
        put("    {\"workload\": \"%s\", \"procs\": %d, "
            "\"sccBytes\": %llu, \"missCycle\": %.6f, "
            "\"missAnalytic\": %.6f, \"relError\": %.4f}%s\n",
            g.workload.c_str(), g.cpusPerCluster,
            (unsigned long long)g.sccBytes, g.missCycle,
            g.missAnalytic, g.relError(),
            i + 1 < golden.size() ? "," : "");
    }
    put("  ],\n  \"maxGoldenRelError\": %.4f,\n", maxError);

    put("  \"server\": {\n");
    put("    \"points\": %zu, \"frontier\": %zu, "
        "\"requestsReplayed\": %llu, \"wallMs\": %.3f,\n",
        server.points, server.frontier,
        (unsigned long long)server.requestsReplayed, server.wallMs);
    put("    \"perPoint\": [\n");
    for (std::size_t i = 0; i < server.perPoint.size(); ++i) {
        const DesignPoint &point = server.perPoint[i];
        const RunResult &r = point.result;
        put("      {\"procs\": %d, \"sccBytes\": %llu, "
            "\"model\": \"%s\", \"cycles\": %llu",
            point.cpusPerCluster,
            (unsigned long long)point.sccBytes,
            r.requests ? "cycle" : "analytic",
            (unsigned long long)r.cycles);
        if (r.requests) {
            put(", \"requests\": %llu, \"latencyP50\": %.0f, "
                "\"latencyP95\": %.0f, \"latencyP99\": %.0f, "
                "\"throughputPerKcycle\": %.3f",
                (unsigned long long)r.requests, r.latencyP50,
                r.latencyP95, r.latencyP99, r.throughput);
        }
        put("}%s\n",
            i + 1 < server.perPoint.size() ? "," : "");
    }
    put("    ]\n  }\n}\n");
    std::fclose(file);
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    server::ServerParams serverParams;
    serverParams.requests = options.config.getIntAs<std::uint64_t>(
        "server-requests", 250'000);
    serverParams.offeredLoad =
        options.config.getDouble("server-load", 0.70);
    std::string serverResults = options.config.getString(
        "server-results", "twospeed_server.jsonl");
    std::string jsonPath = options.config.getString("json", "");
    options.config.rejectUnread();

    std::vector<GridReport> grids = {
        measureGrid("fig2", "barnes",
                    bench::barnesFactory(options), options),
        measureGrid("fig3", "mp3d", bench::mp3dFactory(options),
                    options),
    };

    std::printf("Two-speed exploration (%s scale, %zu-point "
                "grids)\n\n",
                bench::scaleName(options.scale), grids[0].points);
    std::printf("%6s %9s %10s %9s %10s %9s %9s %6s\n", "grid",
                "cycle ms", "profile ms", "eval ms", "x(eval)",
                "x(total)", "hybrid ms", "top3");
    for (const GridReport &g : grids) {
        std::printf("%6s %9.1f %10.1f %9.3f %10.0f %9.1f %9.1f "
                    "%6s\n",
                    g.figure.c_str(), g.cycleMs, g.profileMs,
                    g.analyticEvalMs, g.speedupEval(),
                    g.speedupWithProfile(), g.hybridMs,
                    g.top3Match ? "match" : "DIFF");
    }
    std::printf("\nx(eval): cycle grid vs analytic evaluation "
                "alone — the marginal cost of screening this grid "
                "once the workload's profile exists.\nx(total): "
                "the whole profiling pass charged to this single "
                "grid (it is reusable across grids).\n");

    std::vector<GoldenReport> golden = measureGolden();
    std::printf("\n%-9s %5s %7s %10s %10s %7s\n", "golden",
                "procs", "scc", "cycle", "analytic", "err");
    for (const GoldenReport &g : golden) {
        std::printf("%-9s %5d %6lluK %10.5f %10.5f %+6.1f%%\n",
                    g.workload.c_str(), g.cpusPerCluster,
                    (unsigned long long)(g.sccBytes >> 10),
                    g.missCycle, g.missAnalytic,
                    100.0 * g.relError());
    }

    ServerReport server =
        measureServer(options, serverParams, serverResults);
    std::printf("\nserver hybrid sweep: %zu points, %zu-point "
                "frontier replayed %llu requests in %.1f s\n",
                server.points, server.frontier,
                (unsigned long long)server.requestsReplayed,
                server.wallMs / 1000.0);
    for (const DesignPoint &point : server.perPoint) {
        const RunResult &r = point.result;
        if (!r.requests)
            continue;
        std::printf("  p%d %4s: p50 %.0f  p95 %.0f  p99 %.0f  "
                    "%.3f req/kc\n",
                    point.cpusPerCluster,
                    sizeString(point.sccBytes).c_str(),
                    r.latencyP50, r.latencyP95, r.latencyP99,
                    r.throughput);
    }

    if (!jsonPath.empty()) {
        writeJson(jsonPath, grids, golden, server,
                  bench::scaleName(options.scale), options.sweep.jobs);
    }
    return 0;
}
