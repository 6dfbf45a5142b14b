/**
 * @file
 * Compute-server scenario driver: sweep the design grid under an
 * open-loop request stream (src/workloads/server) and report the
 * latency distribution per design point.
 *
 * Each design point replays the same Poisson-arrival request
 * stream — mixed SPEC-kernel request classes, request i pinned to
 * processor i mod P — and reports p50/p95/p99 request latency and
 * sustained throughput. With --model=hybrid the reuse-distance
 * screen ranks the grid first and only the predicted frontier is
 * replayed cycle-accurately.
 *
 * With --arrival=closed the stream becomes a closed loop — one
 * client per processor, each thinking an exponential --think
 * cycles after its previous request completes — so latency
 * self-limits and the knee shows in throughput instead.
 *
 * Usage:
 *   compute_server [--procs=LIST] [--scc=LIST] [--requests=N]
 *                  [--load=X] [--arrival=open|closed] [--think=N]
 *                  [--model=cycle|analytic|hybrid]
 *                  [--topk=K] [--jobs=N|auto] [--results=FILE]
 *                  [--resume] [--progress] [--csv]
 *
 * Examples:
 *   compute_server --requests=200000 --load=0.7
 *   compute_server --arrival=closed --think=300 --requests=100000
 *   compute_server --procs=2,8 --scc=32K,256K --model=hybrid \
 *                  --topk=4 --requests=250000 --results=server.jsonl
 */

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/logging.hh"
#include "sweep/sweep.hh"
#include "workloads/server/server.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;

    Config config;
    config.parseArgs(argc, argv);

    server::ServerParams params;
    params.requests =
        config.getIntAs<std::uint64_t>("requests", 100'000);
    params.offeredLoad = config.getDouble("load", 0.70);
    params.arrival = config.getEnum("arrival", params.arrival);
    params.thinkTime = config.getIntAs<Cycle>("think", 400);

    std::vector<int> procs = config.getIntList("procs", {1, 2, 4, 8}, 1);
    std::vector<std::uint64_t> sccSizes =
        config.getSizeList("scc", {32ull << 10, 128ull << 10});

    sweep::SweepOptions options;
    options.jobs = config.getString("jobs", "") == "auto"
                       ? 0
                       : (int)config.getIntIn(
                             "jobs", 1, 0,
                             std::numeric_limits<int>::max());
    options.model = config.getEnum("model", options.model);
    options.topK = (int)config.getIntIn(
        "topk", 0, 0, std::numeric_limits<int>::max());
    options.resultsPath = config.getString("results", "");
    options.resume = config.getBool("resume", false);
    options.verbose = config.getBool("progress", false);
    options.scale = "server";
    fatal_if(options.resume && options.resultsPath.empty(),
             "--resume needs --results=FILE");
    bool csv = config.getBool("csv", false);
    config.rejectUnread();
    setLogQuiet(!options.verbose);

    MachineConfig base;
    base.icache.enabled = true;

    sweep::SweepExecutor executor(options);
    DesignGrid grid = executor.run(
        [&params] {
            return std::make_unique<server::ServerWorkload>(
                params);
        },
        base, sccSizes, procs);
    const sweep::SweepRunStats &stats = executor.runStats();

    if (csv) {
        std::printf("procs,scc,model,cycles,readMissRate,requests,"
                    "latencyP50,latencyP95,latencyP99,"
                    "throughputPerKcycle\n");
    } else {
        if (params.arrival == server::ArrivalMode::Closed)
            std::printf("closed-loop server: %llu requests, mean "
                        "think %llu cycles, ",
                        (unsigned long long)params.requests,
                        (unsigned long long)params.thinkTime);
        else
            std::printf("open-loop server: %llu requests, offered "
                        "load %.2f, ",
                        (unsigned long long)params.requests,
                        params.offeredLoad);
        std::printf("model %s (%zu computed, %zu "
                    "screened, %.1f s)\n",
                    nameOf(options.model),
                    stats.computed,
                    stats.screened > stats.computed
                        ? stats.screened - stats.computed
                        : 0,
                    stats.wallMs / 1000.0);
        std::printf("%5s %8s %9s %12s %8s %9s %9s %9s %7s\n",
                    "procs", "scc", "model", "cycles", "rdMiss",
                    "p50", "p95", "p99", "req/kc");
    }
    for (const DesignPoint &point : grid.points()) {
        const RunResult &r = point.result;
        // Screened points carry no latency sample (the analytic
        // model predicts rates, not per-request queueing).
        const char *model = r.requests ? "cycle" : "analytic";
        if (csv) {
            std::printf("%d,%llu,%s,%llu,%.6f,%llu,%.0f,%.0f,"
                        "%.0f,%.3f\n",
                        point.cpusPerCluster,
                        (unsigned long long)point.sccBytes, model,
                        (unsigned long long)r.cycles,
                        r.readMissRate,
                        (unsigned long long)r.requests,
                        r.latencyP50, r.latencyP95, r.latencyP99,
                        r.throughput);
            continue;
        }
        std::printf("%5d %8s %9s %12llu %7.2f%%",
                    point.cpusPerCluster,
                    sizeString(point.sccBytes).c_str(), model,
                    (unsigned long long)r.cycles,
                    100.0 * r.readMissRate);
        if (r.requests) {
            std::printf(" %9.0f %9.0f %9.0f %7.3f\n",
                        r.latencyP50, r.latencyP95, r.latencyP99,
                        r.throughput);
        } else {
            std::printf(" %9s %9s %9s %7s\n", "-", "-", "-", "-");
        }
    }
    return 0;
}
