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
#include <sstream>
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
        (std::uint64_t)config.getInt("requests", 100'000);
    params.offeredLoad = config.getDouble("load", 0.70);
    std::string arrival = config.getString("arrival", "open");
    if (arrival == "closed")
        params.arrival = server::ArrivalMode::Closed;
    else
        fatal_if(arrival != "open",
                 "--arrival must be 'open' or 'closed' (got '",
                 arrival, "')");
    params.thinkTime = (Cycle)config.getInt("think", 400);

    std::vector<int> procs;
    {
        std::stringstream stream(
            config.getString("procs", "1,2,4,8"));
        std::string token;
        while (std::getline(stream, token, ','))
            procs.push_back(std::stoi(token));
    }
    std::vector<std::uint64_t> sccSizes;
    {
        std::stringstream stream(
            config.getString("scc", "32K,128K"));
        std::string token;
        while (std::getline(stream, token, ',')) {
            bool ok = false;
            std::uint64_t size = Config::parseSize(token, &ok);
            fatal_if(!ok, "bad size '", token, "'");
            sccSizes.push_back(size);
        }
    }

    sweep::SweepOptions options;
    std::string jobsText = config.getString("jobs", "1");
    options.jobs = jobsText == "auto" ? 0 : std::stoi(jobsText);
    options.model = sweep::parseSweepModel(
        config.getString("model", "cycle"));
    options.topK = (int)config.getIntIn(
        "topk", 0, 0, std::numeric_limits<int>::max());
    options.resultsPath = config.getString("results", "");
    options.resume = config.getBool("resume", false);
    options.verbose = config.getBool("progress", false);
    options.scale = "server";
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

    bool csv = config.getBool("csv", false);
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
                    sweep::sweepModelName(options.model),
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
