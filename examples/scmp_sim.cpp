/**
 * @file
 * scmp_sim — the unified command-line driver.
 *
 * Runs any workload on any machine configuration the library
 * supports, entirely from flags, and reports the standard metric
 * block (optionally the full statistics tree or CSV). This is the
 * binary a downstream user scripts sweeps with.
 *
 * Usage:
 *   scmp_sim <barnes|mp3d|cholesky|multiprog|fuzz
 *             |tmkmeans|tmvacation|secpp>
 *     [machine flags] [--check] [--stats] [--csv]
 *     [--obs[=FILE]] [--obs-interval=N] [--obs-series=FILE]
 *     [--obs-sec-sets=N]
 *   (multiprog and fuzz print no statistics and refuse --stats)
 *   scmp_sim --list
 *     workload knobs:
 *       barnes:   [--bodies=N] [--steps=N] [--theta=X]
 *       mp3d:     [--particles=N] [--steps=N]
 *       cholesky: [--grid-rows=N] [--grid-cols=N]
 *       multiprog:[--refs=N] [--quantum=N]
 *       tmkmeans: [--points=N] [--centroids=N] [--rounds=N]
 *       tmvacation: [--resources=N] [--capacity=N] [--txns=N]
 *                 [--query-range=N]
 *       secpp:    [--sec-epochs=N] [--sec-symbols=N]
 *       fuzz:     [--seed=N] [--fuzz-steps=N] [--hot-lines=N]
 *                 [--private-lines=N] [--write-frac=X]
 *                 [--shared-frac=X] [--false-share-frac=X]
 *                 [--fence-frac=X] [--txn-frac=X] [--txn-len=N]
 *
 * The machine flags are the flagged rows of the design-field table
 * (core/design_fields.cc); a usage error lists them, and --list
 * names each enum flag's values.
 *
 * --check attaches the coherence checker (src/check): a golden
 * functional memory verifies every load, and tag-array invariant
 * sweeps catch protocol violations as they happen. The fuzz mode
 * drives randomized sharing/false-sharing/eviction traffic at the
 * machine and prints its seed so failures replay with --seed=N.
 *
 * Any of --obs, --obs-series and --obs-interval attaches the
 * observability recorder (src/obs; obs::fromFlags reads them): a
 * Chrome trace_event timeline (load the file in chrome://tracing or
 * Perfetto), interval metrics (--obs-series CSV), and a per-phase
 * cycle-attribution table keyed on barrier epochs. Unknown flags
 * are an error: every flag must be one the selected workload or the
 * machine model understands.
 *
 * Examples:
 *   scmp_sim barnes --procs=8 --scc=128K
 *   scmp_sim mp3d --protocol=update --stats
 *   scmp_sim multiprog --procs=4 --scc=64K --refs=2000000
 *   scmp_sim fuzz --check --seed=7 --procs=4 --protocol=update
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "check/checker.hh"
#include "check/traffic.hh"
#include "core/design_fields.hh"
#include "core/parallel_run.hh"
#include "multiprog/scheduler.hh"
#include "sim/config.hh"
#include "workloads/spec/spec_app.hh"
#include "workloads/splash/barnes.hh"
#include "workloads/splash/cholesky.hh"
#include "workloads/splash/mp3d.hh"
#include "workloads/sec/prime_probe.hh"
#include "workloads/tm/tm_workloads.hh"

namespace
{

using namespace scmp;

/** Attach what --check and the --obs flags ask for to @p machine. */
void
instrumentFromFlags(const Config &config, MachineConfig &machine)
{
    machine.checkCoherence = config.getBool("check", false);

    // Observability (src/obs): --obs, --obs-series and
    // --obs-interval through the one reader, plus the side-channel
    // study's per-set gauges, which also turn the recorder on.
    machine.obs = obs::fromFlags(config);
    if (config.has("obs-sec-sets")) {
        machine.obs.enabled = true;
        machine.obs.secSets = config.getIntAs<int>("obs-sec-sets", 0);
        if (machine.obs.intervalCycles == 0)
            machine.obs.intervalCycles = obs::defaultObsInterval;
    }
    machine.obs.printPhases =
        machine.obs.enabled && !config.getBool("csv", false);
}

/**
 * The machine the flags describe: the design-point flags through
 * the design-field table, then the instrumentation flags.
 */
MachineConfig
machineFromFlags(const Config &config)
{
    MachineConfig machine;
    readFlags(config, machine);
    instrumentFromFlags(config, machine);
    return machine;
}

/** The workloads, in --list order. */
const struct
{
    const char *name;
    const char *help;
} workloads[] = {
    {"barnes", "SPLASH Barnes-Hut N-body (octree gravity)"},
    {"mp3d", "SPLASH MP3D rarefied-flow particle simulation"},
    {"cholesky", "SPLASH sparse Cholesky factorization"},
    {"multiprog", "multiprogrammed SPEC-like apps, round-robin "
                  "scheduled"},
    {"tmkmeans", "STAMP-kmeans-like clustering, transactional "
                 "accumulators"},
    {"tmvacation", "STAMP-vacation-like reservations, "
                   "all-or-nothing bookings"},
    {"secpp", "prime+probe spy/victim pair, reports leakage "
              "bits/epoch"},
    {"fuzz", "randomized coherence traffic (pairs with --check)"},
};

void
printUsage(std::FILE *out)
{
    std::fprintf(out, "usage: scmp_sim <");
    for (const auto &workload : workloads) {
        std::fprintf(out, "%s%s", &workload == workloads ? "" : "|",
                     workload.name);
    }
    std::fprintf(out, "> [flags]\n"
                      "       scmp_sim --list\n"
                      "machine flags:");
    for (const DesignField &field : designFields) {
        if (field.flag)
            std::fprintf(out, " --%s", field.flag);
    }
    std::fprintf(out, "\nsee the file header for the other flags\n");
}

/**
 * One --list row: the name, then @p help at column 13, where each
 * '\n' in @p help starts a continuation line.
 */
void
printRow(const char *name, const char *help)
{
    std::printf("  %-10s ", name);
    for (const char *c = help; *c; ++c) {
        std::putchar(*c);
        if (*c == '\n')
            std::printf("%13s", "");
    }
    std::putchar('\n');
}

/** A --list section: every canonical name of @p Enum, then @p note. */
template <class Enum>
void
printSection(const char *title, const char *note = nullptr)
{
    std::printf("%s:\n", title);
    for (const NameRow<Enum> &row : nameTable(Enum{})) {
        if (isCanonical(row))
            printRow(row.name, row.help);
    }
    if (note)
        printRow("", note);
}

int
printList()
{
    std::printf("workloads:\n");
    for (const auto &workload : workloads)
        printRow(workload.name, workload.help);
    printSection<CoherenceProtocol>("protocols");
    printSection<ClusterOrganization>("organizations");
    printSection<NetTopology>("interconnects (--net)");
    printSection<MemBackendKind>("memory backends (--mem)");
    printSection<ConsistencyModel>(
        "consistency models (--consistency)");
    printSection<TmMode>(
        "transactional memory (--tm)",
        "(--tm-set-entries=N bounds each read/write set — capacity\n"
        "aborts past it; --tm-max-aborts=N retries before the\n"
        "fallback lock)");
    printSection<IsolationMode>(
        "isolation modes (--isolation)",
        "(domains = --isolation-domains=N; processor p is in domain\n"
        "p % N; requires --organization=shared)");
    return 0;
}

check::TrafficParams
fuzzParams(const Config &config, const MachineConfig &machineConfig)
{
    check::TrafficParams params;
    params.seed = config.getIntAs<std::uint64_t>("seed", 1);
    params.steps =
        config.getIntAs<std::uint64_t>("fuzz-steps", 200'000);
    params.totalCpus = machineConfig.totalCpus();
    params.lineBytes = machineConfig.scc.lineBytes;
    params.hotLines = config.getIntAs<int>("hot-lines", 16);
    params.privateLines =
        config.getIntAs<int>("private-lines", 512);
    params.writeFraction =
        config.getDouble("write-frac", params.writeFraction);
    params.sharedFraction =
        config.getDouble("shared-frac", params.sharedFraction);
    params.falseShareFraction = config.getDouble(
        "false-share-frac", params.falseShareFraction);
    // Weak ordering defaults to a sprinkle of random fences so the
    // fuzz stream exercises drain-on-fence; explicit --fence-frac
    // overrides, and sequential consistency keeps 0 so existing
    // seeds replay untouched.
    params.fenceFraction = config.getDouble(
        "fence-frac",
        machineConfig.consistency.model == ConsistencyModel::Weak
            ? 0.02
            : 0.0);
    // A TM machine defaults to a sprinkle of random transactions,
    // mirroring the weak-ordering fence default: explicit
    // --txn-frac overrides, and --tm=off keeps 0 so existing seeds
    // replay untouched.
    params.txnFraction = config.getDouble(
        "txn-frac",
        machineConfig.tm.mode != TmMode::Off ? 0.05 : 0.0);
    params.txnLength = config.getIntAs<int>("txn-len", 8);
    fatal_if(params.txnFraction > 0 &&
                 machineConfig.tm.mode == TmMode::Off,
             "--txn-frac needs --tm=eager or --tm=lazy");
    return params;
}

int
runFuzz(const check::TrafficParams &params,
        const MachineConfig &machineConfig, bool csv)
{
    Machine machine(machineConfig);
    check::TrafficGen gen(params);
    check::TrafficStats traffic = gen.run(machine);

    std::uint64_t checks = machine.checking()
                               ? machine.checker()->checksPerformed()
                               : 0;
    if (csv) {
        std::printf("seed,steps,reads,writes,shared,falseShare,"
                    "private,txns,txnCommits,txnAborts,checks\n");
        std::printf(
            "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
            "%llu\n",
            (unsigned long long)params.seed,
            (unsigned long long)params.steps,
            (unsigned long long)traffic.reads,
            (unsigned long long)traffic.writes,
            (unsigned long long)traffic.sharedRefs,
            (unsigned long long)traffic.falseShareRefs,
            (unsigned long long)traffic.privateRefs,
            (unsigned long long)traffic.txns,
            (unsigned long long)traffic.txnCommits,
            (unsigned long long)traffic.txnAborts,
            (unsigned long long)checks);
        return 0;
    }
    std::printf("fuzz seed           %llu\n",
                (unsigned long long)params.seed);
    std::printf("references          %llu (%llu writes)\n",
                (unsigned long long)params.steps,
                (unsigned long long)traffic.writes);
    std::printf("shared/false/priv   %llu / %llu / %llu\n",
                (unsigned long long)traffic.sharedRefs,
                (unsigned long long)traffic.falseShareRefs,
                (unsigned long long)traffic.privateRefs);
    std::printf("read miss rate      %.2f%%\n",
                100.0 * machine.readMissRate());
    if (traffic.txns) {
        std::printf("transactions        %llu (%llu committed, "
                    "%llu aborted)\n",
                    (unsigned long long)traffic.txns,
                    (unsigned long long)traffic.txnCommits,
                    (unsigned long long)traffic.txnAborts);
    }
    std::printf("checks performed    %llu\n",
                (unsigned long long)checks);
    return 0;
}

void
printMetrics(const char *workload, const MachineConfig &machine,
             Cycle cycles, std::uint64_t refs, double readMiss,
             std::uint64_t invalidations, bool verified, bool csv)
{
    if (csv) {
        std::printf("workload,clusters,procs,scc,cycles,refs,"
                    "readMissRate,invalidations,verified\n");
        std::printf("%s,%d,%d,%s,%llu,%llu,%.6f,%llu,%d\n",
                    workload, machine.numClusters,
                    machine.cpusPerCluster,
                    sizeString(machine.scc.sizeBytes).c_str(),
                    (unsigned long long)cycles,
                    (unsigned long long)refs, readMiss,
                    (unsigned long long)invalidations,
                    verified ? 1 : 0);
        return;
    }
    std::printf("workload            %s\n", workload);
    std::printf("machine             %d clusters x %d procs, %s\n",
                machine.numClusters, machine.cpusPerCluster,
                sizeString(machine.scc.sizeBytes).c_str());
    std::printf("execution time      %llu cycles\n",
                (unsigned long long)cycles);
    std::printf("data references     %llu\n",
                (unsigned long long)refs);
    std::printf("read miss rate      %.2f%%\n", 100.0 * readMiss);
    std::printf("invalidations       %llu\n",
                (unsigned long long)invalidations);
    std::printf("verified            %s\n",
                verified ? "yes" : "NO");
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    // scmp's one machine default off the library's: two processors
    // per cluster.
    config.set("procs", std::int64_t{2});
    auto positional = config.parseArgs(argc, argv);
    if (config.getBool("list", false))
        return printList();
    if (positional.empty()) {
        printUsage(stderr);
        return 2;
    }
    std::string which = positional[0];
    if (std::none_of(std::begin(workloads), std::end(workloads),
                     [&](const auto &w) { return which == w.name; })) {
        std::fprintf(stderr, "scmp_sim: unknown workload '%s'\n",
                     which.c_str());
        printUsage(stderr);
        return 2;
    }

    MachineConfig machine = machineFromFlags(config);
    bool csv = config.getBool("csv", false);

    // Every branch reads its workload's flags, then rejects any flag
    // nothing read before simulating: a typo silently ignored is a
    // sweep quietly running the wrong configuration.
    if (which == "fuzz") {
        check::TrafficParams params = fuzzParams(config, machine);
        config.rejectUnread();
        return runFuzz(params, machine, csv);
    }

    if (which == "multiprog") {
        MultiprogParams params;
        params.totalRefs =
            config.getIntAs<std::uint64_t>("refs", 4'000'000);
        params.quantum =
            config.getIntAs<Cycle>("quantum", 5'000'000);
        config.rejectUnread();
        auto result = runMultiprog(
            machine, spec::makeSpecWorkload(), params);
        printMetrics("multiprog", machine, result.cycles,
                     result.references, result.readMissRate,
                     result.invalidations, result.verified, csv);
        return result.verified ? 0 : 1;
    }

    std::unique_ptr<ParallelWorkload> workload;
    if (which == "barnes") {
        splash::BarnesParams params;
        params.nbodies = config.getIntAs<int>("bodies", 1024);
        params.steps = config.getIntAs<int>("steps", 4);
        params.theta = config.getDouble("theta", params.theta);
        workload = std::make_unique<splash::Barnes>(params);
    } else if (which == "mp3d") {
        splash::Mp3dParams params;
        params.nparticles =
            config.getIntAs<int>("particles", 10000);
        params.steps = config.getIntAs<int>("steps", 5);
        workload = std::make_unique<splash::Mp3d>(params);
    } else if (which == "cholesky") {
        splash::CholeskyParams params;
        params.gridRows = config.getIntAs<int>("grid-rows", 42);
        params.gridCols = config.getIntAs<int>("grid-cols", 43);
        workload = std::make_unique<splash::Cholesky>(params);
    } else if (which == "tmkmeans") {
        tmwork::TmKmeansParams params;
        params.points = config.getIntAs<int>("points", 2048);
        params.clusters = config.getIntAs<int>("centroids", 8);
        params.rounds = config.getIntAs<int>("rounds", 3);
        workload =
            std::make_unique<tmwork::TmKmeansWorkload>(params);
    } else if (which == "tmvacation") {
        tmwork::TmVacationParams params;
        params.resources = config.getIntAs<int>("resources", 64);
        params.capacity = config.getIntAs<int>("capacity", 16);
        params.txnsPerThread = config.getIntAs<int>("txns", 256);
        params.queryRange = config.getIntAs<int>("query-range", 4);
        workload =
            std::make_unique<tmwork::TmVacationWorkload>(params);
    } else {
        secwork::PrimeProbeParams params = secwork::paramsFor(
            machine, config.getIntAs<int>("sec-epochs", 96),
            config.getIntAs<int>("sec-symbols", 8));
        workload =
            std::make_unique<secwork::PrimeProbeWorkload>(params);
    }
    // Only this branch dumps statistics, so only it reads --stats.
    bool stats = config.getBool("stats", false);
    config.rejectUnread();

    auto result = runParallel(machine, *workload, nullptr,
                              stats ? &std::cout : nullptr);
    printMetrics(which.c_str(), machine, result.cycles,
                 result.references, result.readMissRate,
                 result.invalidations, result.verified, csv);
    if (result.secEpochs && !csv) {
        std::printf("probe accuracy      %.3f (chance %.3f)\n",
                    result.secProbeAccuracy,
                    result.secChanceAccuracy);
        std::printf("leakage             %.3f bits/epoch over "
                    "%llu epochs\n",
                    result.leakBitsPerEpoch,
                    (unsigned long long)result.secEpochs);
    }
    return result.verified ? 0 : 1;
}
