/**
 * @file
 * Cache-isolation study: what does closing the shared-cache side
 * channel cost on this machine?
 *
 * Two halves, both through SweepExecutor::runStudy over
 * {none, waypart, color, rand} × {2, 4} security domains at a
 * fixed 4-way 64KB SCC (4 ways so way partitioning divides).
 *
 * The price first: the paper's fig2/fig3 SPLASH workloads (barnes,
 * mp3d) run under the same partitions, and each row reports the
 * slowdown against the open cache — what the lost capacity and
 * placement freedom cost an honest workload.
 *
 * Then the channel itself: the prime+probe spy/victim pair
 * (src/workloads/sec) transmits a secret stream through SCC
 * contention, and each row reports the spy's probe accuracy and
 * the measured mutual information in bits/epoch — near the full
 * alphabet with --isolation=none, near zero under every
 * mitigation. The spy study runs LAST: each study reopens
 * --results fresh (the store convention since fig_tm), so the
 * file a user plots holds the spy records — the ones carrying
 * leakBitsPerEpoch/probeAccuracy.
 *
 * Extra flags on top of bench_common:
 *   --domains=LIST  security-domain counts (default 2,4)
 *   --json=FILE     machine-readable leakage + slowdown report
 *                   (the BENCH_PR10.json artifact)
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "workloads/sec/prime_probe.hh"

namespace
{

using namespace scmp;

struct CostReport
{
    std::string workload;
    std::vector<DesignPoint> points;
    Cycle baseline = 0;
};

/** The point's security-domain count; 0 for the open cache. */
int
domainsOf(const DesignPoint &p)
{
    const SecParams &sec = p.config.scc.sec;
    return sec.mode == IsolationMode::None ? 0 : sec.domains;
}

/** The table cell for the point's domain count. */
std::string
domainsCell(const DesignPoint &p)
{
    int domains = domainsOf(p);
    return domains ? Table::cell((std::uint64_t)domains) : "-";
}

void
writeJson(const std::string &path, const char *scale,
          const std::vector<CostReport> &costs,
          const std::vector<DesignPoint> &channel)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    fatal_if(!file, "cannot write ", path);
    auto put = [file](const char *fmt, auto... args) {
        std::fprintf(file, fmt, args...);
    };
    auto head = [&put](const DesignPoint &p) {
        put("    {\"isolation\": \"%s\", \"domains\": %d",
            nameOf(p.config.scc.sec.mode), domainsOf(p));
    };

    put("{\n  \"bench\": \"fig_sec\",\n");
    put("  \"scale\": \"%s\",\n", scale);

    put("  \"channel\": [\n");
    for (std::size_t i = 0; i < channel.size(); ++i) {
        const DesignPoint &p = channel[i];
        head(p);
        put(", \"cycles\": %llu, \"probeAccuracy\": %.4f, "
            "\"chanceAccuracy\": %.4f, \"bitsPerEpoch\": %.4f}%s\n",
            (unsigned long long)p.result.cycles,
            p.result.secProbeAccuracy, p.result.secChanceAccuracy,
            p.result.leakBitsPerEpoch,
            i + 1 < channel.size() ? "," : "");
    }
    put("  ],\n");

    put("  \"cost\": [\n");
    for (std::size_t c = 0; c < costs.size(); ++c) {
        const CostReport &cost = costs[c];
        for (std::size_t i = 0; i < cost.points.size(); ++i) {
            const DesignPoint &p = cost.points[i];
            put("    {\"workload\": \"%s\", ",
                cost.workload.c_str());
            put("\"isolation\": \"%s\", \"domains\": %d",
                nameOf(p.config.scc.sec.mode),
                domainsOf(p));
            put(", \"cycles\": %llu, \"readMissRate\": %.4f, "
                "\"slowdown\": %.4f}%s\n",
                (unsigned long long)p.result.cycles,
                p.result.readMissRate,
                (double)p.result.cycles / (double)cost.baseline,
                c + 1 < costs.size() ||
                        i + 1 < cost.points.size()
                    ? ","
                    : "");
        }
    }
    put("  ]\n}\n");
    std::fclose(file);
    std::cout << "wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    auto options = bench::parseBenchArgs(argc, argv);
    sweep::SweepExecutor executor(bench::sweepOptions(options));

    const std::vector<IsolationMode> modes = {
        IsolationMode::None,
        IsolationMode::WayPart,
        IsolationMode::Color,
        IsolationMode::Rand,
    };
    std::vector<int> domainCounts =
        options.config.getIntList("domains", {2, 4}, 2);
    std::string jsonPath = options.config.getString("json", "");
    options.config.rejectUnread();

    MachineConfig base;
    base.numClusters = 4;
    base.cpusPerCluster = 4;
    base.scc.sizeBytes = 64 << 10;
    base.scc.assoc = 4;

    int epochs = 96;
    const char *scaleName = "default";
    switch (options.scale) {
      case bench::Scale::Quick:
        epochs = 32;
        scaleName = "quick";
        break;
      case bench::Scale::Default:
        break;
      case bench::Scale::Full:
        epochs = 256;
        scaleName = "full";
        break;
    }

    // Domains only exist when a mitigation does: the
    // --isolation=none points share a key, so each study runs the
    // open-cache baseline once.
    std::vector<MachineConfig> configs;
    for (IsolationMode mode : modes) {
        for (int domains : domainCounts) {
            MachineConfig config = base;
            config.scc.sec.mode = mode;
            config.scc.sec.domains = domains;
            configs.push_back(config);
        }
    }
    const std::vector<std::string> axes = {"isolation",
                                           "isolationDomains"};

    // ----------------------------------------------------------
    // The price: SPLASH slowdown per mitigation.
    // ----------------------------------------------------------
    struct Study
    {
        const char *name;
        DesignSpace::WorkloadFactory factory;
    };
    const Study studies[] = {
        {"barnes", bench::barnesFactory(options)},
        {"mp3d", bench::mp3dFactory(options)},
    };

    std::vector<CostReport> costs;
    for (const Study &study : studies) {
        CostReport cost;
        cost.workload = study.name;
        cost.points =
            executor.runStudy(study.factory, configs, axes);
        auto open = [](const MachineConfig &c) {
            return c.scc.sec.mode == IsolationMode::None;
        };
        cost.baseline = bench::studyResult(cost.points, open).cycles;

        Table table(std::string("Isolation cost: ") + study.name +
                    " 4x4, 64KB 4-way SCC (slowdown vs the open "
                    "--isolation=none cache)");
        table.setHeader({"Isolation", "Domains", "Cycles",
                         "Read miss", "Slowdown"});
        for (const DesignPoint &p : cost.points) {
            table.addRow(
                {nameOf(p.config.scc.sec.mode),
                 domainsCell(p), Table::cell(p.result.cycles),
                 Table::cell(p.result.readMissRate, 4),
                 Table::cell((double)p.result.cycles /
                                 (double)cost.baseline,
                             3)});
        }
        bench::emit(table, options);
        costs.push_back(std::move(cost));
    }

    // ----------------------------------------------------------
    // The channel: leakage per mitigation (see file comment for
    // why this study runs last).
    // ----------------------------------------------------------
    secwork::PrimeProbeParams spyParams =
        secwork::paramsFor(base, epochs, /*symbols=*/8);
    auto spyFactory = [spyParams] {
        return std::make_unique<secwork::PrimeProbeWorkload>(
            spyParams);
    };
    auto channel = executor.runStudy(spyFactory, configs, axes);

    Table table("Side channel: prime+probe 4x4, 64KB 4-way "
                "SCC (8-symbol secret, differential probe "
                "decoder)");
    table.setHeader({"Isolation", "Domains", "Cycles",
                     "Accuracy", "Chance", "Bits/epoch"});
    for (const DesignPoint &p : channel) {
        table.addRow(
            {nameOf(p.config.scc.sec.mode), domainsCell(p),
             Table::cell(p.result.cycles),
             Table::cell(p.result.secProbeAccuracy, 3),
             Table::cell(p.result.secChanceAccuracy, 3),
             Table::cell(p.result.leakBitsPerEpoch, 3)});
    }
    bench::emit(table, options);

    if (!jsonPath.empty())
        writeJson(jsonPath, scaleName, costs, channel);
    return 0;
}
