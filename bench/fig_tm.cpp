/**
 * @file
 * Transactional-memory study: what does speculating past locks buy
 * on the shared-cache machine?
 *
 * Runs the STAMP-character workloads (src/workloads/tm) through
 * SweepExecutor::runStudy over {off, eager, lazy} × {atomic, split}
 * × speculative set sizes. --tm=off executes the very same
 * transaction call sites as plain lock/unlock critical sections,
 * so its rows are the lock baseline the speedups are measured
 * against. Each TM row reports execution time, the measured abort
 * rate (aborts / attempts), fallback-lock acquisitions, and the
 * speedup over the same fabric's lock baseline. The smallest set
 * size is deliberately below the kmeans footprint: its rows show
 * capacity aborts cascading into the fallback lock while the run
 * still completes and verifies — the forward-progress guarantee.
 *
 * Extra flags on top of bench_common:
 *   --set-entries=LIST  speculative set sizes (default 2,64)
 */

#include <iostream>

#include "bench_common.hh"
#include "workloads/tm/tm_workloads.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    sweep::SweepExecutor executor(bench::sweepOptions(options));

    const std::vector<TmMode> modes = {TmMode::Off, TmMode::Eager,
                                       TmMode::Lazy};
    const std::vector<NetTopology> topologies = {
        NetTopology::Atomic, NetTopology::Split};
    std::vector<int> setSizes =
        options.config.getIntList("set-entries", {2, 64}, 1);
    options.config.rejectUnread();

    MachineConfig base;
    base.numClusters = 4;
    base.cpusPerCluster = 4;
    base.scc.sizeBytes = 64 << 10;

    tmwork::TmKmeansParams kmeans;
    tmwork::TmVacationParams vacation;
    switch (options.scale) {
      case bench::Scale::Quick:
        kmeans.points = 1024;
        kmeans.rounds = 2;
        vacation.txnsPerThread = 128;
        break;
      case bench::Scale::Default:
        break;  // the workloads' defaults
      case bench::Scale::Full:
        kmeans.points = 8192;
        kmeans.rounds = 4;
        vacation.txnsPerThread = 1024;
        break;
    }

    struct Study
    {
        const char *name;
        DesignSpace::WorkloadFactory factory;
    };
    const Study studies[] = {
        {"kmeans",
         [kmeans] {
             return std::make_unique<tmwork::TmKmeansWorkload>(
                 kmeans);
         }},
        {"vacation",
         [vacation] {
             return std::make_unique<tmwork::TmVacationWorkload>(
                 vacation);
         }},
    };

    // Set size only exists when a conflict manager does: the
    // --tm=off points of one fabric share a key, so the study runs
    // each lock baseline once.
    std::vector<MachineConfig> configs;
    for (TmMode mode : modes) {
        for (NetTopology topology : topologies) {
            for (int entries : setSizes) {
                MachineConfig config = base;
                config.tm.mode = mode;
                config.tm.setEntries = entries;
                config.net.topology = topology;
                configs.push_back(config);
            }
        }
    }

    for (const Study &study : studies) {
        auto points = executor.runStudy(study.factory, configs,
                                        {"net", "tm", "tmEntries"});

        Table table(std::string("TM: ") + study.name +
                    " 4x4, 64KB SCC (speedup vs the --tm=off lock "
                    "baseline on the same fabric)");
        table.setHeader({"Fabric", "Manager", "Set", "Cycles",
                         "Commits", "Abort rate", "Fallbacks",
                         "Speedup"});
        for (const DesignPoint &p : points) {
            const MachineConfig &c = p.config;
            const char *fabric = nameOf(c.net.topology);
            if (c.tm.mode == TmMode::Off) {
                table.addRow({fabric, "lock", "-",
                              Table::cell(p.result.cycles), "-", "-",
                              "-", Table::cell(1.0, 3)});
                continue;
            }
            const RunResult &lock = bench::studyResult(
                points, [&](const MachineConfig &other) {
                    return other.tm.mode == TmMode::Off &&
                           other.net.topology == c.net.topology;
                });
            table.addRow(
                {fabric, nameOf(c.tm.mode),
                 Table::cell((std::uint64_t)c.tm.setEntries),
                 Table::cell(p.result.cycles),
                 Table::cell(p.result.tmCommits),
                 Table::cell(p.result.tmAbortRate, 3),
                 Table::cell(p.result.tmFallbacks),
                 Table::cell((double)lock.cycles /
                                 (double)p.result.cycles,
                             3)});
        }
        bench::emit(table, options);
    }
    return 0;
}
