/**
 * @file
 * Consistency study: how much latency does sequential consistency
 * leave on the table?
 *
 * The paper's machine is sequentially consistent: every store holds
 * its processor until the bus transaction completes. This figure
 * runs SPLASH points over {sc, weak} × {atomic, split} × {rr,
 * priority} through SweepExecutor::runStudy — under weak
 * ordering stores retire into a per-CPU store buffer (src/mem/
 * store_buffer) and drain lazily, so the processor only ever waits
 * for stores at synchronization — and reports execution time plus
 * the weak/sc speedup per fabric. Arbitration only matters on the
 * split bus, so the atomic rows are computed once.
 *
 * Extra flags on top of bench_common:
 *   --sb-entries=N       store-buffer capacity per CPU (default 8)
 *   --bus-occupancy=N    data-transfer occupancy (default 8; the
 *                        paper's near-zero default would leave no
 *                        store latency worth hiding)
 */

#include <iostream>

#include "bench_common.hh"
#include "core/design_fields.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    sweep::SweepExecutor executor(bench::sweepOptions(options));

    const std::vector<ConsistencyModel> models = {
        ConsistencyModel::Sc, ConsistencyModel::Weak};
    const std::vector<NetTopology> topologies = {
        NetTopology::Atomic, NetTopology::Split};
    const std::vector<NetArbitration> arbitrations = {
        NetArbitration::RoundRobin, NetArbitration::Priority};

    MachineConfig base;
    base.numClusters = 4;
    base.cpusPerCluster = 4;
    base.scc.sizeBytes = 64 << 10;
    // Store latency is what weak ordering hides, so give transfers
    // a realistic occupancy (as fig_net_scaling does) instead of
    // the paper's near-zero default.
    base.bus.transferOccupancy = 8;
    readFlags(options.config, base, {"sb-entries", "bus-occupancy"});
    options.config.rejectUnread();

    struct Study
    {
        const char *name;
        DesignSpace::WorkloadFactory factory;
    };
    const Study studies[] = {
        {"Barnes", bench::barnesFactory(options)},
        {"MP3D", bench::mp3dFactory(options)},
    };

    // Arbitration only exists on the split bus: the atomic bus's
    // rr and priority points share a key, so the study runs that
    // point once.
    std::vector<MachineConfig> configs;
    for (ConsistencyModel model : models) {
        for (NetTopology topology : topologies) {
            for (NetArbitration arbitration : arbitrations) {
                MachineConfig config = base;
                config.consistency.model = model;
                config.net.topology = topology;
                config.net.arbitration = arbitration;
                configs.push_back(config);
            }
        }
    }

    for (const Study &study : studies) {
        auto points = executor.runStudy(study.factory, configs,
                                        {"net", "consistency"});

        Table time(std::string("Consistency: execution time "
                               "(cycles), ") +
                   study.name + " 4x4, 64KB SCC");
        time.setHeader(
            {"Fabric", "sc", "weak", "weak speedup", "bus util sc"});
        // One row per fabric the study ran, from its sc point.
        for (const DesignPoint &sc : points) {
            const NetParams &net = sc.config.net;
            if (sc.config.consistency.model != ConsistencyModel::Sc)
                continue;
            const RunResult &weak = bench::studyResult(
                points, [&](const MachineConfig &c) {
                    return c.consistency.model ==
                               ConsistencyModel::Weak &&
                           c.net.topology == net.topology &&
                           c.net.arbitration == net.arbitration;
                });
            std::string fabric = nameOf(net.topology);
            if (net.topology == NetTopology::Split)
                fabric += std::string("/") +
                          nameOf(net.arbitration);
            time.addRow({fabric, Table::cell(sc.result.cycles),
                         Table::cell(weak.cycles),
                         Table::cell((double)sc.result.cycles /
                                         (double)weak.cycles,
                                     3),
                         Table::cell(sc.result.busUtilization, 4)});
        }
        bench::emit(time, options);
    }
    return 0;
}
