/**
 * @file
 * Interconnect scaling study: clusters × topology.
 *
 * The paper stops at four clusters on one atomic snoopy bus; this
 * figure asks what happens past that. Barnes-Hut runs over
 * {1,2,4,8} clusters on each src/net fabric — the paper's atomic
 * bus, a split-transaction bus, and a hierarchical tree of leaf
 * segments behind a snoop-filter directory — and reports execution
 * time, fabric utilization, and bus transactions per point. With
 * --results the sweep lands in a ResultStore (each record tagged
 * with its clusters/net axes); with --obs-interval the per-channel
 * occupancy series ride along, which is the data behind the
 * per-topology occupancy curves scripts/sweep_plot.py renders.
 *
 * Extra flags on top of bench_common:
 *   --clusters=1,2,4,8   cluster-count axis
 *   --segments=N         tree leaf segments (default 2)
 *   --arbitration=rr|priority  split-bus discipline (default rr)
 */

#include <iostream>

#include "bench_common.hh"
#include "core/design_fields.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);

    std::vector<int> clusterCounts =
        options.config.getIntList("clusters", {1, 2, 4, 8}, 1);
    const std::vector<NetTopology> topologies = {
        NetTopology::Atomic, NetTopology::Split, NetTopology::Tree};

    MachineConfig base;
    base.cpusPerCluster = 4;
    base.scc.sizeBytes = 64 << 10;
    // The study is about fabric contention, so give transfers a
    // realistic occupancy (the paper's near-zero default would make
    // every topology look identical).
    base.bus.transferOccupancy = 8;
    readFlags(options.config, base,
              {"segments", "arbitration", "bus-occupancy"});
    options.config.rejectUnread();

    std::vector<MachineConfig> configs;
    for (NetTopology topology : topologies) {
        for (int clusters : clusterCounts) {
            MachineConfig config = base;
            config.numClusters = clusters;
            config.net.topology = topology;
            configs.push_back(config);
        }
    }
    auto points = DesignSpace::study(bench::barnesFactory(options),
                                     configs, {"clusters", "net"});

    auto pointAt = [&](NetTopology topology,
                       int clusters) -> const RunResult & {
        return bench::studyResult(
            points, [&](const MachineConfig &c) {
                return c.net.topology == topology &&
                       c.numClusters == clusters;
            });
    };

    Table time("Interconnect scaling: execution time (cycles), "
               "Barnes 4P/cluster, 64KB SCC");
    time.setHeader({"Clusters", "atomic", "split", "tree",
                    "tree/atomic"});
    Table util("Interconnect scaling: fabric utilization");
    util.setHeader({"Clusters", "atomic", "split", "tree",
                    "busTx (atomic)"});
    for (int clusters : clusterCounts) {
        const RunResult &a = pointAt(NetTopology::Atomic, clusters);
        const RunResult &s = pointAt(NetTopology::Split, clusters);
        const RunResult &t = pointAt(NetTopology::Tree, clusters);
        time.addRow({Table::cell((std::uint64_t)clusters),
                     Table::cell(a.cycles), Table::cell(s.cycles),
                     Table::cell(t.cycles),
                     Table::cell((double)t.cycles / (double)a.cycles,
                                 3)});
        util.addRow({Table::cell((std::uint64_t)clusters),
                     Table::cell(a.busUtilization, 4),
                     Table::cell(s.busUtilization, 4),
                     Table::cell(t.busUtilization, 4),
                     Table::cell(a.busTransactions)});
    }
    bench::emit(time, options);
    bench::emit(util, options);
    return 0;
}
