/**
 * @file
 * The paper's central architectural argument, measured head to
 * head: shared cluster caches vs conventional private
 * per-processor caches on the snoopy bus (Section 2.1's two
 * alternatives).
 *
 * With the shared organization only the four SCCs snoop, so
 * invalidation traffic tracks the cluster count no matter how many
 * processors each cluster holds. With private caches every
 * processor snoops, and — as the paper says of MP3D — "adding more
 * processors directly to the shared bus typically increases the
 * invalidation traffic". Each private cache here is as large as
 * the whole SCC would have been, so the comparison isolates
 * coherence behaviour from capacity.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    options.config.rejectUnread();

    struct WorkloadSpec
    {
        std::string name;
        DesignSpace::WorkloadFactory factory;
    };
    WorkloadSpec workloads[] = {
        {"Barnes-Hut", bench::barnesFactory(options)},
        {"MP3D", bench::mp3dFactory(options)},
    };

    for (auto &workload : workloads) {
        Table table("Organization ablation: " + workload.name +
                    " (4 clusters, 64KB per cache)");
        table.setHeader({"Total procs", "Shared invals",
                         "Private invals", "Shared cycles",
                         "Private cycles"});

        for (int procs : {1, 2, 4, 8}) {
            MachineConfig shared;
            shared.cpusPerCluster = procs;
            shared.scc.sizeBytes = 64 << 10;
            auto sharedWorkload = workload.factory();
            auto sharedResult =
                runParallel(shared, *sharedWorkload);

            MachineConfig priv = shared;
            priv.organization =
                ClusterOrganization::PrivateCaches;
            auto privWorkload = workload.factory();
            auto privResult = runParallel(priv, *privWorkload);

            table.addRow(
                {Table::cell((std::uint64_t)(4 * procs)),
                 Table::cell(sharedResult.invalidations),
                 Table::cell(privResult.invalidations),
                 Table::cell(sharedResult.cycles),
                 Table::cell(privResult.cycles)});
        }
        bench::emit(table, options);
    }
    std::cout << "\nexpected shape: the shared column stays flat "
                 "as processors are added to the\nclusters; the "
                 "private column grows with the processor count.\n";
    return 0;
}
