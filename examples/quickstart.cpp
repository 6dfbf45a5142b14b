/**
 * @file
 * Quickstart: simulate one design point and print its metrics.
 *
 * Builds the paper's base machine — four clusters, two processors
 * per cluster sharing a 32 KB SCC — runs Barnes-Hut on it, and
 * reports execution time, miss rates and coherence traffic.
 *
 * Usage:
 *   quickstart [--procs=N] [--scc=SIZE] [--bodies=N] [--steps=N]
 *              [--stats]   (dump the full statistics tree)
 */

#include <cstdio>
#include <iostream>

#include "core/design_space.hh"
#include "core/parallel_run.hh"
#include "sim/config.hh"
#include "workloads/splash/barnes.hh"

int
main(int argc, char **argv)
{
    scmp::Config config;
    config.parseArgs(argc, argv);

    scmp::MachineConfig machine;
    machine.numClusters = config.getIntAs<int>("clusters", 4);
    machine.cpusPerCluster = config.getIntAs<int>("procs", 2);
    machine.scc.sizeBytes = config.getSize("scc", 32 << 10);

    scmp::splash::BarnesParams params;
    params.nbodies = config.getIntAs<int>("bodies", 1024);
    params.steps = config.getIntAs<int>("steps", 4);
    params.theta = config.getDouble("theta", params.theta);
    params.dt = config.getDouble("dt", params.dt);
    params.chunkBodies = config.getIntAs<int>("chunk", params.chunkBodies);

    scmp::splash::Barnes barnes(params);
    bool dumpStats = config.getBool("stats", false);
    config.rejectUnread();
    scmp::RunResult result = scmp::runParallel(
        machine, barnes, nullptr,
        dumpStats ? &std::cout : nullptr);

    std::printf("workload            %s\n", barnes.name().c_str());
    std::printf("machine             %d clusters x %d procs, %s SCC\n",
                machine.numClusters, machine.cpusPerCluster,
                scmp::sizeString(machine.scc.sizeBytes).c_str());
    std::printf("execution time      %llu cycles\n",
                (unsigned long long)result.cycles);
    std::printf("instructions        %llu\n",
                (unsigned long long)result.instructions);
    std::printf("data references     %llu\n",
                (unsigned long long)result.references);
    std::printf("read miss rate      %.2f%%\n",
                100.0 * result.readMissRate);
    std::printf("invalidations       %llu\n",
                (unsigned long long)result.invalidations);
    std::printf("bus transactions    %llu\n",
                (unsigned long long)result.busTransactions);
    std::printf("bus utilization     %.1f%%\n",
                100.0 * result.busUtilization);
    std::printf("verified            %s\n",
                result.verified ? "yes" : "NO");
    return result.verified ? 0 : 1;
}
