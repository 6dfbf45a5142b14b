/**
 * @file
 * check_fuzz_smoke — the fuzz matrix the CI gate runs.
 *
 * Three fixed seeds x {1,2,4,8} processors per cluster x two SCC
 * sizes, each under the coherence checker, for both protocols —
 * and the whole grid again for every interconnect topology
 * (atomic, split, tree), since the checker's oracle must hold no
 * matter which fabric orders the transactions. A plain binary (not
 * gtest) so it exercises exactly what a user's shell invocation of
 * `scmp_sim fuzz --check` would: any oracle or invariant violation
 * panics and fails the test. Fixed seeds keep the gate
 * deterministic; exploratory fuzzing with fresh seeds is
 * scripts/check_all.sh's job.
 *
 * A second pass reruns every topology x protocol with the banked
 * DRAM backend (src/dram): fills now queue on banks and channels,
 * and the tree becomes NUMA with a small bounded snoop filter, so
 * back-invalidation evictions fire constantly under random traffic
 * while the oracle watches.
 *
 * A third pass reruns every topology x protocol under weak
 * ordering (--consistency=weak): stores retire into small per-CPU
 * store buffers and drain lazily, the generator sprinkles fences,
 * and the order-tolerant oracle must verify retire-order drains,
 * read bypasses, and fence-ordered visibility the whole run.
 *
 * A fourth pass reruns every topology x protocol with hardware
 * transactional memory (--tm={eager,lazy}) at a tiny set size:
 * the generator opens randomized transactions, conflicts and
 * capacity overflows doom them mid-flight, and the oracle's
 * atomicity/isolation mirror must validate every commit's read
 * set and publication while verifying aborted speculation never
 * reached golden memory.
 *
 * A fifth pass reruns every topology x protocol with each cache-
 * isolation mitigation (--isolation={waypart,color,rand}) armed:
 * random traffic from processors in different security domains
 * fills a partitioned SCC (rand with a rekey interval small enough
 * that full rekey flushes fire mid-run), and the checker's
 * partition invariant must have walked every placement.
 */

#include <cstdio>

#include "check/checker.hh"
#include "check/traffic.hh"
#include "core/machine.hh"
#include "net/tree.hh"
#include "sim/logging.hh"

int
main()
{
    using namespace scmp;

    // Fixed seeds need no replay banner; keep the gate's output to
    // its verdict.
    setLogQuiet(true);

    const std::uint64_t seeds[] = {1, 2, 3};
    const int procs[] = {1, 2, 4, 8};
    const std::uint64_t sccSizes[] = {16ull << 10, 64ull << 10};
    const CoherenceProtocol protocols[] = {
        CoherenceProtocol::WriteInvalidate,
        CoherenceProtocol::WriteUpdate,
    };
    const NetTopology topologies[] = {
        NetTopology::Atomic,
        NetTopology::Split,
        NetTopology::Tree,
    };

    int runs = 0;
    std::uint64_t totalChecks = 0;
    for (NetTopology topology : topologies) {
        int topologyRuns = 0;
        for (std::uint64_t seed : seeds) {
            for (int p : procs) {
                for (std::uint64_t scc : sccSizes) {
                    for (CoherenceProtocol protocol : protocols) {
                        MachineConfig config;
                        // Four clusters under the tree so its two
                        // leaf segments each hold a pair of
                        // genuinely snooping caches; the flat
                        // fabrics keep the seed gate's original
                        // two-cluster shape.
                        config.numClusters =
                            topology == NetTopology::Tree ? 4 : 2;
                        config.cpusPerCluster = p;
                        config.scc.sizeBytes = scc;
                        config.scc.protocol = protocol;
                        config.net.topology = topology;
                        config.net.segments = 2;
                        config.checkCoherence = true;

                        Machine machine(config);
                        check::TrafficParams params;
                        params.seed = seed;
                        params.steps = 15000;
                        params.totalCpus = config.totalCpus();
                        params.lineBytes = config.scc.lineBytes;
                        check::TrafficGen(params).run(machine);

                        std::uint64_t checks =
                            machine.checker()->checksPerformed();
                        if (checks == 0) {
                            std::fprintf(
                                stderr,
                                "FAIL: no checks performed "
                                "(net %s seed %llu procs %d)\n",
                                nameOf(topology),
                                (unsigned long long)seed, p);
                            return 1;
                        }
                        totalChecks += checks;
                        ++runs;
                        ++topologyRuns;
                    }
                }
            }
        }
        std::printf("fuzz smoke [%s]: %d runs clean\n",
                    nameOf(topology), topologyRuns);
    }

    // Banked-DRAM pass: queued fills on every fabric; on the tree,
    // per-segment NUMA memories plus a snoop filter bounded far
    // below the working set, so the fuzz traffic forces eviction
    // back-invalidations the whole run.
    for (NetTopology topology : topologies) {
        int topologyRuns = 0;
        for (std::uint64_t seed : seeds) {
            for (int p : procs) {
                for (CoherenceProtocol protocol : protocols) {
                    MachineConfig config;
                    config.numClusters =
                        topology == NetTopology::Tree ? 4 : 2;
                    config.cpusPerCluster = p;
                    config.scc.sizeBytes = 16ull << 10;
                    config.scc.protocol = protocol;
                    config.net.topology = topology;
                    config.net.segments = 2;
                    config.dram.kind = MemBackendKind::Banked;
                    config.dram.channels = 2;
                    config.dram.banks = 2;
                    config.dram.sched =
                        p % 2 ? MemSched::Fcfs : MemSched::FrFcfs;
                    if (topology == NetTopology::Tree)
                        config.net.snoopFilterCapacity = 32;
                    config.checkCoherence = true;

                    Machine machine(config);
                    check::TrafficParams params;
                    params.seed = seed;
                    params.steps = 15000;
                    params.totalCpus = config.totalCpus();
                    params.lineBytes = config.scc.lineBytes;
                    check::TrafficGen(params).run(machine);

                    if (machine.checker()->checksPerformed() == 0) {
                        std::fprintf(
                            stderr,
                            "FAIL: no checks performed "
                            "(banked net %s seed %llu procs %d)\n",
                            nameOf(topology),
                            (unsigned long long)seed, p);
                        return 1;
                    }
                    if (topology == NetTopology::Tree) {
                        auto &tree = dynamic_cast<HierarchicalNet &>(
                            machine.bus());
                        if (tree.snoopFilterSize() >
                            tree.snoopFilterCapacity()) {
                            std::fprintf(stderr,
                                         "FAIL: snoop filter over "
                                         "capacity (seed %llu)\n",
                                         (unsigned long long)seed);
                            return 1;
                        }
                        if (tree.filterEvictions.value() <= 0) {
                            std::fprintf(
                                stderr,
                                "FAIL: bounded filter never "
                                "evicted (seed %llu procs %d)\n",
                                (unsigned long long)seed, p);
                            return 1;
                        }
                    }
                    totalChecks +=
                        machine.checker()->checksPerformed();
                    ++runs;
                    ++topologyRuns;
                }
            }
        }
        std::printf("fuzz smoke [%s banked]: %d runs clean\n",
                    nameOf(topology), topologyRuns);
    }

    // Weak-ordering pass: tiny store buffers so full-buffer drains
    // and read bypasses both fire constantly, plus random fences so
    // the fence-ordered-visibility check actually runs. The oracle
    // must see forwards and fences on every configuration — a weak
    // run that never exercised the relaxation proves nothing.
    for (NetTopology topology : topologies) {
        int topologyRuns = 0;
        for (std::uint64_t seed : seeds) {
            for (int p : procs) {
                for (CoherenceProtocol protocol : protocols) {
                    MachineConfig config;
                    config.numClusters =
                        topology == NetTopology::Tree ? 4 : 2;
                    config.cpusPerCluster = p;
                    config.scc.sizeBytes = 16ull << 10;
                    config.scc.protocol = protocol;
                    config.net.topology = topology;
                    config.net.segments = 2;
                    config.consistency.model =
                        ConsistencyModel::Weak;
                    config.consistency.storeBufferEntries =
                        p % 2 ? 2 : 8;
                    config.checkCoherence = true;

                    Machine machine(config);
                    check::TrafficParams params;
                    params.seed = seed;
                    params.steps = 15000;
                    params.totalCpus = config.totalCpus();
                    params.lineBytes = config.scc.lineBytes;
                    params.fenceFraction = 0.02;
                    check::TrafficGen(params).run(machine);

                    const check::CoherenceChecker &checker =
                        *machine.checker();
                    if (checker.checksPerformed() == 0 ||
                        checker.fencesChecked.value() <= 0 ||
                        checker.forwardsChecked.value() <= 0) {
                        std::fprintf(
                            stderr,
                            "FAIL: weak run exercised no "
                            "relaxation (net %s seed %llu "
                            "procs %d)\n",
                            nameOf(topology),
                            (unsigned long long)seed, p);
                        return 1;
                    }
                    for (int cpu = 0; cpu < config.totalCpus();
                         ++cpu) {
                        if (checker.pendingStores(cpu) != 0) {
                            std::fprintf(
                                stderr,
                                "FAIL: stores left undrained at "
                                "end of run (net %s seed %llu "
                                "cpu %d)\n",
                                nameOf(topology),
                                (unsigned long long)seed, cpu);
                            return 1;
                        }
                    }
                    totalChecks += checker.checksPerformed();
                    ++runs;
                    ++topologyRuns;
                }
            }
        }
        std::printf("fuzz smoke [%s weak]: %d runs clean\n",
                    nameOf(topology), topologyRuns);
    }

    // TM pass: both conflict managers at a set size small enough
    // that capacity aborts fire alongside conflict aborts. Every
    // configuration must actually commit AND abort transactions,
    // and the checker's transactional mirror must have validated
    // commits — a TM run that never speculated proves nothing.
    const TmMode tmModes[] = {TmMode::Eager, TmMode::Lazy};
    for (NetTopology topology : topologies) {
        int topologyRuns = 0;
        for (std::uint64_t seed : seeds) {
            for (int p : procs) {
                for (CoherenceProtocol protocol : protocols) {
                    for (TmMode mode : tmModes) {
                        MachineConfig config;
                        config.numClusters =
                            topology == NetTopology::Tree ? 4 : 2;
                        config.cpusPerCluster = p;
                        config.scc.sizeBytes = 16ull << 10;
                        config.scc.protocol = protocol;
                        config.net.topology = topology;
                        config.net.segments = 2;
                        config.tm.mode = mode;
                        config.tm.setEntries = p % 2 ? 2 : 8;
                        config.checkCoherence = true;

                        Machine machine(config);
                        check::TrafficParams params;
                        params.seed = seed;
                        params.steps = 15000;
                        params.totalCpus = config.totalCpus();
                        params.lineBytes = config.scc.lineBytes;
                        params.txnFraction = 0.05;
                        params.txnLength = 6;
                        check::TrafficStats traffic =
                            check::TrafficGen(params).run(machine);

                        const check::CoherenceChecker &checker =
                            *machine.checker();
                        bool exercised =
                            traffic.txnCommits > 0 &&
                            checker.tmCommitsChecked.value() > 0 &&
                            checker.tmPublishesChecked.value() > 0;
                        // Single-processor machines have no one to
                        // conflict with; everyone else must abort.
                        if (config.totalCpus() > 1)
                            exercised = exercised &&
                                        traffic.txnAborts > 0 &&
                                        checker.tmAbortsChecked
                                                .value() > 0;
                        if (checker.checksPerformed() == 0 ||
                            !exercised) {
                            std::fprintf(
                                stderr,
                                "FAIL: tm run exercised no "
                                "speculation (%s net %s seed %llu "
                                "procs %d)\n",
                                nameOf(mode),
                                nameOf(topology),
                                (unsigned long long)seed, p);
                            return 1;
                        }
                        totalChecks += checker.checksPerformed();
                        ++runs;
                        ++topologyRuns;
                    }
                }
            }
        }
        std::printf("fuzz smoke [%s tm]: %d runs clean\n",
                    nameOf(topology), topologyRuns);
    }

    // Isolation pass: every mitigation over every fabric and
    // protocol. The SCC gets 4 ways so way partitioning divides,
    // and rand's rekey interval sits far below the fill count so
    // rekey flushes (full writeback + re-hash) happen repeatedly
    // under the oracle. The checker must have walked the partition
    // invariant — an isolated run with no placement checks proves
    // nothing.
    const IsolationMode secModes[] = {
        IsolationMode::WayPart,
        IsolationMode::Color,
        IsolationMode::Rand,
    };
    for (NetTopology topology : topologies) {
        int topologyRuns = 0;
        for (std::uint64_t seed : seeds) {
            for (int p : procs) {
                for (CoherenceProtocol protocol : protocols) {
                    for (IsolationMode mode : secModes) {
                        MachineConfig config;
                        config.numClusters =
                            topology == NetTopology::Tree ? 4 : 2;
                        config.cpusPerCluster = p;
                        config.scc.sizeBytes = 16ull << 10;
                        config.scc.assoc = 4;
                        config.scc.protocol = protocol;
                        config.net.topology = topology;
                        config.net.segments = 2;
                        config.scc.sec.mode = mode;
                        config.scc.sec.domains = 2;
                        if (mode == IsolationMode::Rand)
                            config.scc.sec.rekeyFills = 256;
                        config.checkCoherence = true;

                        Machine machine(config);
                        check::TrafficParams params;
                        params.seed = seed;
                        params.steps = 15000;
                        params.totalCpus = config.totalCpus();
                        params.lineBytes = config.scc.lineBytes;
                        check::TrafficGen(params).run(machine);

                        const check::CoherenceChecker &checker =
                            *machine.checker();
                        if (checker.checksPerformed() == 0 ||
                            checker.partitionChecks.value() <= 0) {
                            std::fprintf(
                                stderr,
                                "FAIL: isolated run walked no "
                                "partition checks (%s net %s seed "
                                "%llu procs %d)\n",
                                nameOf(mode),
                                nameOf(topology),
                                (unsigned long long)seed, p);
                            return 1;
                        }
                        totalChecks += checker.checksPerformed();
                        ++runs;
                        ++topologyRuns;
                    }
                }
            }
        }
        std::printf("fuzz smoke [%s isolation]: %d runs clean\n",
                    nameOf(topology), topologyRuns);
    }

    std::printf("fuzz smoke: %d runs clean, %llu checks\n", runs,
                (unsigned long long)totalChecks);
    return 0;
}
