/**
 * @file
 * Memory scaling study: DRAM channels × banks × scheduler.
 *
 * The paper charges every line fetch a flat 100 cycles, which makes
 * memory bandwidth free: misses never queue behind each other. This
 * figure swaps in the banked DRAM backend (src/dram) and asks how
 * much of that idealization matters. Barnes-Hut runs over
 * {banks per channel} × {channels} × {FCFS, FR-FCFS}, and the flat
 * backend is the contention-free reference column. With one bank
 * every miss in flight fights for the same row buffer and the
 * execution time balloons; adding banks and channels buys the
 * parallelism back, and FR-FCFS recovers more of it than FCFS at
 * the same geometry. With --results the study lands in a
 * ResultStore (each record tagged with its mem/channels/banks/
 * memSched axes), which is the data behind the mem-scaling curves
 * scripts/sweep_plot.py renders.
 *
 * Extra flags on top of bench_common:
 *   --channels=1,2,4     channel-count axis
 *   --mem-banks=1,2,4,8  banks-per-channel axis
 *   --row-bytes=N        row-buffer coverage (default 2048)
 */

#include <iostream>

#include "bench_common.hh"
#include "sweep/point_key.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);

    std::vector<int> channelCounts =
        options.config.getIntList("channels", {1, 2, 4}, 1);
    std::vector<int> bankCounts =
        options.config.getIntList("mem-banks", {1, 2, 4, 8}, 1);
    const std::vector<MemSched> scheds = {MemSched::Fcfs,
                                          MemSched::FrFcfs};

    MachineConfig base;
    base.cpusPerCluster = 4;
    base.scc.sizeBytes = 64 << 10;
    base.dram.rowBytes =
        options.config.getSize("row-bytes", 2048);
    options.config.rejectUnread();

    // The contention-free reference: the same machine and workload
    // on the paper's flat backend, run through the same
    // deterministic reseed-by-key path the study uses.
    auto factory = bench::barnesFactory(options);
    RunResult flat;
    {
        auto workload = factory();
        workload->reseed(sweep::pointKey(base, workload->name(),
                                         options.sweep.scale));
        flat = runParallel(base, *workload);
    }

    std::vector<MachineConfig> configs;
    for (MemSched sched : scheds) {
        for (int channels : channelCounts) {
            for (int banks : bankCounts) {
                MachineConfig config = base;
                config.dram.kind = MemBackendKind::Banked;
                config.dram.channels = channels;
                config.dram.banks = banks;
                config.dram.sched = sched;
                configs.push_back(config);
            }
        }
    }
    auto points = DesignSpace::study(
        factory, configs, {"mem", "channels", "banks", "memSched"});

    auto pointAt = [&](MemSched sched, int channels,
                       int banks) -> const RunResult & {
        return bench::studyResult(
            points, [&](const MachineConfig &c) {
                return c.dram.sched == sched &&
                       c.dram.channels == channels &&
                       c.dram.banks == banks;
            });
    };

    auto comboName = [](int channels, MemSched sched) {
        return std::to_string(channels) + "ch/" +
               std::string(nameOf(sched));
    };

    Table time("Memory scaling: execution time (cycles), Barnes "
               "4P/cluster, 64KB SCC");
    std::vector<std::string> header = {"Banks"};
    for (MemSched sched : scheds)
        for (int channels : channelCounts)
            header.push_back(comboName(channels, sched));
    header.push_back("flat");
    time.setHeader(header);
    Table hits("Memory scaling: DRAM row-buffer hit rate");
    hits.setHeader(header);
    for (int banks : bankCounts) {
        std::vector<std::string> timeRow = {
            Table::cell((std::uint64_t)banks)};
        std::vector<std::string> hitRow = timeRow;
        for (MemSched sched : scheds) {
            for (int channels : channelCounts) {
                const RunResult &r = pointAt(sched, channels, banks);
                timeRow.push_back(Table::cell(r.cycles));
                hitRow.push_back(Table::cell(r.dramRowHitRate, 4));
            }
        }
        timeRow.push_back(Table::cell(flat.cycles));
        // The flat backend has no row buffers; its column reads 0.
        hitRow.push_back(Table::cell(flat.dramRowHitRate, 4));
        time.addRow(timeRow);
        hits.addRow(hitRow);
    }
    bench::emit(time, options);
    bench::emit(hits, options);
    return 0;
}
