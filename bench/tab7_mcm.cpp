/**
 * @file
 * Table 7: performance of the MCM-based cluster implementations —
 * 16 processors as four clusters of (4 processors + 64 KB SCC) and
 * 32 processors as four clusters of (8 processors + 128 KB SCC),
 * both with 4-cycle loads — against the two-processor single-chip
 * system.
 *
 * Paper conclusions to reproduce: the 16-processor system roughly
 * doubles the 8-processor (2P/32KB) system's parallel-application
 * performance despite the extra load latency, and 16 → 32
 * processors scales nearly linearly except for Cholesky.
 */

#include <iostream>

#include "bench_common.hh"
#include "cost/chips.hh"
#include "cpu/pipeline.hh"

namespace
{

struct ConfigSpec
{
    std::string label;
    int procs;
    std::uint64_t sccBytes;
    int loadLatency;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    obs::RecorderConfig obsConfig = obs::fromFlags(options.config);
    options.config.rejectUnread();

    const ConfigSpec specs[] = {
        {"2 Procs/32KB", 2, 32ull << 10, 3},
        {"4 Procs/64KB", 4, 64ull << 10, 4},
        {"8 Procs/128KB", 8, 128ull << 10, 4},
    };

    struct BenchmarkSpec
    {
        std::string name;
        InstrMix mix;
        DesignSpace::WorkloadFactory factory;
    };
    BenchmarkSpec benchmarks[] = {
        {"Barnes-Hut", InstrMix::barnes(),
         bench::barnesFactory(options)},
        {"MP3D", InstrMix::mp3d(), bench::mp3dFactory(options)},
        {"Cholesky", InstrMix::cholesky(),
         bench::choleskyFactory(options)},
        {"Multiprogramming", InstrMix::multiprogramming(),
         nullptr},
    };

    Table table("Table 7: MCM cluster comparison (execution time "
                "normalized to 2 Procs/32KB)");
    table.setHeader({"Benchmark", specs[0].label, specs[1].label,
                     specs[2].label});

    for (auto &benchmark : benchmarks) {
        std::vector<std::string> row{benchmark.name};
        double base = 0;
        for (const auto &spec : specs) {
            double cycles;
            if (benchmark.factory) {
                MachineConfig machine;
                machine.cpusPerCluster = spec.procs;
                machine.scc.sizeBytes = spec.sccBytes;
                auto workload = benchmark.factory();
                cycles =
                    (double)runParallel(machine, *workload).cycles;
            } else {
                cycles = (double)bench::multiprogPoint(
                             spec.procs, spec.sccBytes, options,
                             obsConfig)
                             .cycles;
            }
            double adjusted =
                cycles * Pipeline::relativeTime(benchmark.mix,
                                                spec.loadLatency);
            if (base == 0)
                base = adjusted;
            row.push_back(Table::cell(adjusted / base, 2));
        }
        table.addRow(row);
    }
    bench::emit(table, options);

    std::cout << "\npaper reference (normalized the same way): "
                 "4P/64KB roughly halves the 2P time on the\n"
                 "parallel applications and 8P/128KB halves it "
                 "again, except for Cholesky.\n";
    return 0;
}
