/**
 * @file
 * Table 6: performance and cost/performance of the two single-chip
 * cluster implementations — four clusters of (1 processor + 64 KB
 * data cache, 2-cycle loads, 204 mm^2) versus four clusters of
 * (2 processors + 32 KB SCC, 3-cycle loads, 279 mm^2).
 *
 * Paper conclusions to reproduce: the two-processor chip wins on
 * every benchmark (70% faster on average) and, despite being 37%
 * larger, improves cost/performance by ~24%.
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
    double clusterAreaMm2;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    obs::RecorderConfig obsConfig = obs::fromFlags(options.config);
    options.config.rejectUnread();

    cost::AreaModel area;
    cost::TimingModel timing;
    cost::ChipDesign one = cost::oneProcChip();
    cost::ChipDesign two = cost::twoProcChip();

    const ConfigSpec specs[] = {
        {"1 Proc/64KB", 1, 64ull << 10, one.loadLatency(timing),
         one.areaMm2(area)},
        {"2 Procs/32KB", 2, 32ull << 10, two.loadLatency(timing),
         two.areaMm2(area)},
    };

    struct BenchmarkSpec
    {
        std::string name;
        InstrMix mix;
        DesignSpace::WorkloadFactory factory;  // null → multiprog
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

    Table table("Table 6: single-chip cluster comparison "
                "(execution time normalized to 2 Procs/32KB)");
    table.setHeader({"Benchmark", specs[0].label, specs[1].label,
                     "1P/2P ratio"});

    double speedupSum = 0;
    int speedupCount = 0;
    for (auto &benchmark : benchmarks) {
        double adjusted[2];
        for (int c = 0; c < 2; ++c) {
            const ConfigSpec &spec = specs[c];
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
            adjusted[c] =
                cycles * Pipeline::relativeTime(
                             benchmark.mix, spec.loadLatency);
        }
        double ratio = adjusted[0] / adjusted[1];
        speedupSum += ratio;
        ++speedupCount;
        table.addRow({benchmark.name,
                      Table::cell(adjusted[0] / adjusted[1], 2),
                      Table::cell(1.0, 2), Table::cell(ratio, 2)});
    }
    bench::emit(table, options);

    double meanSpeedup = speedupSum / speedupCount;
    double areaRatio =
        specs[1].clusterAreaMm2 / specs[0].clusterAreaMm2;
    double costPerf = meanSpeedup / areaRatio;
    std::cout << "\n2P/32KB is " << Table::cell(
                     (meanSpeedup - 1.0) * 100.0, 0)
              << "% faster on average (paper: 70%)\n"
              << "2P chip area ratio: "
              << Table::cell((areaRatio - 1.0) * 100.0, 0)
              << "% larger (paper: 37%)\n"
              << "cost/performance improvement: "
              << Table::cell((costPerf - 1.0) * 100.0, 0)
              << "% (paper: 24%)\n";
    return 0;
}
