/**
 * @file
 * Table 5: relative uniprocessor execution times for load
 * latencies of 2, 3 and 4 cycles on a perfect memory system,
 * computed with the five-stage pipeline model over each
 * benchmark's instruction mix (code scheduled for 3-cycle loads).
 *
 * Paper values: 1.00 / 1.06-1.08 / 1.13-1.17 across the four
 * benchmark classes.
 */

#include <iostream>

#include "bench_common.hh"
#include "cpu/pipeline.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);
    options.config.rejectUnread();

    std::uint64_t instructions =
        options.scale == bench::Scale::Quick ? 200'000 : 2'000'000;

    Table table("Table 5: relative uniprocessor execution time vs "
                "load latency");
    table.setHeader({"Benchmark", "2 cycles", "3 cycles",
                     "4 cycles"});

    const InstrMix mixes[] = {
        InstrMix::barnes(),
        InstrMix::mp3d(),
        InstrMix::cholesky(),
        InstrMix::multiprogramming(),
    };
    for (const auto &mix : mixes) {
        std::vector<std::string> row{mix.name};
        for (int latency : {2, 3, 4}) {
            row.push_back(Table::cell(
                Pipeline::relativeTime(mix, latency, instructions),
                2));
        }
        table.addRow(row);
    }
    bench::emit(table, options);
    return 0;
}
