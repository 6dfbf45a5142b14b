/**
 * @file
 * perf_refpath_smoke — the `perf` ctest gate.
 *
 * Two teeth, both aimed at the reference hot path:
 *
 *  1. Throughput floor: a fixed traffic mix through a 2x2 machine
 *     must sustain a minimum references-per-second rate. The floor
 *     is deliberately generous (an order of magnitude below what a
 *     release build delivers on slow hardware) — it exists to catch
 *     catastrophic regressions like an accidental O(n) scan per
 *     reference or a debug-only code path leaking into the build,
 *     not to benchmark. scmpbench/ does the real measuring.
 *
 *  2. Pinned dump: the stream's statistics dump must hash to the
 *     digest captured before the hot path was last rebuilt, so a
 *     speedup that moves any count or cycle fails here.
 *
 * Plain binary (not gtest) so the timed loop has no framework
 * overhead in it.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "check/traffic.hh"
#include "core/machine.hh"
#include "sim/logging.hh"

namespace
{

using namespace scmp;

/** The stream's statistics dump, as 64-bit FNV-1a over its bytes. */
constexpr std::uint64_t pinnedDumpDigest = 0x61cc30c48794aec5;

std::uint64_t
digestOf(const std::string &text)
{
    std::uint64_t value = 0xcbf29ce484222325ull;
    for (unsigned char byte : text) {
        value ^= byte;
        value *= 0x100000001b3ull;
    }
    return value;
}

std::string
runStream(double *refsPerSec)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 16 << 10;

    Machine machine(config);
    check::TrafficParams traffic;
    traffic.seed = 7;
    traffic.steps = 400000;
    traffic.totalCpus = config.totalCpus();
    traffic.lineBytes = config.scc.lineBytes;

    auto begin = std::chrono::steady_clock::now();
    check::TrafficGen(traffic).run(machine);
    auto end = std::chrono::steady_clock::now();
    double seconds =
        std::chrono::duration<double>(end - begin).count();
    *refsPerSec = (double)traffic.steps / seconds;

    std::ostringstream os;
    machine.statsRoot().dump(os);
    return os.str();
}

} // namespace

int
main()
{
    using namespace scmp;
    setLogQuiet(true);
    // The pin is the plain machine's dump: SCMP_CHECK=1 would add
    // the checker's statistics to it.
    ::unsetenv("SCMP_CHECK");

    // Generous: a release build on a 1-core container does tens of
    // millions of refs/sec through this loop.
    constexpr double floorRefsPerSec = 30000.0;

    double refsPerSec = 0.0;
    std::string dump = runStream(&refsPerSec);

    std::printf("refpath smoke: %.0f refs/sec (floor %.0f)\n",
                refsPerSec, floorRefsPerSec);
    if (refsPerSec < floorRefsPerSec) {
        std::fprintf(stderr,
                     "FAIL: reference throughput below floor\n");
        return 1;
    }
    std::uint64_t digest = digestOf(dump);
    if (digest != pinnedDumpDigest) {
        std::fprintf(stderr,
                     "FAIL: stats dump digest 0x%016llx, pinned "
                     "0x%016llx\n",
                     (unsigned long long)digest,
                     (unsigned long long)pinnedDumpDigest);
        return 1;
    }
    std::printf("refpath smoke: stats dump matches the pin\n");
    return 0;
}
