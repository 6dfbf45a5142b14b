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
 *  2. Golden equality: the same stream with the fast path disabled
 *     must produce a byte-identical statistics dump — the fast
 *     path's bit-identical-timing contract, enforced on every run
 *     of the perf label.
 *
 * Plain binary (not gtest) so the timed loop has no framework
 * overhead in it.
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>

#include "check/traffic.hh"
#include "core/machine.hh"
#include "sim/logging.hh"

namespace
{

using namespace scmp;

std::string
runStream(bool fastPath, double *refsPerSec)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 16 << 10;
    config.scc.fastPath = fastPath;

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
    if (refsPerSec)
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

    // Generous: a release build on a 1-core container does tens of
    // millions of refs/sec through this loop.
    constexpr double floorRefsPerSec = 30000.0;

    double refsPerSec = 0.0;
    std::string fast = runStream(true, &refsPerSec);
    std::string plain = runStream(false, nullptr);

    std::printf("refpath smoke: %.0f refs/sec (floor %.0f)\n",
                refsPerSec, floorRefsPerSec);
    if (refsPerSec < floorRefsPerSec) {
        std::fprintf(stderr,
                     "FAIL: reference throughput below floor\n");
        return 1;
    }
    if (fast != plain) {
        std::fprintf(stderr,
                     "FAIL: fast path changed the stats dump\n");
        return 1;
    }
    std::printf("refpath smoke: fast path dump identical\n");
    return 0;
}
