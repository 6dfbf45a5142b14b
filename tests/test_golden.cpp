/**
 * @file
 * Golden-number regression: every pinned design point must
 * reproduce its committed fixture EXACTLY.
 *
 * The simulator is single-threaded and bit-deterministic, so these
 * comparisons are ==, not tolerances — a one-cycle drift is a real
 * behavioural change. When a change intentionally shifts the
 * numbers, regenerate with build/tests/golden_capture tests/golden
 * and commit the new fixtures alongside the change.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

#include "golden_common.hh"

namespace
{

using namespace scmp;
using namespace scmp::golden;

/** Load every fixture record from one workload's golden file. */
std::map<std::uint64_t, sweep::StoredPoint>
loadFixtures(const std::string &workload)
{
    std::string path = goldenPath(SCMP_GOLDEN_DIR, workload);
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing fixture file " << path
                           << " — run golden_capture";
    std::map<std::uint64_t, sweep::StoredPoint> records;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        sweep::StoredPoint point;
        std::string error;
        EXPECT_TRUE(
            sweep::ResultStore::deserialize(line, point, &error))
            << path << ": " << error;
        records[point.key] = point;
    }
    return records;
}

class GoldenTest : public ::testing::TestWithParam<GoldenSpec>
{
};

TEST_P(GoldenTest, MatchesCommittedFixtureExactly)
{
    const GoldenSpec &spec = GetParam();
    auto fixtures = loadFixtures(spec.workload);

    sweep::StoredPoint fresh = runGoldenPoint(spec);
    auto it = fixtures.find(fresh.key);
    ASSERT_NE(it, fixtures.end())
        << "no fixture for " << spec.workload << " procs="
        << spec.cpusPerCluster << " scc=" << spec.sccBytes
        << " (key " << sweep::keyHex(fresh.key)
        << ") — the machine configuration changed or the fixture "
           "was never captured; run golden_capture";
    const RunResult &want = it->second.result;
    const RunResult &got = fresh.result;

    EXPECT_TRUE(got.verified);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.references, want.references);
    EXPECT_EQ(got.invalidations, want.invalidations);
    EXPECT_EQ(got.busTransactions, want.busTransactions);
    // Doubles are serialized at %.17g, which round-trips exactly.
    EXPECT_EQ(got.readMissRate, want.readMissRate);
    EXPECT_EQ(got.missRate, want.missRate);
    EXPECT_EQ(got.busUtilization, want.busUtilization);
    // Zero except on the server point.
    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.latencyP50, want.latencyP50);
    EXPECT_EQ(got.latencyP95, want.latencyP95);
    EXPECT_EQ(got.latencyP99, want.latencyP99);
    EXPECT_EQ(got.throughput, want.throughput);
}

std::string
specName(const ::testing::TestParamInfo<GoldenSpec> &info)
{
    return std::string(info.param.workload) + "_p" +
           std::to_string(info.param.cpusPerCluster) + "_" +
           std::to_string(info.param.sccBytes >> 10) + "K";
}

INSTANTIATE_TEST_SUITE_P(Points, GoldenTest,
                         ::testing::ValuesIn(goldenSpecs()),
                         specName);

} // namespace
