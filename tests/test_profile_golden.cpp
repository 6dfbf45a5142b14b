/**
 * @file
 * Reuse-profile regression: every pinned profiling pass
 * (golden_common.hh) must reproduce its committed fixture under
 * tests/golden/profiles/ exactly — every histogram of every scope,
 * reads and writes, plus the pass's reference totals.
 *
 * The profiler is exact (or, when sampled, deterministic), so a
 * change to its internals must not move a single count. A failure
 * names the first scope that differs. When a change deliberately
 * alters the profiled stream, regenerate with
 * build/tests/golden_capture tests/golden and commit the new
 * fixtures alongside the change.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "golden_common.hh"

namespace scmp::golden
{

/** Name a failing pass by its fixture stem. */
void
PrintTo(const ProfileSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

} // namespace scmp::golden

namespace
{

using namespace scmp;
using namespace scmp::golden;

class ProfileGoldenTest : public ::testing::TestWithParam<ProfileSpec>
{
};

TEST_P(ProfileGoldenTest, MatchesCommittedFixtureExactly)
{
    const ProfileSpec &spec = GetParam();
    std::string path = profilePath(SCMP_GOLDEN_DIR, spec);
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing fixture file " << path
                           << " — run golden_capture";
    std::vector<std::string> want;
    for (std::string line; std::getline(in, line);)
        want.push_back(line);

    std::vector<std::string> got =
        profileLines(runGoldenProfile(spec));
    for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
        // The histogram lines lead with their scope, so the first
        // mismatch names the scope the change moved.
        ASSERT_EQ(got[i], want[i])
            << spec.name << ": first difference at line " << i + 1
            << " of " << path;
    }
    EXPECT_EQ(got.size(), want.size())
        << spec.name << ": fixture has " << want.size()
        << " lines, the pass " << got.size();
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, ProfileGoldenTest, ::testing::ValuesIn(profileSpecs()),
    [](const ::testing::TestParamInfo<ProfileSpec> &info) {
        return std::string(info.param.name);
    });

} // namespace
