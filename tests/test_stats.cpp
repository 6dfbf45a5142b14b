/**
 * @file
 * Tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace
{

using namespace scmp::stats;

TEST(Stats, ScalarCountsExactly)
{
    Group root("root");
    Scalar counter(&root, "counter", "a counter");
    EXPECT_EQ(counter.value(), 0u);
    ++counter;
    counter += 4;
    counter += (std::int64_t)2;
    EXPECT_EQ(counter.value(), 7u);
    counter += (1ull << 53) - 8;
    EXPECT_EQ(counter.value(), (1ull << 53) - 1);
}

TEST(Stats, GroupHierarchyAndLookup)
{
    Group root("system");
    Group child(&root, "cluster0");
    Group grandchild(&child, "scc");
    Scalar misses(&grandchild, "misses", "misses");
    misses += 7;

    EXPECT_EQ(grandchild.path(), "system.cluster0.scc");
    EXPECT_EQ(root.lookup("cluster0.scc.misses"), 7u);
    EXPECT_EQ(root.find("cluster0.scc.nothing"), nullptr);
    EXPECT_EQ(root.find("bogus.path"), nullptr);
}

TEST(Stats, DumpFormatsAllStats)
{
    Group root("sys");
    Scalar s(&root, "counter", "counts things");
    Group sub(&root, "sub");
    Scalar t(&sub, "other", "other things");
    s += 3;
    t += 4;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("sys.counter"), std::string::npos);
    EXPECT_NE(os.str().find("sys.sub.other"), std::string::npos);
    EXPECT_NE(os.str().find("counts things"), std::string::npos);

    std::ostringstream json;
    root.dumpJson(json);
    EXPECT_EQ(json.str(), "{\"counter\":3,\"sub\":{\"other\":4}}");
}

// A counter of a million or more must not print rounded: a dump
// pins counts to the cycle.
TEST(Stats, DumpPrintsCountersExactly)
{
    Group root("system");
    Group bus(&root, "bus");
    Scalar waits(&bus, "waitCycles", "cycles waited");
    waits += 4884469;

    std::ostringstream os;
    root.dump(os);
    std::string name = "system.bus.waitCycles";
    EXPECT_EQ(os.str(), name + std::string(46 - name.size(), ' ') +
                            " " + std::string(14 - 7, ' ') +
                            "4884469   # cycles waited\n");

    std::ostringstream json;
    root.dumpJson(json);
    EXPECT_EQ(json.str(), "{\"bus\":{\"waitCycles\":4884469}}");
}

TEST(StatsDeath, DuplicateNameInGroup)
{
    Group root("root");
    Scalar first(&root, "dup", "first");
    EXPECT_DEATH(Scalar(&root, "dup", "second"),
                 "duplicate statistic");
}

TEST(StatsDeath, LookupMissingStat)
{
    Group root("root");
    EXPECT_DEATH(root.lookup("no.such.stat"), "no statistic");
}

} // namespace
