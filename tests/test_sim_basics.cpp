/**
 * @file
 * Unit tests for the sim foundation: types, logging helpers,
 * tables, configuration and the enum name tables.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/machine.hh"
#include "sim/config.hh"
#include "sim/table.hh"
#include "sim/types.hh"
#include "sweep/sweep.hh"
#include "workloads/server/server.hh"

namespace
{

using namespace scmp;

TEST(Types, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(2), 1);
    EXPECT_EQ(floorLog2(16), 4);
    EXPECT_EQ(floorLog2(1ull << 40), 40);
}

TEST(Types, IsPowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(4097));
}

TEST(Types, SizeString)
{
    EXPECT_EQ(sizeString(512), "512B");
    EXPECT_EQ(sizeString(4 << 10), "4KB");
    EXPECT_EQ(sizeString(512 << 10), "512KB");
    EXPECT_EQ(sizeString(2ull << 20), "2MB");
}

TEST(Types, RefTypeNames)
{
    EXPECT_STREQ(refTypeName(RefType::Read), "read");
    EXPECT_STREQ(refTypeName(RefType::Write), "write");
    EXPECT_STREQ(refTypeName(RefType::Ifetch), "ifetch");
}

TEST(Config, TypedAccessors)
{
    Config config;
    config.set("name", std::string("value"));
    config.set("count", (std::int64_t)42);
    config.set("ratio", 2.5);
    config.set("flag", true);

    EXPECT_EQ(config.getString("name"), "value");
    EXPECT_EQ(config.getInt("count"), 42);
    EXPECT_DOUBLE_EQ(config.getDouble("ratio"), 2.5);
    EXPECT_TRUE(config.getBool("flag"));
    EXPECT_EQ(config.getInt("missing", 7), 7);
    EXPECT_FALSE(config.has("missing"));
}

TEST(Config, ParseArgs)
{
    const char *argv[] = {"prog", "--size=32K", "--procs=4",
                          "--quick", "positional", "--theta=0.5"};
    Config config;
    auto positional =
        config.parseArgs(6, const_cast<char **>(argv));
    ASSERT_EQ(positional.size(), 1u);
    EXPECT_EQ(positional[0], "positional");
    EXPECT_EQ(config.getSize("size"), 32u << 10);
    EXPECT_EQ(config.getInt("procs"), 4);
    EXPECT_TRUE(config.getBool("quick"));
    EXPECT_DOUBLE_EQ(config.getDouble("theta"), 0.5);
}

struct SizeCase
{
    const char *text;
    std::uint64_t expected;
    bool ok;
};

class ConfigSizeTest : public ::testing::TestWithParam<SizeCase>
{
};

TEST_P(ConfigSizeTest, ParseSize)
{
    bool ok = false;
    std::uint64_t value = Config::parseSize(GetParam().text, &ok);
    EXPECT_EQ(ok, GetParam().ok);
    if (GetParam().ok) {
        EXPECT_EQ(value, GetParam().expected);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ConfigSizeTest,
    ::testing::Values(SizeCase{"0", 0, true},
                      SizeCase{"64", 64, true},
                      SizeCase{"4K", 4096, true},
                      SizeCase{"4KB", 4096, true},
                      SizeCase{"32k", 32768, true},
                      SizeCase{"2M", 2u << 20, true},
                      SizeCase{"1G", 1ull << 30, true},
                      SizeCase{"junk", 0, false},
                      SizeCase{"4Q", 0, false},
                      SizeCase{"", 0, false}));

TEST(ConfigDeath, UnreadKeyIsRejected)
{
    Config config;
    config.set("used", (std::int64_t)1);
    config.set("unused", (std::int64_t)2);
    config.getInt("used");
    EXPECT_EXIT(config.rejectUnread(), ::testing::ExitedWithCode(1),
                "unknown flag '--unused'");
    config.getInt("unused");
    config.rejectUnread();
}

TEST(ConfigDeath, EveryUnreadKeyIsNamedAtOnce)
{
    // Several stray flags are refused in one message, in key order,
    // rather than one per run.
    Config config;
    config.set("quick", true);
    config.set("obs", std::string("ap.json"));
    config.set("model", std::string("hybrid"));
    config.getBool("quick");
    EXPECT_EXIT(config.rejectUnread(), ::testing::ExitedWithCode(1),
                "unknown flags '--model', '--obs'");
}

TEST(Config, GetEnum)
{
    Config config;
    EXPECT_EQ(config.getEnum("net", NetTopology::Split),
              NetTopology::Split);
    config.set("net", std::string("tree"));
    EXPECT_EQ(config.getEnum("net", NetTopology::Atomic),
              NetTopology::Tree);
    config.set("arbitration", std::string("round-robin"));
    EXPECT_EQ(config.getEnum("arbitration", NetArbitration::Priority),
              NetArbitration::RoundRobin);
}

TEST(ConfigDeath, GetEnumNamesTheChoices)
{
    Config config;
    config.set("tm", std::string("optimistic"));
    EXPECT_EXIT(config.getEnum("tm", TmMode::Off),
                ::testing::ExitedWithCode(1),
                "--tm must be 'off', 'eager' or 'lazy' "
                "\\(got 'optimistic'\\)");
}

/**
 * One enum's name table: every row parses to its value, canonical
 * rows round-trip through nameOf() while aliases do not, unknown
 * text is refused, and the choices string is @p choices.
 */
template <class Enum>
void
checkNameTable(const std::string &choices)
{
    for (const NameRow<Enum> &row : nameTable(Enum{})) {
        Enum parsed{};
        EXPECT_TRUE(parseName(row.name, &parsed)) << row.name;
        EXPECT_EQ(parsed, row.value) << row.name;
        if (isCanonical(row)) {
            EXPECT_STREQ(nameOf(row.value), row.name);
        } else {
            EXPECT_STRNE(nameOf(row.value), row.name);
        }
    }
    Enum parsed = nameTable(Enum{}).back().value;
    EXPECT_FALSE(parseName("no-such-name", &parsed));
    EXPECT_FALSE(parseName("", &parsed));
    EXPECT_EQ(parsed, nameTable(Enum{}).back().value);
    EXPECT_EQ(nameChoices<Enum>(), choices);
}

TEST(Names, EveryTableRoundTrips)
{
    // The choices strings are what the cli_unknown_* ctests match.
    checkNameTable<CoherenceProtocol>("'invalidate' or 'update'");
    checkNameTable<ClusterOrganization>("'shared' or 'private'");
    checkNameTable<NetTopology>("'atomic', 'split' or 'tree'");
    checkNameTable<NetArbitration>("'rr' or 'priority'");
    checkNameTable<MemBackendKind>("'flat' or 'banked'");
    checkNameTable<MemSched>("'fcfs' or 'frfcfs'");
    checkNameTable<ConsistencyModel>("'sc' or 'weak'");
    checkNameTable<TmMode>("'off', 'eager' or 'lazy'");
    checkNameTable<IsolationMode>(
        "'none', 'waypart', 'color' or 'rand'");
    checkNameTable<sweep::SweepModel>(
        "'cycle', 'analytic' or 'hybrid'");
    checkNameTable<server::ArrivalMode>("'open' or 'closed'");
}

TEST(ConfigDeath, BadInteger)
{
    Config config;
    config.set("n", std::string("not-a-number"));
    EXPECT_EXIT(config.getInt("n"),
                ::testing::ExitedWithCode(1), "cannot parse");
}

TEST(Table, AlignmentAndAccess)
{
    Table table("t");
    table.setHeader({"A", "Value"});
    table.addRow({"row1", Table::cell(1.5, 2)});
    table.addRow({"longer-row", Table::cell((std::uint64_t)7)});
    EXPECT_EQ(table.rows(), 2u);
    EXPECT_EQ(table.columns(), 2u);
    EXPECT_EQ(table.at(0, 1), "1.50");
    EXPECT_EQ(table.at(1, 0), "longer-row");

    std::ostringstream os;
    table.print(os);
    EXPECT_NE(os.str().find("== t =="), std::string::npos);
    EXPECT_NE(os.str().find("longer-row"), std::string::npos);
}

TEST(Table, Csv)
{
    Table table("t");
    table.setHeader({"a", "b"});
    table.addRow({"1", "2"});
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, Cells)
{
    EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
    EXPECT_EQ(Table::cell((std::uint64_t)12345), "12345");
    EXPECT_EQ(Table::percentCell(0.0123, 2), "1.23%");
}

TEST(TableDeath, RowWidthMismatch)
{
    Table table("t");
    table.setHeader({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "row width");
}

} // namespace
