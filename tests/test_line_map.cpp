/**
 * @file
 * Tests for the flat open-addressing line table (LineMap), keyed
 * by line address: a randomized cross-check against
 * std::unordered_map, directed probes of the backward-shift
 * deletion, and forEach over a record-valued table.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "sim/line_map.hh"
#include "sim/rng.hh"

namespace
{

using namespace scmp;

TEST(LineMap, BasicSetFindErase)
{
    LineMap<Cycle> table;
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(0x1000), nullptr);

    table.set(0x1000, 120);
    ASSERT_NE(table.find(0x1000), nullptr);
    EXPECT_EQ(*table.find(0x1000), 120u);
    EXPECT_EQ(table.size(), 1u);

    // Overwrite keeps one entry.
    table.set(0x1000, 140);
    EXPECT_EQ(*table.find(0x1000), 140u);
    EXPECT_EQ(table.size(), 1u);

    EXPECT_TRUE(table.erase(0x1000));
    EXPECT_FALSE(table.erase(0x1000));
    EXPECT_EQ(table.find(0x1000), nullptr);
    EXPECT_TRUE(table.empty());
}

TEST(LineMap, FindIsMutable)
{
    LineMap<Cycle> table;
    table.set(0x40, 7);
    *table.find(0x40) = 9;
    EXPECT_EQ(*table.find(0x40), 9u);
}

TEST(LineMap, ConstFindSeesWhatMutableFindSees)
{
    // The tree's presenceMask() reads its directory through a const
    // table: the const find must agree with the mutable one on hits,
    // misses, after an erase and across growths.
    LineMap<std::uint32_t> table(4);
    const LineMap<std::uint32_t> &view = table;
    EXPECT_EQ(view.find(0x40), nullptr);
    for (Addr a = 1; a <= 100; ++a)
        table.set(a * 0x40, (std::uint32_t)a);
    table.erase(7 * 0x40);
    for (Addr a = 1; a <= 101; ++a) {
        const std::uint32_t *found = view.find(a * 0x40);
        ASSERT_EQ(found, table.find(a * 0x40)) << a;
        if (a == 7 || a == 101) {
            EXPECT_EQ(found, nullptr) << a;
        } else {
            EXPECT_EQ(*found, a);
        }
    }
    // The const view sees writes made through the mutable pointer.
    *table.find(0x40) = 99;
    EXPECT_EQ(*view.find(0x40), 99u);
}

TEST(LineMap, GrowPreservesEntries)
{
    LineMap<Cycle> table(4);  // force several growths
    for (Addr a = 1; a <= 200; ++a)
        table.set(a * 0x40, (Cycle)a);
    EXPECT_EQ(table.size(), 200u);
    for (Addr a = 1; a <= 200; ++a) {
        ASSERT_NE(table.find(a * 0x40), nullptr) << a;
        EXPECT_EQ(*table.find(a * 0x40), (Cycle)a);
    }
}

TEST(LineMap, ClearEmptiesTable)
{
    LineMap<Cycle> table;
    for (Addr a = 1; a <= 20; ++a)
        table.set(a * 0x40, 1);
    table.clear();
    EXPECT_TRUE(table.empty());
    for (Addr a = 1; a <= 20; ++a)
        EXPECT_EQ(table.find(a * 0x40), nullptr);
}

TEST(LineMap, ForEachVisitsEveryEntryOnceAndCanMutate)
{
    // The reuse profiler renumbers its stack slots through forEach
    // with a record value type; every live entry must be visited
    // exactly once, after growths and an erase, and edits must stick.
    struct Record
    {
        std::uint32_t slot = 0;
        std::int16_t tag = -1;
    };
    LineMap<Record> table(4);
    for (Addr a = 1; a <= 100; ++a)
        table.set(a * 0x40, Record{(std::uint32_t)a, 0});
    table.erase(50 * 0x40);
    std::vector<int> visits(101, 0);
    table.forEach([&visits](Addr key, Record &record) {
        ++visits[key / 0x40];
        record.slot *= 2;
    });
    for (Addr a = 1; a <= 100; ++a) {
        EXPECT_EQ(visits[a], a == 50 ? 0 : 1) << a;
        if (a != 50) {
            EXPECT_EQ(table.find(a * 0x40)->slot, 2 * a);
        }
    }
}

TEST(LineMap, EraseFromProbeChainKeepsFollowersReachable)
{
    // Build a colliding chain, then delete from the middle and the
    // front: backward-shift deletion must keep every survivor
    // findable (this is where tombstone-free tables usually break).
    LineMap<Cycle> table(8);  // small, so collisions are guaranteed
    std::vector<Addr> keys;
    for (Addr a = 1; a <= 6; ++a)
        keys.push_back(a * 0x40);
    for (std::size_t i = 0; i < keys.size(); ++i)
        table.set(keys[i], (Cycle)(i + 1));

    EXPECT_TRUE(table.erase(keys[2]));
    EXPECT_TRUE(table.erase(keys[0]));
    EXPECT_EQ(table.size(), keys.size() - 2);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i == 0 || i == 2) {
            EXPECT_EQ(table.find(keys[i]), nullptr);
            continue;
        }
        ASSERT_NE(table.find(keys[i]), nullptr) << i;
        EXPECT_EQ(*table.find(keys[i]), (Cycle)(i + 1));
    }
}

TEST(LineMap, RandomizedAgainstUnorderedMap)
{
    LineMap<Cycle> table(4);
    std::unordered_map<Addr, Cycle> model;
    Rng rng(0x715b5eedull);
    // Small key universe so inserts, overwrites and erases all hit
    // both present and absent keys constantly.
    constexpr Addr universe = 64;
    for (int i = 0; i < 50000; ++i) {
        Addr key = (rng.range(universe) + 1) * 0x40;
        std::uint64_t op = rng.range(10);
        if (op < 5) {
            Cycle ready = rng.next() & 0xffff;
            table.set(key, ready);
            model[key] = ready;
        } else if (op < 8) {
            EXPECT_EQ(table.erase(key), model.erase(key) > 0);
        } else {
            Cycle *found = table.find(key);
            auto it = model.find(key);
            ASSERT_EQ(found != nullptr, it != model.end());
            if (found) {
                EXPECT_EQ(*found, it->second);
            }
        }
        ASSERT_EQ(table.size(), model.size());
    }
    for (const auto &[key, ready] : model) {
        ASSERT_NE(table.find(key), nullptr);
        EXPECT_EQ(*table.find(key), ready);
    }
}

TEST(LineMapDeath, RejectsInvalidAddrKey)
{
    LineMap<Cycle> table;
    EXPECT_DEATH(table.set(invalidAddr, 1), "real line address");
}

} // namespace
