/**
 * @file
 * Tests for the cache tag/state array.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/tag_array.hh"
#include "sim/rng.hh"

namespace
{

using namespace scmp;

TEST(TagArray, Geometry)
{
    TagArray tags(64 << 10, 16, 1);
    EXPECT_EQ(tags.numSets(), 4096u);
    EXPECT_EQ(tags.lineBytes(), 16u);
    EXPECT_EQ(tags.lineAddr(0x12345), 0x12340u);
    EXPECT_EQ(tags.setIndex(0x10),
              tags.setIndex(0x10 + (64 << 10)));
}

TEST(TagArray, FillLookupInvalidate)
{
    TagArray tags(4 << 10, 16, 1);
    EXPECT_EQ(tags.lookup(0x100), nullptr);
    tags.fill(tags.victim(0x100), 0x100,
              CoherenceState::Shared);
    CacheLine *line = tags.lookup(0x108);  // same line
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Shared);
    EXPECT_TRUE(tags.invalidate(0x100));
    EXPECT_EQ(tags.lookup(0x100), nullptr);
    EXPECT_FALSE(tags.invalidate(0x100));
}

TEST(TagArray, DirectMappedConflict)
{
    TagArray tags(4 << 10, 16, 1);
    Addr a = 0x0;
    Addr b = a + (4 << 10);  // same set, different tag
    tags.fill(tags.victim(a), a, CoherenceState::Shared);
    tags.fill(tags.victim(b), b, CoherenceState::Shared);
    EXPECT_EQ(tags.lookup(a), nullptr) << "a must be evicted";
    EXPECT_NE(tags.lookup(b), nullptr);
}

TEST(TagArray, LruEvictionOrder)
{
    TagArray tags(64, 16, 4);  // one set, four ways
    Addr addrs[] = {0x000, 0x100, 0x200, 0x300};
    for (Addr a : addrs)
        tags.fill(tags.victim(a), a, CoherenceState::Shared);
    // Touch everything except 0x100; it becomes the LRU victim.
    tags.lookup(0x000);
    tags.lookup(0x200);
    tags.lookup(0x300);
    CacheLine *victim = tags.victim(0x400);
    EXPECT_EQ(victim->tag, 0x100u);
}

TEST(TagArray, VictimPrefersInvalid)
{
    TagArray tags(64, 16, 4);
    tags.fill(tags.victim(0x000), 0x000,
              CoherenceState::Modified);
    CacheLine *victim = tags.victim(0x500);
    EXPECT_FALSE(victim->valid());
}

TEST(TagArray, ValidLineCount)
{
    TagArray tags(1 << 10, 16, 2);
    EXPECT_EQ(tags.validLines(), 0u);
    for (Addr a = 0; a < 256; a += 16)
        tags.fill(tags.victim(a), a, CoherenceState::Shared);
    EXPECT_EQ(tags.validLines(), 16u);
}

TEST(TagArray, InvalidateResetsLruStamp)
{
    // A stale stamp on an Invalid line is harmless for victim
    // selection (invalid ways are taken first) but trips the
    // unique-stamps invariant and makes set state depend on dead
    // history; invalidate() must clear it.
    TagArray tags(64, 16, 4);
    Addr addrs[] = {0x000, 0x100, 0x200, 0x300};
    for (Addr a : addrs)
        tags.fill(tags.victim(a), a, CoherenceState::Shared);
    ASSERT_TRUE(tags.invalidate(0x200));

    int invalidLines = 0;
    tags.forEachLine([&](const CacheLine &line) {
        if (!line.valid()) {
            ++invalidLines;
            EXPECT_EQ(line.lruStamp, 0u)
                << "invalidate must reset the LRU stamp";
        }
    });
    EXPECT_EQ(invalidLines, 1);

    // The invalidated way is re-picked as victim (invalid first),
    // and after the refill the LRU order reflects only live fills:
    // 0x000 is now the oldest valid line.
    CacheLine *victim = tags.victim(0x400);
    EXPECT_FALSE(victim->valid());
    tags.fill(victim, 0x400, CoherenceState::Shared);
    EXPECT_EQ(tags.victim(0x500)->tag, 0x000u);
}

TEST(TagArray, FillAndInvalidateClearTheOutstandingFill)
{
    // A line's readyAt is the SCC's MSHR: a new tenancy starts with
    // none, and an invalidated way carries none.
    TagArray tags(64, 16, 4);
    CacheLine *line = tags.victim(0x100);
    tags.fill(line, 0x100, CoherenceState::Shared);
    EXPECT_EQ(line->readyAt, 0u);
    line->readyAt = 500;
    ASSERT_TRUE(tags.invalidate(0x100));
    EXPECT_EQ(line->readyAt, 0u);

    line->readyAt = 700;
    tags.fill(line, 0x200, CoherenceState::Modified);
    EXPECT_EQ(line->readyAt, 0u);
}

TEST(TagArray, ProbeMissesInvalidatedAndOverwrittenWays)
{
    // A way that was just hit, then invalidated or overwritten with
    // another tag, must miss for its old tag while the rest of the
    // set still hits.
    TagArray tags(64, 16, 4);
    Addr addrs[] = {0x000, 0x100, 0x200, 0x300};
    for (Addr a : addrs)
        tags.fill(tags.victim(a), a, CoherenceState::Shared);

    // Hit 0x300, then invalidate it.
    ASSERT_NE(tags.probe(0x300), nullptr);
    ASSERT_TRUE(tags.invalidate(0x300));
    EXPECT_EQ(tags.probe(0x300), nullptr);
    ASSERT_NE(tags.probe(0x000), nullptr);  // scan still works
    EXPECT_EQ(tags.probe(0x000)->tag, 0x000u);

    // Refill the freed way with a different tag; the old tag must
    // miss and the new one must hit.
    tags.fill(tags.victim(0x400), 0x400, CoherenceState::Shared);
    EXPECT_EQ(tags.probe(0x300), nullptr);
    ASSERT_NE(tags.probe(0x400), nullptr);
    EXPECT_EQ(tags.probe(0x400)->tag, 0x400u);

    // const probe must agree with the mutable one.
    const TagArray &ctags = tags;
    EXPECT_EQ(ctags.probe(0x300), nullptr);
    ASSERT_NE(ctags.probe(0x400), nullptr);
}

TEST(TagArray, RandomizedResidencyMatchesModel)
{
    // Drive fills, probes, lookups and invalidates against a plain
    // map of resident lines; probe()/lookup() must agree with the
    // model at every step.
    TagArray tags(1 << 10, 16, 4);
    Rng rng(0xfeedULL);
    std::set<Addr> resident;
    for (int i = 0; i < 20000; ++i) {
        Addr addr = (rng.range(1 << 12)) << 4;  // 4096 distinct lines
        Addr la = tags.lineAddr(addr);
        switch (rng.range(4)) {
          case 0: {  // fill (evicting whatever victim() picks)
            if (!tags.probe(la)) {
                CacheLine *victim = tags.victim(la);
                if (victim->valid())
                    resident.erase(victim->tag);
                tags.fill(victim, la, CoherenceState::Shared);
                resident.insert(la);
            }
            break;
          }
          case 1: {  // invalidate
            bool was = resident.erase(la) > 0;
            EXPECT_EQ(tags.invalidate(la), was);
            break;
          }
          case 2: {  // probe
            CacheLine *line = tags.probe(la);
            EXPECT_EQ(line != nullptr, resident.count(la) > 0);
            if (line) {
                EXPECT_EQ(line->tag, la);
            }
            break;
          }
          default: {  // lookup (touches LRU)
            CacheLine *line = tags.lookup(la);
            EXPECT_EQ(line != nullptr, resident.count(la) > 0);
            break;
          }
        }
        ASSERT_EQ(tags.validLines(), resident.size());
    }
}

struct Geometry
{
    std::uint64_t size;
    std::uint32_t line;
    std::uint32_t assoc;
};

class TagArrayPropertyTest
    : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(TagArrayPropertyTest, WorkingSetWithinWaysAlwaysHits)
{
    // Property: any set of lines that maps to distinct sets (or
    // fits within the ways of a set) stays resident.
    auto geometry = GetParam();
    TagArray tags(geometry.size, geometry.line, geometry.assoc);
    Rng rng(geometry.size ^ geometry.assoc);

    // Pick one line per set; they can never evict each other.
    std::vector<Addr> lines;
    for (std::uint64_t set = 0; set < tags.numSets(); ++set)
        lines.push_back(set * geometry.line);
    for (Addr a : lines)
        tags.fill(tags.victim(a), a, CoherenceState::Shared);
    for (int round = 0; round < 3; ++round) {
        for (Addr a : lines)
            EXPECT_NE(tags.lookup(a), nullptr);
    }
    EXPECT_EQ(tags.validLines(), tags.numSets());
}

TEST_P(TagArrayPropertyTest, RandomFillNeverCorruptsMapping)
{
    auto geometry = GetParam();
    TagArray tags(geometry.size, geometry.line, geometry.assoc);
    Rng rng(42);
    for (int i = 0; i < 5000; ++i) {
        Addr addr = rng.next() & 0xffffff0;
        CacheLine *line = tags.lookup(addr);
        if (!line) {
            tags.fill(tags.victim(addr), addr,
                      CoherenceState::Shared);
            line = tags.lookup(addr);
        }
        ASSERT_NE(line, nullptr);
        // The line's tag must map back to the set we looked in.
        EXPECT_EQ(tags.setIndex(line->tag), tags.setIndex(addr));
        EXPECT_EQ(line->tag, tags.lineAddr(addr));
    }
    EXPECT_LE(tags.validLines(),
              tags.numSets() * geometry.assoc);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagArrayPropertyTest,
    ::testing::Values(Geometry{4 << 10, 16, 1},
                      Geometry{8 << 10, 16, 2},
                      Geometry{16 << 10, 32, 4},
                      Geometry{64 << 10, 16, 1},
                      Geometry{1 << 10, 64, 8}));

TEST(TagArrayDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(TagArray(1000, 16, 1),
                ::testing::ExitedWithCode(1), "must be");
    EXPECT_EXIT(TagArray(4096, 24, 1),
                ::testing::ExitedWithCode(1), "line size");
    EXPECT_EXIT(TagArray(4096, 16, 0),
                ::testing::ExitedWithCode(1), "associativity");
}

} // namespace
