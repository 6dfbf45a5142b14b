/**
 * @file
 * Set-associative SCC behaviour: conflict elimination, LRU within
 * sets, and geometry sweeps as properties.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mem/scc.hh"
#include "net/atomic_bus.hh"

namespace
{

using namespace scmp;

struct AssocCase
{
    std::uint32_t ways;
    std::uint64_t size;
};

class SccAssocTest : public ::testing::TestWithParam<AssocCase>
{
  protected:
    void
    SetUp() override
    {
        root = std::make_unique<stats::Group>("t");
        bus = std::make_unique<AtomicBus>(root.get(), BusParams{});
        SccParams params;
        params.assoc = GetParam().ways;
        params.sizeBytes = GetParam().size;
        scc = std::make_unique<SharedClusterCache>(
            root.get(), 0, 2, params, bus.get());
        bus->attach(scc.get());
    }

    std::unique_ptr<stats::Group> root;
    std::unique_ptr<AtomicBus> bus;
    std::unique_ptr<SharedClusterCache> scc;
};

TEST_P(SccAssocTest, WaysLinesCoResideInOneSet)
{
    // N addresses that map to the same set must all stay resident
    // when N == ways (and evict when N == ways + 1).
    std::uint32_t ways = GetParam().ways;
    std::uint64_t stride = GetParam().size / ways;  // way size

    Cycle now = 0;
    for (std::uint32_t i = 0; i < ways; ++i) {
        scc->access(0, RefType::Read, (Addr)i * stride, now);
        now += 500;
    }
    // All must now hit.
    double missesBefore = scc->readMisses.value();
    for (std::uint32_t i = 0; i < ways; ++i) {
        scc->access(0, RefType::Read, (Addr)i * stride, now);
        now += 500;
    }
    EXPECT_EQ(scc->readMisses.value(), missesBefore);

    // One more conflicting line must evict the LRU way.
    scc->access(0, RefType::Read, (Addr)ways * stride, now);
    now += 500;
    EXPECT_EQ(scc->readMisses.value(), missesBefore + 1);
    scc->access(0, RefType::Read, 0, now);
    now += 500;
    EXPECT_EQ(scc->readMisses.value(), missesBefore + 2)
        << "address 0 should have been the LRU victim";
}

INSTANTIATE_TEST_SUITE_P(
    Ways, SccAssocTest,
    ::testing::Values(AssocCase{1, 16 << 10},
                      AssocCase{2, 16 << 10},
                      AssocCase{4, 32 << 10},
                      AssocCase{8, 64 << 10}));

TEST(SccAssoc, TwoWayRemovesPingPongConflict)
{
    stats::Group root("t");

    // Each run gets its own bus: a bus keeps its snoopers' pointers,
    // and each cache here dies with its run.
    auto missesFor = [&](std::uint32_t ways) {
        stats::Group group(&root, "scc" + std::to_string(ways));
        AtomicBus bus(&group, BusParams{});
        SccParams params;
        params.assoc = ways;
        params.sizeBytes = 8 << 10;
        SharedClusterCache scc(&group, 0, 1, params, &bus);
        bus.attach(&scc);
        // Alternate two addresses that conflict direct-mapped.
        Addr a = 0;
        Addr b = params.sizeBytes / ways;
        Cycle now = 0;
        for (int i = 0; i < 40; ++i) {
            scc.access(0, RefType::Read, i % 2 ? a : b, now);
            now += 500;
        }
        return scc.readMisses.value();
    };
    // Direct-mapped: every access misses. Two-way: two cold
    // misses only. (b = size/ways keeps the pair in one set for
    // the direct-mapped case and in one set for 2-way as well.)
    EXPECT_GT(missesFor(1), 30.0);
    EXPECT_EQ(missesFor(2), 2.0);
}

} // namespace
