/**
 * @file
 * Parameter bundles for the inter-cluster interconnect (src/net).
 *
 * The bus transaction vocabulary (BusOp) and the paper's fixed
 * bus timing (BusParams) live here so every fabric speaks the same
 * protocol; NetParams selects which fabric carries it.
 */

#ifndef SCMP_NET_NET_PARAMS_HH
#define SCMP_NET_NET_PARAMS_HH

#include <cstdint>

#include "sim/names.hh"
#include "sim/types.hh"

namespace scmp
{

/** Bus transaction kinds for the snoopy protocol. */
enum class BusOp : std::uint8_t
{
    Read,       //!< read miss — fetch a shared copy
    ReadExcl,   //!< write miss — fetch an exclusive copy
    Upgrade,    //!< write hit on Shared — invalidate other copies
    Update,     //!< write-update broadcast of new data
    WriteBack,  //!< evicted Modified line returns to memory
};

/** Human-readable bus op name. */
const char *busOpName(BusOp op);

/**
 * Snoopy inter-cluster bus timing.
 *
 * The paper's simulator uses a FIXED 100-cycle line-fetch latency
 * and models contention only at the SCC banks, so the faithful
 * default is a fully-pipelined bus (near-zero occupancy). The
 * occupancy knobs enable the bus-contention ablation study
 * (bench/ablation_bus), which shows how a real 1990s bus would
 * cap the 32-processor configurations.
 */
struct BusParams
{
    /** Fixed line-fetch latency from memory or a remote SCC. */
    Cycle memoryLatency = 100;

    /** Bus cycles consumed by a line transfer transaction. */
    Cycle transferOccupancy = 1;

    /** Bus cycles consumed by an address-only transaction. */
    Cycle addressOccupancy = 1;
};

/** Which fabric carries the inter-cluster coherence traffic. */
enum class NetTopology : std::uint8_t
{
    /** The paper's single atomic snoopy bus (the default). */
    Atomic,
    /** Split-transaction bus: address and data phases decoupled. */
    Split,
    /** Leaf bus segments under a root bus with a snoop filter. */
    Tree,
};

inline std::span<const NameRow<NetTopology>>
nameTable(NetTopology)
{
    static constexpr NameRow<NetTopology> names[] = {
        {"atomic", NetTopology::Atomic,
         "single atomic snoopy bus (the paper's, default)"},
        {"split", NetTopology::Split,
         "split-transaction bus (--arbitration=rr|priority)"},
        {"tree", NetTopology::Tree,
         "leaf bus segments + root bus with snoop filter "
         "(--segments=N,\nbound it with --sf-cap=N: LRU eviction + "
         "back-invalidation)"},
    };
    return names;
}

/** Arbitration discipline for contended grants (SplitBus). */
enum class NetArbitration : std::uint8_t
{
    /** Fair FCFS: every loser pays one flat arbitration delay. */
    RoundRobin,
    /** Daisy chain: cluster 0 wins free; loser c pays c slots. */
    Priority,
};

inline std::span<const NameRow<NetArbitration>>
nameTable(NetArbitration)
{
    static constexpr NameRow<NetArbitration> names[] = {
        {"rr", NetArbitration::RoundRobin},
        {"priority", NetArbitration::Priority},
        {"round-robin", NetArbitration::RoundRobin},
    };
    return names;
}

/**
 * Most leaf segments a tree can have: its snoop filter keeps one
 * presence bit per segment in a 32-bit mask.
 */
constexpr int maxTreeSegments = 32;

/** Interconnect selection — one axis of the design space. */
struct NetParams
{
    NetTopology topology = NetTopology::Atomic;

    /**
     * Tree only: number of leaf bus segments, capped at the cache
     * count; at most maxTreeSegments after the cap.
     */
    int segments = 2;

    /** Split only: arbitration discipline under contention. */
    NetArbitration arbitration = NetArbitration::RoundRobin;

    /** Cycles added to a grant that lost arbitration. */
    Cycle arbLatency = 1;

    /**
     * Tree only: snoop-filter directory entries (lines tracked).
     * 0 keeps the filter unbounded; a bound evicts LRU entries and
     * back-invalidates their sharers to preserve inclusion.
     */
    std::uint64_t snoopFilterCapacity = 0;
};

} // namespace scmp

#endif // SCMP_NET_NET_PARAMS_HH
