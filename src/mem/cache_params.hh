/**
 * @file
 * Parameter bundles for the cluster memory system.
 *
 * Defaults reproduce the paper's simulation model: 16-byte lines,
 * direct-mapped SCCs with four banks per processor, a fixed
 * 100-cycle line-fetch latency over the snoopy bus, and per-cluster
 * 16 KB instruction caches.
 */

#ifndef SCMP_MEM_CACHE_PARAMS_HH
#define SCMP_MEM_CACHE_PARAMS_HH

#include <cstdint>

#include "net/net_params.hh"
#include "sec/sec_params.hh"
#include "sim/names.hh"
#include "sim/types.hh"

namespace scmp
{

/**
 * Inter-cluster coherence protocol.
 *
 * WriteInvalidate is the paper's scheme (a write kills remote
 * copies; re-readers miss). WriteUpdate is the era's alternative
 * (Firefly/Dragon flavour): writes to shared lines broadcast the
 * new data, remote copies stay valid, and the writer's line stays
 * Shared — trading invalidation misses for bus update traffic.
 */
enum class CoherenceProtocol : std::uint8_t
{
    WriteInvalidate,
    WriteUpdate,
};

inline std::span<const NameRow<CoherenceProtocol>>
nameTable(CoherenceProtocol)
{
    static constexpr NameRow<CoherenceProtocol> names[] = {
        {"invalidate", CoherenceProtocol::WriteInvalidate,
         "MSI write-invalidate (default)"},
        {"update", CoherenceProtocol::WriteUpdate,
         "Firefly-style write-update"},
    };
    return names;
}

/** Shared Cluster Cache geometry and timing. */
struct SccParams
{
    /** Total data capacity in bytes (paper sweeps 4 KB .. 512 KB). */
    std::uint64_t sizeBytes = 64 * 1024;

    /** Line size; 16 B in the paper to curb false sharing. */
    std::uint32_t lineBytes = 16;

    /** Associativity; the paper's caches are direct-mapped. */
    std::uint32_t assoc = 1;

    /** Banks per processor in the cluster (paper: four). */
    std::uint32_t banksPerCpu = 4;

    /** Cycles a bank is busy per access. */
    Cycle bankOccupancy = 1;

    /** Whether a write hit on a Shared line stalls the writer. */
    bool stallOnUpgrade = false;

    /** Inter-cluster coherence protocol. */
    CoherenceProtocol protocol =
        CoherenceProtocol::WriteInvalidate;

    /**
     * Security-isolation placement policy (src/sec). The default
     * (IsolationMode::None) is the paper's fully contended shared
     * cache, bit-identical to the pre-axis machine; the axis is
     * hashed into sweep point keys only when a mitigation is on
     * (see core/design_fields.hh).
     */
    SecParams sec;
};

// BusParams (the paper's fixed bus timing) moved to
// net/net_params.hh with the rest of the interconnect vocabulary;
// re-exported through the include above.

/** Per-processor instruction cache. */
struct ICacheParams
{
    /** Whether instruction fetch is simulated at all. */
    bool enabled = false;

    /** Capacity (paper: 16 KB per processor). */
    std::uint64_t sizeBytes = 16 * 1024;

    /** Line size for instruction fetches. */
    std::uint32_t lineBytes = 32;

    /** Bytes per instruction for the synthetic PC walk. */
    std::uint32_t bytesPerInstr = 4;
};

/** Stable MSI coherence states for SCC lines. */
enum class CoherenceState : std::uint8_t
{
    Invalid,
    Shared,
    Modified,
};

/** Human-readable state name (debug/trace output). */
const char *coherenceStateName(CoherenceState state);

} // namespace scmp

#endif // SCMP_MEM_CACHE_PARAMS_HH
