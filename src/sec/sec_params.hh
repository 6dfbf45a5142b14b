/**
 * @file
 * Parameter vocabulary for the SCC isolation (security) axis.
 *
 * The shared cluster cache is a textbook prime+probe side channel
 * between cluster-mates: a victim's secret-dependent fills evict a
 * spy's primed lines, and the spy reads the secret back out of its
 * probe latencies. This axis prices the classic mitigations into
 * the design space:
 *
 *  - waypart: per-domain way partitioning (DAWG/CATalyst-style).
 *    Replacement for a domain is confined to its own ways, so a
 *    victim fill can never evict a spy line. Hits may still cross
 *    domains (there is one copy of every line — coherence is
 *    untouched), only *eviction* is partitioned.
 *  - color: set coloring. The index space is carved into one
 *    region per domain; a domain's fills land only in its region.
 *  - rand: randomized indexing (CEASER-style). Each domain indexes
 *    through its own keyed hash, decorrelating the spy's set map
 *    from the victim's, with deterministic epoch rekeying (a full
 *    flush) to bound how long any accidental alignment survives.
 *
 * `none` is the paper's machine and the bit-identical default: the
 * axis is hashed into sweep point keys only when a mitigation is
 * on (its rows' key gate in core/design_fields.hh), so every stored
 * key and golden fixture predating the axis stays valid.
 */

#ifndef SCMP_SEC_SEC_PARAMS_HH
#define SCMP_SEC_SEC_PARAMS_HH

#include <cstdint>

#include "sim/names.hh"

namespace scmp
{

/** How the shared SCC isolates security domains from each other. */
enum class IsolationMode : std::uint8_t
{
    None,     //!< the paper's fully contended shared cache
    WayPart,  //!< per-domain way partitioning
    Color,    //!< per-domain set coloring
    Rand,     //!< per-domain keyed index hash + epoch rekeying
};

inline std::span<const NameRow<IsolationMode>>
nameTable(IsolationMode)
{
    static constexpr NameRow<IsolationMode> names[] = {
        {"none", IsolationMode::None,
         "open shared cache — every line contends everywhere "
         "(default)"},
        {"waypart", IsolationMode::WayPart,
         "way partitioning: each domain fills only its own ways per "
         "set"},
        {"color", IsolationMode::Color,
         "set coloring: the index space is carved into per-domain "
         "regions"},
        {"rand", IsolationMode::Rand,
         "randomized indexing: per-domain keyed index hash, rekeyed "
         "and\nflushed every --rekey-fills=N fills"},
    };
    return names;
}

/** SCC isolation axis (security domain = localCpu % domains). */
struct SecParams
{
    IsolationMode mode = IsolationMode::None;

    /** Security domains sharing each SCC. */
    int domains = 2;

    /**
     * Rand only: fills between deterministic rekey flushes. Every
     * rekey re-derives the per-domain index keys and empties the
     * cache (dirty lines written back), so a spy's painstakingly
     * learned set mapping dies with the epoch. 0 disables rekeying.
     */
    std::uint64_t rekeyFills = 4096;

    /** Rand only: base key the per-domain/per-epoch keys derive from. */
    std::uint64_t key = 0x5ecc0ffee1234567ull;
};

} // namespace scmp

#endif // SCMP_SEC_SEC_PARAMS_HH
