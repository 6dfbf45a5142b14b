/**
 * @file
 * Transactional-memory axis parameters — `--tm={off,eager,lazy}`.
 *
 * Off is the bit-identical default: a machine built with
 * `TmParams{}` constructs no manager, routes no reference through
 * transactional code, and hashes to exactly the point key it had
 * before the axis existed (the `tm.*` rows of the design-field
 * table, core/design_fields.hh, are dead and unhashed under off).
 */

#ifndef SCMP_TM_TM_PARAMS_HH
#define SCMP_TM_TM_PARAMS_HH

#include <cstdint>

#include "sim/names.hh"
#include "sim/types.hh"

namespace scmp
{

/** Conflict-resolution discipline — one axis of the design space. */
enum class TmMode : std::uint8_t
{
    /** No transactional memory (the default). */
    Off,
    /** LogTM-style: conflicts detected at access/snoop time. */
    Eager,
    /** TSX-style: write set validated and published at commit. */
    Lazy,
};

inline std::span<const NameRow<TmMode>>
nameTable(TmMode)
{
    static constexpr NameRow<TmMode> names[] = {
        {"off", TmMode::Off,
         "plain locks — the baseline TM speedups divide by (default)"},
        {"eager", TmMode::Eager,
         "LogTM-style: conflicts detected at access time, requester\n"
         "aborts on an older conflictor (timestamp tiebreak)"},
        {"lazy", TmMode::Lazy,
         "TSX-style: conflicts detected at commit, committer wins"},
    };
    return names;
}

/** HTM selection. Dead under Off (see core/design_fields.hh). */
struct TmParams
{
    TmMode mode = TmMode::Off;

    /**
     * Read/write-set capacity per processor, in cache lines. The
     * sets are exact (no Bloom false conflicts); a transaction
     * whose footprint would exceed this aborts with a capacity
     * abort and — after maxAborts attempts — falls back to the
     * global lock, which guarantees forward progress at any size.
     */
    int setEntries = 64;

    /** Aborts tolerated before a transaction takes the fallback. */
    int maxAborts = 8;

    /** Base of the exponential retry backoff, in cycles. */
    Cycle backoffBase = 32;

    /** Fixed cost of entering a transaction (checkpoint). */
    Cycle beginCost = 4;

    /** Fixed cost of a commit, before publication traffic. */
    Cycle commitCost = 8;

    /** Fixed cost of an abort (restore checkpoint, drop lines). */
    Cycle abortCost = 16;
};

} // namespace scmp

#endif // SCMP_TM_TM_PARAMS_HH
