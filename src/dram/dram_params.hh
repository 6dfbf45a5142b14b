/**
 * @file
 * Parameter bundles for the memory backend (src/dram).
 *
 * MemBackendKind selects how line fetches behind the interconnect
 * are timed: the paper's flat fixed latency (the default, and the
 * contract every golden fixture pins) or a banked DRAM model with
 * row-buffer state and per-channel scheduling. DramParams carries
 * the banked model's geometry and timing; with the flat backend it
 * is dead, so the sweep point key hashes it only off the default
 * (its rows' key gate in core/design_fields.hh).
 */

#ifndef SCMP_DRAM_DRAM_PARAMS_HH
#define SCMP_DRAM_DRAM_PARAMS_HH

#include <cstdint>

#include "sim/names.hh"
#include "sim/types.hh"

namespace scmp
{

/** Which timing model terminates line fetches. */
enum class MemBackendKind : std::uint8_t
{
    /** The paper's fixed memoryLatency per fetch (the default). */
    Flat,
    /** Channels x banks with open-row state and request queues. */
    Banked,
};

inline std::span<const NameRow<MemBackendKind>>
nameTable(MemBackendKind)
{
    static constexpr NameRow<MemBackendKind> names[] = {
        {"flat", MemBackendKind::Flat,
         "fixed-latency memory (the paper's, default)"},
        {"banked", MemBackendKind::Banked,
         "channels x banks open-row DRAM (--channels=N "
         "--mem-banks=N\n--mem-sched=fcfs|frfcfs; NUMA segments "
         "under --net=tree)"},
    };
    return names;
}

/** Command scheduling discipline at each DRAM channel. */
enum class MemSched : std::uint8_t
{
    /** Strict arrival order per channel, banks never reordered. */
    Fcfs,
    /**
     * First-ready FCFS: requests serialize only on their own bank
     * and the channel data bus, so accesses to idle banks overtake
     * queued work for busy ones — the bank-level parallelism
     * schedulers exist to harvest.
     */
    FrFcfs,
};

inline std::span<const NameRow<MemSched>>
nameTable(MemSched)
{
    static constexpr NameRow<MemSched> names[] = {
        {"fcfs", MemSched::Fcfs},
        {"frfcfs", MemSched::FrFcfs},
        {"fr-fcfs", MemSched::FrFcfs},
    };
    return names;
}

/**
 * Banked DRAM timing, DRAMSim2-style open-row semantics: a bank
 * access costs CAS only when the wanted row is already open (hit),
 * activate+CAS when the bank is idle (miss), and
 * precharge+activate+CAS when a different row occupies the buffer
 * (conflict). Every access then streams the line over its channel's
 * data bus for burst cycles.
 */
struct DramTiming
{
    Cycle rowHit = 30;
    Cycle rowMiss = 70;
    Cycle rowConflict = 110;
    Cycle burst = 8;
};

/** Memory backend selection — one axis of the design space. */
struct DramParams
{
    MemBackendKind kind = MemBackendKind::Flat;

    /** Banked only: independent channels (data buses). */
    int channels = 2;

    /** Banked only: banks per channel (row buffers). */
    int banks = 4;

    /** Banked only: per-channel scheduling discipline. */
    MemSched sched = MemSched::Fcfs;

    /** Banked only: bytes covered by one row buffer. */
    std::uint64_t rowBytes = 2048;

    /**
     * Tree + banked only: extra fill cycles when the requester's
     * segment is not the line's home segment (NUMA remote access).
     */
    Cycle numaRemotePenalty = 40;

    DramTiming timing;
};

} // namespace scmp

#endif // SCMP_DRAM_DRAM_PARAMS_HH
