/**
 * @file
 * Stable identity for one design point.
 *
 * The sweep result store is keyed by a 64-bit FNV-1a hash of the
 * machine's design point, the design-field table's rows
 * (core/design_fields.hh) over normalized(config), plus the workload
 * name and run scale. Values are serialized explicitly, not as raw
 * struct bytes, so a key is stable across compilers, padding layouts
 * and repository versions as long as the design point is unchanged
 * — the property resume correctness rests on. A new MachineConfig
 * field needs a row there; test_design_fields fails until it has one.
 */

#ifndef SCMP_SWEEP_POINT_KEY_HH
#define SCMP_SWEEP_POINT_KEY_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "core/machine.hh"

namespace scmp::sweep
{

/** Incremental FNV-1a accumulator over typed field values. */
class KeyHasher
{
  public:
    KeyHasher &mix(std::uint64_t value);
    KeyHasher &mix(std::string_view text);

    std::uint64_t value() const { return _hash; }

  private:
    static constexpr std::uint64_t offsetBasis =
        0xcbf29ce484222325ull;
    static constexpr std::uint64_t prime = 0x100000001b3ull;

    std::uint64_t _hash = offsetBasis;
};

/**
 * Hash a machine's design point: every live field of the design
 * table, in table order, under each row's key gate.
 */
std::uint64_t hashMachineConfig(const MachineConfig &config);

/**
 * The store key for one design point: configuration x workload x
 * scale. Also used as the point's deterministic RNG seed (see
 * ParallelWorkload::reseed).
 */
std::uint64_t pointKey(const MachineConfig &config,
                       std::string_view workload,
                       std::string_view scale);

/** 16-digit lowercase hex rendering of a key. */
std::string keyHex(std::uint64_t key);

/** Parse keyHex output back; false on malformed input. */
bool parseKeyHex(const std::string &text, std::uint64_t &key);

} // namespace scmp::sweep

#endif // SCMP_SWEEP_POINT_KEY_HH
