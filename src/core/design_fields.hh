/**
 * @file
 * The design-point fields of MachineConfig, declared once: a row per
 * field, in the order the point key mixes them, with its record tag
 * and flag where it has one and when it is live (a change to it can
 * change a simulated result). The point key (sweep/point_key.cc),
 * the store's tags and the machine flags all read this table;
 * tests/test_design_fields.cpp proves it complete.
 */

#ifndef SCMP_CORE_DESIGN_FIELDS_HH
#define SCMP_CORE_DESIGN_FIELDS_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>

#include "core/machine.hh"
#include "sim/config.hh"

namespace scmp
{

/** A yes/no question about a whole configuration. */
using ConfigTest = bool (*)(const MachineConfig &config);

/** One design-point field; its access is generated from its path. */
struct DesignField
{
    const char *path = nullptr;  //!< member path, e.g. "net.segments"
    const char *tag = nullptr;   //!< record tag, or null
    const char *flag = nullptr;  //!< flag name without "--", or null
    bool bytes = false;          //!< the flag is a size such as 64K
    ConfigTest live = nullptr;   //!< null: always live
    /**
     * When the key mixes the field, evaluated on normalized(); null:
     * while live. Set, it is the per-axis gate keys have always had
     * (an axis's fields only once the axis is on).
     */
    ConfigTest keyed = nullptr;
    /** The value the field takes effect up to; null: no cap. */
    std::uint64_t (*cap)(const MachineConfig &config) = nullptr;
    bool quoted = false;  //!< the tag is a JSON string (an enum's name)
    std::uint64_t (*get)(const MachineConfig &config) = nullptr;
    void (*set)(MachineConfig &config, std::uint64_t value) = nullptr;
    /** The value as a record tags it. */
    std::string (*text)(const MachineConfig &config) = nullptr;
    /** Read --flag into the field, its value the default. */
    void (*read)(const DesignField &row, const Config &flags,
                 MachineConfig &config) = nullptr;

    bool isLive(const MachineConfig &c) const { return !live || live(c); }
};

/** Every design-point field, in the order the point key mixes them. */
extern const std::span<const DesignField> designFields;
/** Members that only observe a run: never hashed, tagged or read. */
extern const std::span<const char *const> instrumentationFields;

/** The row tagged @p tag; panics if there is none. */
const DesignField &taggedField(std::string_view tag);

/**
 * @p config with dead fields at their defaults and capped ones at
 * the value they take effect as (the default if that builds the
 * default's machine).
 */
MachineConfig normalized(const MachineConfig &config);

/**
 * Read @p config's flagged fields (those in @p only, if given) from
 * @p flags by type: an enum's names, a bool, a size, or an integer
 * the field can hold. An absent flag keeps the field's value.
 */
void readFlags(const Config &flags, MachineConfig &config,
               std::initializer_list<std::string_view> only = {});

} // namespace scmp

#endif // SCMP_CORE_DESIGN_FIELDS_HH
