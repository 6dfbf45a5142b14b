/**
 * @file
 * A light key/value configuration system.
 *
 * Benches and examples parse "--key=value" command-line options into
 * a Config; library components read typed parameters with defaults.
 * Every read is tracked, so a key nothing read — a typo in a sweep
 * script — fails loudly (rejectUnread()).
 */

#ifndef SCMP_SIM_CONFIG_HH
#define SCMP_SIM_CONFIG_HH

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/names.hh"

namespace scmp
{

/** String-keyed configuration with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    /** @return true if the key was explicitly set. */
    bool has(const std::string &key) const;

    /**
     * Typed reads; missing keys return the supplied default, present
     * keys that fail to parse are a fatal user error.
     */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    std::int64_t getInt(const std::string &key,
                        std::int64_t def = 0) const;
    /**
     * getInt() for a flag whose legal values are [@p lo, @p hi]; a
     * value outside is a fatal user error naming the flag (--key)
     * and the range.
     */
    std::int64_t getIntIn(const std::string &key, std::int64_t def,
                          std::int64_t lo, std::int64_t hi) const;
    /** getIntIn() over the values @p T can hold. */
    template <std::integral T>
    T getIntAs(const std::string &key, std::type_identity_t<T> def) const
    {
        using Limits = std::numeric_limits<T>;
        constexpr std::uint64_t hi = std::min<std::uint64_t>(
            Limits::max(), std::numeric_limits<std::int64_t>::max());
        return has(key) ? (T)getIntIn(key, 0, Limits::min(), hi) : def;
    }
    std::uint64_t getSize(const std::string &key,
                          std::uint64_t def = 0) const;
    /**
     * A comma-separated list flag such as --procs=1,2,8: @p def
     * when the key is absent. An element that is not an int of at
     * least @p least is a fatal user error naming --key.
     */
    std::vector<int> getIntList(const std::string &key,
                                std::vector<int> def,
                                int least) const;
    /** The same for sizes with K/M/G suffixes (--sizes=4K,32K). */
    std::vector<std::uint64_t>
    getSizeList(const std::string &key,
                std::vector<std::uint64_t> def) const;
    double getDouble(const std::string &key, double def = 0.0) const;
    bool getBool(const std::string &key, bool def = false) const;

    /**
     * An enum flag, named through its table (sim/names.hh). A name
     * the table lacks is a fatal user error:
     * "--key must be 'a', 'b' or 'c' (got 'x')".
     */
    template <class Enum>
    Enum getEnum(const std::string &key, Enum def) const
    {
        if (!has(key))
            return def;
        std::string text = getString(key);
        if (!parseName(text, &def))
            rejectValue(key, nameChoices<Enum>(), text);
        return def;
    }

    /**
     * Parse argv-style options. Recognized forms:
     *   --key=value   --flag (boolean true)
     * Positional arguments are returned untouched.
     */
    std::vector<std::string> parseArgs(int argc, char **argv);

    /**
     * Fatal naming every key that was set but never read. Call
     * after the last read and before any work, so a mistyped flag
     * stops the run instead of being silently ignored.
     */
    void rejectUnread() const;

    /**
     * Parse a size with optional K/M/G suffix, e.g. "32K" → 32768.
     * Exposed for tests and for table-axis parsing in benches.
     */
    static std::uint64_t parseSize(const std::string &text,
                                   bool *ok = nullptr);

    /**
     * A size from environment variable @p var, in parseSize()'s
     * syntax; nullopt when it is unset or empty. A value parseSize()
     * rejects is a fatal user error naming the variable.
     */
    static std::optional<std::uint64_t> envSize(const char *var);

  private:
    [[noreturn]] static void rejectValue(const std::string &key,
                                         const std::string &choices,
                                         const std::string &text);

    std::map<std::string, std::string> _entries;
    mutable std::set<std::string> _read;
};

} // namespace scmp

#endif // SCMP_SIM_CONFIG_HH
