/**
 * @file
 * A minimal JSON value model for the sweep result store.
 *
 * The store's records are JSON-lines; this module provides just
 * enough JSON to write them losslessly and read them back: objects,
 * arrays, strings, booleans, null, and numbers that keep 64-bit
 * integers exact (cycle counts exceed a double's 53-bit mantissa on
 * long runs) while round-tripping doubles bit-exactly via
 * max_digits10 formatting. Not a general-purpose JSON library —
 * no unicode escapes beyond pass-through, no streaming.
 */

#ifndef SCMP_SWEEP_JSON_HH
#define SCMP_SWEEP_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace scmp::sweep
{

/** One parsed JSON value (a small tagged union). */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Unsigned,   //!< integral literal without sign/fraction
        Number,     //!< any other numeric literal
        String,
        Array,
        Object,
    };

    Json() = default;

    /// @name Constructors for each value kind.
    /// @{
    static Json null();
    static Json boolean(bool v);
    static Json unsignedInt(std::uint64_t v);
    static Json number(double v);
    static Json string(std::string v);
    static Json array();
    static Json object();
    /// @}

    Type type() const { return _type; }

    /// @name Typed readers; panic on a type mismatch.
    /// @{
    bool asBool() const;
    /** Unsigned integer; accepts an integral Number too. */
    std::uint64_t asU64() const;
    /** Double; accepts Unsigned too. */
    double asDouble() const;
    const std::string &asString() const;
    const std::vector<Json> &asArray() const;
    /// @}

    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Object/array writers (value must already be that type). */
    void set(const std::string &key, Json value);
    void push(Json value);

    /** Serialize compactly (single line, no trailing newline). */
    std::string dump() const;

    /**
     * Parse one complete JSON document.
     * @return false (with @p error filled) on malformed input or
     *         trailing garbage.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *error);

  private:
    Type _type = Type::Null;
    bool _bool = false;
    std::uint64_t _uint = 0;
    double _number = 0;
    std::string _string;
    std::vector<Json> _array;
    std::map<std::string, Json> _object;
};

/** Escape a string for inclusion in JSON output (adds quotes). */
std::string jsonQuote(const std::string &text);

/**
 * Format a double so it round-trips bit-exactly (max_digits10).
 * Non-finite values become null, which JSON cannot express.
 */
std::string jsonNumber(double value);

} // namespace scmp::sweep

#endif // SCMP_SWEEP_JSON_HH
