#include "config.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "debug.hh"
#include "logging.hh"

namespace scmp
{

namespace
{

/** The comma-separated elements of @p text. */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> elements;
    std::size_t start = 0;
    for (;;) {
        std::size_t comma = text.find(',', start);
        elements.push_back(text.substr(start, comma - start));
        if (comma == std::string::npos)
            return elements;
        start = comma + 1;
    }
}

} // namespace

void
Config::set(const std::string &key, const std::string &value)
{
    _entries[key] = value;
}

void
Config::set(const std::string &key, std::int64_t value)
{
    _entries[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    _entries[key] = std::to_string(value);
}

void
Config::set(const std::string &key, bool value)
{
    _entries[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return _entries.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    auto it = _entries.find(key);
    if (it == _entries.end())
        return def;
    _read.insert(key);
    return it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    auto it = _entries.find(key);
    if (it == _entries.end())
        return def;
    _read.insert(key);
    char *end = nullptr;
    errno = 0;
    std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    fatal_if(it->second.empty() || *end != '\0', "--", key,
             ": cannot parse integer from '", it->second, "'");
    fatal_if(errno == ERANGE, "--", key, ": '", it->second,
             "' is out of range");
    return v;
}

std::int64_t
Config::getIntIn(const std::string &key, std::int64_t def,
                 std::int64_t lo, std::int64_t hi) const
{
    std::int64_t v = getInt(key, def);
    fatal_if(v < lo || v > hi, "--", key, " must be in [", lo, ", ",
             hi, "] (got ", v, ")");
    return v;
}

std::uint64_t
Config::getSize(const std::string &key, std::uint64_t def) const
{
    auto it = _entries.find(key);
    if (it == _entries.end())
        return def;
    _read.insert(key);
    bool ok = false;
    std::uint64_t v = parseSize(it->second, &ok);
    fatal_if(!ok, "--", key,
             ": cannot parse size from '", it->second, "'");
    return v;
}

std::vector<int>
Config::getIntList(const std::string &key, std::vector<int> def,
                   int least) const
{
    if (!has(key))
        return def;
    std::vector<int> values;
    for (const std::string &element : splitList(getString(key))) {
        char *end = nullptr;
        long long v = std::strtoll(element.c_str(), &end, 10);
        fatal_if(element.empty() || *end != '\0' || v < least ||
                     v > std::numeric_limits<int>::max(),
                 "--", key, " must list integers >= ", least,
                 " (got '", element, "')");
        values.push_back((int)v);
    }
    return values;
}

std::vector<std::uint64_t>
Config::getSizeList(const std::string &key,
                    std::vector<std::uint64_t> def) const
{
    if (!has(key))
        return def;
    std::vector<std::uint64_t> sizes;
    for (const std::string &element : splitList(getString(key))) {
        bool ok = false;
        std::uint64_t size = parseSize(element, &ok);
        fatal_if(!ok, "--", key, " must list sizes such as 4K,32K ",
                 "(got '", element, "')");
        sizes.push_back(size);
    }
    return sizes;
}

double
Config::getDouble(const std::string &key, double def) const
{
    auto it = _entries.find(key);
    if (it == _entries.end())
        return def;
    _read.insert(key);
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    fatal_if(!end || *end != '\0', "--", key,
             ": cannot parse double from '", it->second, "'");
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    auto it = _entries.find(key);
    if (it == _entries.end())
        return def;
    _read.insert(key);
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("--", key, ": cannot parse bool from '", v, "'");
}

std::vector<std::string>
Config::parseArgs(int argc, char **argv)
{
    // Command-line entry point: honour SCMP_DEBUG trace flags.
    debug::applyEnvironment();
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            set(body.substr(0, eq), body.substr(eq + 1));
        } else {
            set(body, std::string("true"));
        }
    }
    return positional;
}

void
Config::rejectValue(const std::string &key, const std::string &choices,
                    const std::string &text)
{
    fatal("--", key, " must be ", choices, " (got '", text, "')");
}

void
Config::rejectUnread() const
{
    for (const auto &[key, value] : _entries)
        fatal_if(!_read.count(key), "unknown flag '--", key, "'");
}

std::uint64_t
Config::parseSize(const std::string &text, bool *ok)
{
    if (ok)
        *ok = false;
    if (text.empty())
        return 0;
    char *end = nullptr;
    std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str())
        return 0;
    std::string suffix(end);
    std::uint64_t mult = 1;
    if (suffix == "" ) {
        mult = 1;
    } else if (suffix == "K" || suffix == "k" || suffix == "KB") {
        mult = 1ull << 10;
    } else if (suffix == "M" || suffix == "m" || suffix == "MB") {
        mult = 1ull << 20;
    } else if (suffix == "G" || suffix == "g" || suffix == "GB") {
        mult = 1ull << 30;
    } else {
        return 0;
    }
    if (ok)
        *ok = true;
    return v * mult;
}

} // namespace scmp
