#include "point_key.hh"

#include <charconv>
#include <cstdio>

#include "core/design_fields.hh"

namespace scmp::sweep
{

KeyHasher &
KeyHasher::mix(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        _hash ^= (value >> (8 * i)) & 0xff;
        _hash *= prime;
    }
    return *this;
}

KeyHasher &
KeyHasher::mix(std::string_view text)
{
    // Length first so {"ab","c"} and {"a","bc"} hash differently.
    mix((std::uint64_t)text.size());
    for (char c : text) {
        _hash ^= (unsigned char)c;
        _hash *= prime;
    }
    return *this;
}

std::uint64_t
hashMachineConfig(const MachineConfig &config)
{
    // Instrumentation (the checker and obs) is not in the table, so
    // a checked or observed run and a plain one are the same design
    // point and share stored records.
    MachineConfig point = normalized(config);
    KeyHasher h;
    for (const DesignField &field : designFields) {
        if (field.keyed ? field.keyed(point) : field.isLive(point))
            h.mix(field.get(point));
    }
    return h.value();
}

std::uint64_t
pointKey(const MachineConfig &config, std::string_view workload,
         std::string_view scale)
{
    KeyHasher h;
    h.mix(hashMachineConfig(config));
    h.mix(workload);
    h.mix(scale);
    return h.value();
}

std::string
keyHex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)key);
    return buf;
}

bool
parseKeyHex(const std::string &text, std::uint64_t &key)
{
    if (text.size() != 16)
        return false;
    auto res = std::from_chars(text.data(),
                               text.data() + text.size(), key, 16);
    return res.ec == std::errc() &&
           res.ptr == text.data() + text.size();
}

} // namespace scmp::sweep
