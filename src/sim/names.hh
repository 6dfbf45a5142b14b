/**
 * @file
 * Name tables for the enums a user names on the command line or
 * reads in a stored record.
 *
 * Each such enum declares, next to its definition, one table of
 * {name, value, help} rows returned by a `nameTable(Enum)` overload
 * in the enum's namespace (found here by argument-dependent
 * lookup). The first row for a value is its canonical name, the one
 * printed and stored; later rows for the same value are aliases the
 * parser also accepts. `help` is the value's `scmp --list` line
 * ('\n' starts a continuation line); enums --list does not show
 * leave it null.
 */

#ifndef SCMP_SIM_NAMES_HH
#define SCMP_SIM_NAMES_HH

#include <span>
#include <string>
#include <string_view>

namespace scmp
{

/** One row of an enum's name table. */
template <class Enum>
struct NameRow
{
    const char *name;
    Enum value;
    const char *help = nullptr;
};

/** The canonical name of @p value ("?" if the table lacks it). */
template <class Enum>
const char *
nameOf(Enum value)
{
    for (const NameRow<Enum> &row : nameTable(value)) {
        if (row.value == value)
            return row.name;
    }
    return "?";
}

/** True for the row naming its value canonically (not an alias). */
template <class Enum>
bool
isCanonical(const NameRow<Enum> &row)
{
    return std::string_view(nameOf(row.value)) == row.name;
}

/**
 * Parse a canonical name or alias into @p out.
 * @return false (with @p out untouched) on unknown text.
 */
template <class Enum>
bool
parseName(std::string_view text, Enum *out)
{
    for (const NameRow<Enum> &row : nameTable(*out)) {
        if (text == row.name) {
            *out = row.value;
            return true;
        }
    }
    return false;
}

/**
 * The canonical names as rejection messages list them:
 * "'a' or 'b'", "'a', 'b' or 'c'".
 */
template <class Enum>
std::string
nameChoices()
{
    std::string out;
    for (const NameRow<Enum> &row : nameTable(Enum{})) {
        if (!isCanonical(row))
            continue;
        out += out.empty() ? "'" : ", '";
        out += row.name;
        out += "'";
    }
    std::size_t last = out.rfind(", ");
    if (last != std::string::npos)
        out.replace(last, 2, " or ");
    return out;
}

} // namespace scmp

#endif // SCMP_SIM_NAMES_HH
