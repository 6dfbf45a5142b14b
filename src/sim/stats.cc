#include "stats.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>

#include "logging.hh"

namespace scmp::stats
{

Stat::Stat(Group *parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    panic_if(!parent, "statistic '", _name, "' has no parent group");
    parent->addStat(this);
}

void
Stat::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(46) << (prefix + _name) << " "
       << std::right << std::setw(14) << value() << "   # " << _desc
       << "\n";
}

namespace
{

/**
 * Local JSON string escape (the sim library sits below the sweep
 * library's JSON module, so it carries its own minimal one).
 */
void
printJsonString(std::ostream &os, const std::string &text)
{
    os << '"';
    for (char c : text) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if ((unsigned char)c < 0x20)
            os << ' ';  // stat names never contain control chars
        else
            os << c;
    }
    os << '"';
}

} // namespace

void
Stat::printJson(std::ostream &os) const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value());
    os << buf;
}

Group::Group(std::string name) : _name(std::move(name))
{
}

Group::Group(Group *parent, std::string name)
    : _parent(parent), _name(std::move(name))
{
    panic_if(!parent, "child stats group '", _name, "' needs parent");
    parent->addChild(this);
}

Group::~Group()
{
    if (_parent)
        _parent->removeChild(this);
}

std::string
Group::path() const
{
    if (!_parent)
        return _name;
    return _parent->path() + "." + _name;
}

void
Group::addStat(Stat *stat)
{
    for (const auto *existing : _stats) {
        panic_if(existing->name() == stat->name(),
                 "duplicate statistic '", stat->name(), "' in group '",
                 _name, "'");
    }
    _stats.push_back(stat);
}

void
Group::addChild(Group *child)
{
    _children.push_back(child);
}

void
Group::removeChild(Group *child)
{
    auto it = std::find(_children.begin(), _children.end(), child);
    if (it != _children.end())
        _children.erase(it);
}

Stat *
Group::find(const std::string &path) const
{
    auto dot = path.find('.');
    if (dot == std::string::npos) {
        for (auto *stat : _stats) {
            if (stat->name() == path)
                return stat;
        }
        return nullptr;
    }
    std::string head = path.substr(0, dot);
    std::string rest = path.substr(dot + 1);
    for (auto *child : _children) {
        if (child->name() == head)
            return child->find(rest);
    }
    return nullptr;
}

double
Group::lookup(const std::string &path) const
{
    const Stat *stat = find(path);
    panic_if(!stat, "no statistic '", path, "' under group '", _name,
             "'");
    return stat->value();
}

void
Group::dump(std::ostream &os) const
{
    std::string prefix = path() + ".";
    for (const auto *stat : _stats)
        stat->print(os, prefix);
    for (const auto *child : _children)
        child->dump(os);
}

void
Group::dumpJson(std::ostream &os) const
{
    os << '{';
    bool first = true;
    for (const auto *stat : _stats) {
        if (!first)
            os << ',';
        first = false;
        printJsonString(os, stat->name());
        os << ':';
        stat->printJson(os);
    }
    for (const auto *child : _children) {
        if (!first)
            os << ',';
        first = false;
        printJsonString(os, child->name());
        os << ':';
        child->dumpJson(os);
    }
    os << '}';
}

} // namespace scmp::stats
