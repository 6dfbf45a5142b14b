/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Every statistic is an exact 64-bit event counter: the paper's
 * figures and tables are built from counts and cycle totals
 * (misses, invalidations, bus transactions, cycles). Counters are
 * organized into named Groups that form a dotted hierarchy; a Group
 * dumps its subtree as aligned text or JSON, and individual
 * counters can be read programmatically by the experiment
 * harnesses.
 */

#ifndef SCMP_SIM_STATS_HH
#define SCMP_SIM_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace scmp::stats
{

class Group;

/**
 * The read side of a counter: its name, description and value, as
 * Group::find hands it out. Scalar adds the increments.
 */
class Stat
{
  public:
    Stat(Group *parent, std::string name, std::string desc);

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Current value, exact. */
    std::uint64_t value() const { return _count; }

    /** Print one "name value # desc" line. */
    void print(std::ostream &os, const std::string &prefix) const;

    /** Emit this statistic's value as one JSON number. */
    void printJson(std::ostream &os) const;

  protected:
    std::uint64_t _count = 0;

  private:
    std::string _name;
    std::string _desc;
};

/**
 * A counter. Increments and integer adds are a single branch-free
 * add on the reference path.
 */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++() { ++_count; return *this; }
    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    Scalar &
    operator+=(T v)
    {
        _count += (std::uint64_t)v;
        return *this;
    }
};

/**
 * A named collection of statistics with optional child groups,
 * forming a dotted hierarchy (e.g. "cluster0.scc.readMisses").
 */
class Group
{
  public:
    /** Root group. */
    explicit Group(std::string name);
    /** Child group; registers itself with the parent. */
    Group(Group *parent, std::string name);
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return _name; }

    /** Fully-qualified dotted path of this group. */
    std::string path() const;

    /** Register a statistic (called from the Stat constructor). */
    void addStat(Stat *stat);
    /** Register a child group. */
    void addChild(Group *child);
    /** Remove a child (called from the child's destructor). */
    void removeChild(Group *child);

    /** Look up a statistic by dotted path relative to this group. */
    Stat *find(const std::string &path) const;

    /** Value of a statistic by dotted path; panics if missing. */
    std::uint64_t lookup(const std::string &path) const;

    /** Dump "path value # desc" lines for the whole subtree. */
    void dump(std::ostream &os) const;

    /**
     * Dump the subtree as one JSON object: each statistic becomes
     * a member and each child group a nested object.
     * Machine-readable companion to dump(), used to attach
     * per-point statistics to sweep result-store records.
     */
    void dumpJson(std::ostream &os) const;

  private:
    Group *_parent = nullptr;
    std::string _name;
    std::vector<Stat *> _stats;
    std::vector<Group *> _children;
};

} // namespace scmp::stats

#endif // SCMP_SIM_STATS_HH
