/**
 * @file
 * The design-field table (core/design_fields.hh) is complete and
 * its liveness is true.
 *
 * Complete: every member of MachineConfig and of its parameter
 * structs is a table row or listed as instrumentation. True: over a
 * set of small runs, setting any row off its default moves the
 * point key exactly when it moves a run's RunResult or stats dump.
 * A run that moves under an unmoved key is a stale --resume; a key
 * that moves under an unmoved run splits one design point in two.
 *
 * Both loop over the table: a new row needs one off-default value
 * here (offDefault), and a new parameter struct one line in
 * EveryMemberIsARowOrInstrumentation.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/design_fields.hh"
#include "core/parallel_run.hh"
#include "multiprog/scheduler.hh"
#include "sweep/point_key.hh"
#include "sweep/result_store.hh"
#include "workloads/spec/spec_app.hh"
#include "workloads/splash/barnes.hh"
#include "workloads/tm/tm_workloads.hh"

namespace
{

using namespace scmp;

/** Converts to anything: counts an aggregate's initializers. */
struct AnyMember
{
    template <class T>
    operator T() const;
};

/** The number of direct members of aggregate @p T. */
template <class T, class... Members>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { T{Members{}..., AnyMember{}}; })
        return memberCount<T, Members..., AnyMember>();
    else
        return sizeof...(Members);
}

/**
 * The distinct members the table and the instrumentation list name
 * directly under @p prefix ("" for MachineConfig itself).
 */
std::set<std::string>
membersNamed(const std::string &prefix)
{
    std::set<std::string> names;
    auto add = [&](std::string path) {
        if (path.rfind(prefix, 0) != 0)
            return;
        path.erase(0, prefix.size());
        names.insert(path.substr(0, path.find('.')));
    };
    for (const DesignField &field : designFields)
        add(field.path);
    for (const char *path : instrumentationFields)
        add(path);
    return names;
}

TEST(DesignFields, EveryMemberIsARowOrInstrumentation)
{
    const std::pair<const char *, std::size_t> structs[] = {
        {"", memberCount<MachineConfig>()},
        {"scc.", memberCount<SccParams>()},
        {"scc.sec.", memberCount<SecParams>()},
        {"bus.", memberCount<BusParams>()},
        {"net.", memberCount<NetParams>()},
        {"dram.", memberCount<DramParams>()},
        {"dram.timing.", memberCount<DramTiming>()},
        {"consistency.", memberCount<ConsistencyParams>()},
        {"tm.", memberCount<TmParams>()},
        {"icache.", memberCount<ICacheParams>()},
        {"engine.", memberCount<EngineOptions>()},
    };
    for (auto [prefix, members] : structs) {
        EXPECT_EQ(membersNamed(prefix).size(), members)
            << "a member under '" << prefix
            << "' is neither a design field nor instrumentation";
    }
}

TEST(DesignFields, NamesAreUnique)
{
    std::set<std::string> paths, tags, flags;
    for (const DesignField &field : designFields) {
        EXPECT_TRUE(paths.insert(field.path).second) << field.path;
        if (field.tag) {
            EXPECT_TRUE(tags.insert(field.tag).second) << field.tag;
            EXPECT_EQ(&taggedField(field.tag), &field);
        }
        if (field.flag) {
            EXPECT_TRUE(flags.insert(field.flag).second) << field.flag;
        }
    }
    for (const char *path : instrumentationFields)
        EXPECT_TRUE(paths.insert(path).second) << path;
}

/** One value off its default for every row, by path. */
const std::map<std::string, std::uint64_t> offDefault = {
    {"numClusters", 1},
    {"cpusPerCluster", 3},
    {"organization", (std::uint64_t)ClusterOrganization::PrivateCaches},
    {"privateCacheBytes", 2 << 10},
    {"scc.sizeBytes", 8 << 10},
    {"scc.lineBytes", 32},
    {"scc.assoc", 2},
    {"scc.banksPerCpu", 1},
    {"scc.bankOccupancy", 3},
    {"scc.stallOnUpgrade", true},
    {"scc.protocol", (std::uint64_t)CoherenceProtocol::WriteUpdate},
    {"bus.memoryLatency", 50},
    {"bus.transferOccupancy", 8},
    {"bus.addressOccupancy", 8},
    {"net.topology", (std::uint64_t)NetTopology::Split},
    {"net.segments", 1},
    {"net.arbitration", (std::uint64_t)NetArbitration::Priority},
    {"net.arbLatency", 4},
    {"net.snoopFilterCapacity", 16},
    {"dram.kind", (std::uint64_t)MemBackendKind::Banked},
    {"dram.channels", 1},
    {"dram.banks", 1},
    {"dram.sched", (std::uint64_t)MemSched::FrFcfs},
    {"dram.rowBytes", 256},
    {"dram.numaRemotePenalty", 100},
    {"dram.timing.rowHit", 10},
    {"dram.timing.rowMiss", 20},
    {"dram.timing.rowConflict", 200},
    {"dram.timing.burst", 2},
    {"consistency.model", (std::uint64_t)ConsistencyModel::Weak},
    {"consistency.storeBufferEntries", 1},
    {"tm.mode", (std::uint64_t)TmMode::Lazy},
    {"tm.setEntries", 2},
    {"tm.maxAborts", 1},
    {"tm.backoffBase", 200},
    {"tm.beginCost", 50},
    {"tm.commitCost", 50},
    {"tm.abortCost", 200},
    {"scc.sec.mode", (std::uint64_t)IsolationMode::Rand},
    {"scc.sec.domains", 4},
    {"scc.sec.rekeyFills", 16},
    {"scc.sec.key", 0x1234},
    {"icache.enabled", true},
    {"icache.sizeBytes", 1 << 10},
    {"icache.lineBytes", 64},
    {"icache.bytesPerInstr", 8},
    {"engine.slackWindow", 50},
    {"engine.yieldLatency", 50},
    {"engine.stackBytes", 1 << 20},
    {"engine.barrierOverhead", 200},
    {"engine.contextSwitchCost", 50},
    {"arenaBytes", 16 << 20},
};

/** A machine the liveness test varies one row of at a time. */
struct Context
{
    const char *name;
    MachineConfig config;
};

/** The paper's machine, small, then each axis switched on. */
std::vector<Context>
contexts()
{
    MachineConfig paper;
    paper.numClusters = 2;
    paper.cpusPerCluster = 2;
    paper.scc.sizeBytes = 4 << 10;

    std::vector<Context> all = {{"paper", paper}};
    auto with = [&](const char *name, auto change) {
        MachineConfig config = paper;
        change(config);
        all.push_back({name, config});
    };
    with("private", [](MachineConfig &c) {
        c.organization = ClusterOrganization::PrivateCaches;
    });
    with("icache", [](MachineConfig &c) { c.icache.enabled = true; });
    with("split", [](MachineConfig &c) {
        c.net.topology = NetTopology::Split;
    });
    with("numa tree", [](MachineConfig &c) {
        c.numClusters = 4;
        c.net.topology = NetTopology::Tree;
        c.dram.kind = MemBackendKind::Banked;
    });
    with("banked", [](MachineConfig &c) {
        c.dram.kind = MemBackendKind::Banked;
    });
    with("weak", [](MachineConfig &c) {
        c.consistency.model = ConsistencyModel::Weak;
    });
    with("tm", [](MachineConfig &c) { c.tm.mode = TmMode::Eager; });
    with("color", [](MachineConfig &c) {
        c.scc.sec.mode = IsolationMode::Color;
    });
    with("rand", [](MachineConfig &c) {
        c.scc.sec.mode = IsolationMode::Rand;
    });
    return all;
}

/** MachineConfig::check()'s rules across axes. */
bool
compatible(const MachineConfig &c)
{
    if (c.tm.mode != TmMode::Off &&
        c.consistency.model != ConsistencyModel::Sc)
        return false;
    return c.scc.sec.mode == IsolationMode::None ||
           c.organization == ClusterOrganization::SharedCache;
}

/** A RunResult as a store record writes it. */
std::string
resultText(const RunResult &result)
{
    sweep::StoredPoint point;
    point.result = result;
    return sweep::ResultStore::serialize(point);
}

/** A small sequential program: compute and a strided walk. */
class Walker : public spec::SpecApp
{
  public:
    std::string name() const override { return "walker"; }

    void
    setup(Arena &arena) override
    {
        arena.alignTo(4096);
        _words = arena.alloc<Shared<std::uint64_t>>(words);
    }

    void
    iterate(ThreadCtx &ctx) override
    {
        for (int i = 0; i < words; i += 4) {
            ctx.work(64);
            _words[i].rmw(ctx, [](std::uint64_t v) { return v + 1; });
        }
    }

  private:
    static constexpr int words = 256;
    Shared<std::uint64_t> *_words = nullptr;
};

/**
 * Everything @p config's runs report: Barnes-Hut (sharing, locks,
 * barriers) and a transactional booking table, each with its stats
 * dump, and three programs time-sharing the processors (context
 * switches).
 */
std::string
observe(const MachineConfig &config)
{
    std::ostringstream out;
    splash::BarnesParams barnes;
    barnes.nbodies = 48;
    barnes.steps = 1;
    splash::Barnes splash(barnes);
    out << resultText(
        runParallel(config, splash, nullptr, nullptr, &out));

    tmwork::TmVacationParams vacation;
    vacation.resources = 8;
    vacation.capacity = 64;
    vacation.txnsPerThread = 16;
    tmwork::TmVacationWorkload tm(vacation);
    out << resultText(runParallel(config, tm, nullptr, nullptr, &out));

    std::vector<std::unique_ptr<spec::SpecApp>> programs;
    for (int i = 0; i < 3; ++i)
        programs.push_back(std::make_unique<Walker>());
    MultiprogParams mix;
    mix.totalRefs = 6'000;
    mix.quantum = 20'000;
    MultiprogResult r = runMultiprog(config, std::move(programs), mix);
    out << r.cycles << ' ' << r.references << ' ' << r.readMissRate
        << ' ' << r.missRate << ' ' << r.contextSwitches << ' '
        << r.invalidations << ' ' << r.icacheMissRate;
    return out.str();
}

/**
 * Rows whose key moves here without the run. The first two are
 * design points still split in two keys; the rest are live in
 * general but not in these small runs.
 */
const std::set<std::pair<std::string, std::string>> quietHere = {
    // Randomized indexing keys each domain by its number, so any
    // count of at least the processors per cluster builds the same
    // cache. Folding it would move stored keys.
    {"scc.sec.domains", "rand"},
    // A processor alone in its cache never finds its own bank busy
    // under sequential consistency at one cycle of occupancy.
    {"scc.banksPerCpu", "private"},
    // Banked DRAM times the fills the flat model charges this
    // latency for, but the analytic screen (model/analytic.cc)
    // still prices misses with it.
    {"bus.memoryLatency", "banked"},
    {"bus.memoryLatency", "numa tree"},
    // A short stall yields differently only when two clocks tie,
    // which these runs never reach.
    {"engine.yieldLatency", "private"},
    {"engine.yieldLatency", "color"},
};

TEST(DesignFields, KeyMovesExactlyWhenARunDoes)
{
    setLogQuiet(true);
    const MachineConfig defaults;
    std::map<std::string, int> movedRuns;
    for (const Context &context : contexts()) {
        const std::uint64_t key =
            sweep::hashMachineConfig(context.config);
        const std::string run = observe(context.config);
        for (const DesignField &field : designFields) {
            auto off = offDefault.find(field.path);
            ASSERT_NE(off, offDefault.end())
                << field.path << " needs an off-default value here";
            ASSERT_NE(off->second, field.get(defaults)) << field.path;
            MachineConfig changed = context.config;
            field.set(changed, off->second);
            if (field.get(changed) == field.get(context.config) ||
                !compatible(changed))
                continue;
            bool keyMoved = sweep::hashMachineConfig(changed) != key;
            bool runMoved = observe(changed) != run;
            if (runMoved || !quietHere.count({field.path, context.name})) {
                EXPECT_EQ(keyMoved, runMoved)
                    << field.path << " in the " << context.name
                    << " machine: "
                    << (runMoved ? "the run moved but the key did not"
                                 : "the key moved but the run did not");
            }
            movedRuns[field.path] += runMoved;
        }
    }
    // And every row live in some context moved some run there.
    for (const DesignField &field : designFields) {
        bool live = false;
        for (const Context &context : contexts())
            live |= field.isLive(context.config);
        EXPECT_EQ(movedRuns[field.path] > 0, live)
            << field.path
            << (live ? " is live but moved no run here"
                     : " is never live but moved a run");
    }
}

} // namespace
