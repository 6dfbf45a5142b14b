#include "design_fields.hh"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace scmp
{

namespace
{

using Cfg = const MachineConfig &;

bool always(Cfg) { return true; }
bool never(Cfg) { return false; }
bool privateCaches(Cfg c)
{
    return c.organization == ClusterOrganization::PrivateCaches;
}
bool netOn(Cfg c) { return c.net.topology != NetTopology::Atomic; }
bool split(Cfg c) { return c.net.topology == NetTopology::Split; }
bool tree(Cfg c) { return c.net.topology == NetTopology::Tree; }
bool sfCapSet(Cfg c) { return c.net.snoopFilterCapacity != 0; }
bool banked(Cfg c) { return c.dram.kind == MemBackendKind::Banked; }
bool numa(Cfg c) { return banked(c) && tree(c); }
bool weak(Cfg c) { return c.consistency.model == ConsistencyModel::Weak; }
bool tmOn(Cfg c) { return c.tm.mode != TmMode::Off; }
bool isolated(Cfg c) { return c.scc.sec.mode != IsolationMode::None; }
bool randIndex(Cfg c) { return c.scc.sec.mode == IsolationMode::Rand; }
bool icacheOn(Cfg c) { return c.icache.enabled; }

/** The tree builds at most one leaf segment per cache. */
std::uint64_t
cacheCount(Cfg c)
{
    return (std::uint64_t)c.cacheCount();
}

template <class T>
void
readInto(const DesignField &row, const Config &flags, T &value)
{
    if constexpr (std::is_same_v<T, bool>)
        value = flags.getBool(row.flag, value);
    else if constexpr (std::is_enum_v<T>)
        value = flags.getEnum(row.flag, value);
    else if (!row.bytes)
        value = flags.getIntAs<T>(row.flag, value);
    else if (std::uint64_t bytes = flags.getSize(row.flag, value);
             std::in_range<T>(bytes))
        value = (T)bytes;
    else
        fatal("--", row.flag, " must be at most ",
              std::numeric_limits<T>::max(), " (got ", bytes, ")");
}

/**
 * @p row, stating what it declares, completed with the access to
 * the member @p Member (a lambda returning it) reaches.
 */
template <class Member>
constexpr DesignField
field(const char *path, Member, DesignField row)
{
    using T = std::remove_cvref_t<
        std::invoke_result_t<Member, MachineConfig &>>;
    row.path = path;
    row.quoted = std::is_enum_v<T>;
    row.get = [](Cfg c) { return (std::uint64_t)Member{}(c); };
    row.set = [](MachineConfig &c, std::uint64_t v) { Member{}(c) = (T)v; };
    row.text = [](Cfg c) -> std::string {
        if constexpr (std::is_enum_v<T>)
            return nameOf(Member{}(c));
        else
            return std::to_string(Member{}(c));
    };
    row.read = [](const DesignField &r, const Config &f, MachineConfig &c) {
        readInto(r, f, Member{}(c));
    };
    return row;
}

#define MEMBER(path) #path, [](auto &c) -> auto & { return c.path; }

constexpr DesignField table[] = {
    field(MEMBER(numClusters), {.tag = "clusters", .flag = "clusters"}),
    field(MEMBER(cpusPerCluster), {.flag = "procs"}),
    field(MEMBER(organization), {.flag = "organization"}),
    field(MEMBER(privateCacheBytes), {.live = privateCaches, .keyed = always}),
    field(MEMBER(scc.sizeBytes), {.flag = "scc", .bytes = true}),
    field(MEMBER(scc.lineBytes), {.flag = "line", .bytes = true}),
    field(MEMBER(scc.assoc), {.flag = "assoc"}),
    field(MEMBER(scc.banksPerCpu), {.flag = "banks"}),
    field(MEMBER(scc.bankOccupancy), {}),
    field(MEMBER(scc.stallOnUpgrade), {}),
    field(MEMBER(scc.protocol), {.flag = "protocol"}),
    field(MEMBER(bus.memoryLatency), {}),
    field(MEMBER(bus.transferOccupancy), {.flag = "bus-occupancy"}),
    field(MEMBER(bus.addressOccupancy), {}),
    // Each later axis is keyed only once switched on, so keys from
    // before it existed still resolve.
    field(MEMBER(net.topology), {.tag = "net", .flag = "net", .keyed = netOn}),
    field(MEMBER(net.segments),
          {.flag = "segments", .live = tree, .keyed = netOn,
           .cap = cacheCount}),
    field(MEMBER(net.arbitration),
          {.flag = "arbitration", .live = split, .keyed = netOn}),
    field(MEMBER(net.arbLatency), {.live = split, .keyed = netOn}),
    field(MEMBER(net.snoopFilterCapacity),
          {.flag = "sf-cap", .live = tree, .keyed = sfCapSet}),
    field(MEMBER(dram.kind), {.tag = "mem", .flag = "mem", .keyed = banked}),
    field(MEMBER(dram.channels),
          {.tag = "channels", .flag = "channels", .live = banked}),
    field(MEMBER(dram.banks),
          {.tag = "banks", .flag = "mem-banks", .live = banked}),
    field(MEMBER(dram.sched),
          {.tag = "memSched", .flag = "mem-sched", .live = banked}),
    field(MEMBER(dram.rowBytes), {.live = banked}),
    field(MEMBER(dram.numaRemotePenalty), {.live = numa, .keyed = banked}),
    field(MEMBER(dram.timing.rowHit), {.live = banked}),
    field(MEMBER(dram.timing.rowMiss), {.live = banked}),
    field(MEMBER(dram.timing.rowConflict), {.live = banked}),
    field(MEMBER(dram.timing.burst), {.live = banked}),
    field(MEMBER(consistency.model),
          {.tag = "consistency", .flag = "consistency", .keyed = weak}),
    field(MEMBER(consistency.storeBufferEntries),
          {.flag = "sb-entries", .live = weak}),
    field(MEMBER(tm.mode), {.tag = "tm", .flag = "tm", .keyed = tmOn}),
    field(MEMBER(tm.setEntries),
          {.tag = "tmEntries", .flag = "tm-set-entries", .live = tmOn}),
    field(MEMBER(tm.maxAborts), {.flag = "tm-max-aborts", .live = tmOn}),
    field(MEMBER(tm.backoffBase), {.live = tmOn}),
    field(MEMBER(tm.beginCost), {.live = tmOn}),
    field(MEMBER(tm.commitCost), {.live = tmOn}),
    field(MEMBER(tm.abortCost), {.live = tmOn}),
    field(MEMBER(scc.sec.mode),
          {.tag = "isolation", .flag = "isolation", .keyed = isolated}),
    field(MEMBER(scc.sec.domains),
          {.tag = "isolationDomains", .flag = "isolation-domains",
           .live = isolated}),
    field(MEMBER(scc.sec.rekeyFills),
          {.flag = "rekey-fills", .live = randIndex}),
    field(MEMBER(scc.sec.key), {.live = randIndex}),
    field(MEMBER(icache.enabled), {.flag = "icache"}),
    field(MEMBER(icache.sizeBytes), {.live = icacheOn, .keyed = always}),
    field(MEMBER(icache.lineBytes), {.live = icacheOn, .keyed = always}),
    field(MEMBER(icache.bytesPerInstr), {.live = icacheOn, .keyed = always}),
    field(MEMBER(engine.slackWindow), {}),
    field(MEMBER(engine.yieldLatency), {}),
    // Host memory only: fiber stacks, and an arena whose simulated
    // addresses are a fixed base plus offset.
    field(MEMBER(engine.stackBytes), {.live = never, .keyed = always}),
    field(MEMBER(engine.barrierOverhead), {}),
    field(MEMBER(engine.contextSwitchCost), {}),
    field(MEMBER(arenaBytes), {.live = never, .keyed = always}),
};

#undef MEMBER

constexpr const char *instrumentation[] = {
    "checkCoherence", "checkWalkInterval", "obs", "refTap",
};

} // namespace

const std::span<const DesignField> designFields = table;
const std::span<const char *const> instrumentationFields = instrumentation;

const DesignField &
taggedField(std::string_view tag)
{
    for (const DesignField &row : designFields) {
        if (row.tag && tag == row.tag)
            return row;
    }
    panic("no design field is tagged '", std::string(tag), "'");
}

MachineConfig
normalized(const MachineConfig &config)
{
    static const MachineConfig defaults;
    MachineConfig point = config;
    for (const DesignField &row : designFields) {
        std::uint64_t initial = row.get(defaults);
        std::uint64_t cap = row.cap ? row.cap(config) : ~0ull;
        std::uint64_t value = std::min(row.get(config), cap);
        if (!row.isLive(config) || value == std::min(initial, cap))
            value = initial;
        row.set(point, value);
    }
    return point;
}

void
readFlags(const Config &flags, MachineConfig &config,
          std::initializer_list<std::string_view> only)
{
    std::size_t read = 0;
    for (const DesignField &row : designFields) {
        if (row.flag && (only.size() == 0 ||
                         std::find(only.begin(), only.end(),
                                   row.flag) != only.end())) {
            row.read(row, flags, config);
            ++read;
        }
    }
    panic_if(only.size() && read != only.size(),
             "readFlags was asked for a flag no design field has");
}

} // namespace scmp
