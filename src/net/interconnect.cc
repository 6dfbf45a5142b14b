#include "interconnect.hh"

#include "net/atomic_bus.hh"
#include "net/split_bus.hh"
#include "net/tree.hh"
#include "sim/logging.hh"

namespace scmp
{

const char *
busOpName(BusOp op)
{
    switch (op) {
      case BusOp::Read: return "Read";
      case BusOp::ReadExcl: return "ReadExcl";
      case BusOp::Upgrade: return "Upgrade";
      case BusOp::Update: return "Update";
      case BusOp::WriteBack: return "WriteBack";
    }
    return "?";
}

Interconnect::Interconnect(stats::Group *parent,
                           const BusParams &params,
                           const DramParams &dram)
    : _params(params),
      _dram(dram),
      statsGroup(parent, "bus"),
      transactions(&statsGroup, "transactions",
                   "total bus transactions"),
      reads(&statsGroup, "reads", "BusRd transactions"),
      readExcls(&statsGroup, "readExcls", "BusRdX transactions"),
      upgrades(&statsGroup, "upgrades", "BusUpgr transactions"),
      updates(&statsGroup, "updates",
              "write-update broadcast transactions"),
      writeBacks(&statsGroup, "writeBacks", "writeback transactions"),
      invalidations(&statsGroup, "invalidations",
                    "line invalidations performed in remote SCCs"),
      interventions(&statsGroup, "interventions",
                    "dirty lines supplied by a remote SCC"),
      waitCycles(&statsGroup, "waitCycles",
                 "cycles requests waited for bus arbitration")
{
}

void
Interconnect::attach(Snooper *snooper)
{
    _snoopers.push_back(snooper);
}

MemoryBackend *
Interconnect::addBackend(const std::string &name)
{
    _memories.push_back(makeMemoryBackend(
        &statsGroup, name, _params.memoryLatency, _dram));
    return _memories.back().get();
}

const char *
Interconnect::channelName(int channel) const
{
    (void)channel;
    return "bus";
}

void
Interconnect::countOp(BusOp op)
{
    ++transactions;
    switch (op) {
      case BusOp::Read: ++reads; break;
      case BusOp::ReadExcl: ++readExcls; break;
      case BusOp::Upgrade: ++upgrades; break;
      case BusOp::Update: ++updates; break;
      case BusOp::WriteBack: ++writeBacks; break;
    }
}

Interconnect::SnoopOutcome
Interconnect::snoopRange(std::size_t first, std::size_t last,
                         ClusterId source, BusOp op, Addr lineAddr,
                         Cycle when)
{
    SnoopOutcome outcome;
    last = std::min(last, _snoopers.size());
    for (std::size_t i = first; i < last; ++i) {
        Snooper *snooper = _snoopers[i];
        if (snooper->snooperId() == source)
            continue;
        ++outcome.snooped;
        SnoopResult result = snooper->snoop(op, lineAddr, when);
        if (result.invalidated)
            ++invalidations;
        if (result.suppliedDirty)
            outcome.dirtySupplied = true;
        if (result.hadCopy)
            outcome.remoteCopy = true;
    }
    return outcome;
}

std::unique_ptr<Interconnect>
makeInterconnect(stats::Group *parent, const BusParams &bus,
                 const NetParams &net, const DramParams &dram,
                 int numCaches)
{
    switch (net.topology) {
      case NetTopology::Atomic:
        return std::make_unique<AtomicBus>(parent, bus, dram);
      case NetTopology::Split:
        return std::make_unique<SplitBus>(parent, bus, net, dram);
      case NetTopology::Tree:
        return std::make_unique<HierarchicalNet>(parent, bus, net,
                                                 numCaches, dram);
    }
    panic("unreachable net topology");
}

} // namespace scmp
