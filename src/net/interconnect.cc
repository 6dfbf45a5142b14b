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
    panic_if(snooper->snooperId() != (ClusterId)_snoopers.size(),
             "snooper with id ", snooper->snooperId(),
             " attached at index ", _snoopers.size(),
             " — snoopers must attach in id order");
    _snoopers.push_back(snooper);
}

double
Interconnect::utilization(Cycle now) const
{
    if (!now)
        return 0.0;
    Cycle busy = 0;
    for (int c = 0; c < numChannels(); ++c)
        busy += channelBusyCycles(c);
    return (double)busy / ((double)numChannels() * (double)now);
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
    if (op == BusOp::WriteBack) {
        // A written-back line was Modified, so no snooper holds a
        // copy, and snoop() does nothing for a writeback: count the
        // fan-out without probing anyone.
        for (std::size_t i = first; i < last; ++i)
            outcome.snooped += (ClusterId)i != source;
        return outcome;
    }
    for (std::size_t i = first; i < last; ++i) {
        if ((ClusterId)i == source)
            continue;
        ++outcome.snooped;
        SnoopResult result = _snoopers[i]->snoop(op, lineAddr, when);
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
