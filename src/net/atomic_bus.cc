#include "atomic_bus.hh"

#include <algorithm>

#include "mem/coherence_observer.hh"
#include "obs/recorder.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace scmp
{

AtomicBus::AtomicBus(stats::Group *parent, const BusParams &params,
                     const DramParams &dram)
    : Interconnect(parent, params, dram),
      _memory(addBackend("mem"))
{
}

Cycle
AtomicBus::transaction(ClusterId source, BusOp op, Addr lineAddr,
                       Cycle now, bool *remoteCopyOut)
{
    countOp(op);

    Cycle grant = std::max(now, _nextFree);
    waitCycles += grant - now;
    DPRINTF(Bus, busOpName(op), " from ", source, " line 0x",
            std::hex, lineAddr, std::dec, " granted @", grant);

    // Upgrades carry no data; updates carry one word, which we
    // charge at the address-phase cost as split-transaction buses
    // of the era did for single-word updates.
    Cycle occupancy =
        (op == BusOp::Upgrade || op == BusOp::Update)
            ? _params.addressOccupancy
            : _params.transferOccupancy;

    // Broadcast to every other client at the grant cycle.
    SnoopOutcome outcome =
        snoopRange(0, _snoopers.size(), source, op, lineAddr, grant);
    if (remoteCopyOut)
        *remoteCopyOut = outcome.remoteCopy;
    if (_observer)
        _observer->onBusTransaction(source, op, lineAddr, grant);
    if (outcome.dirtySupplied) {
        ++interventions;
        // The intervening SCC's flush adds a transfer slot.
        occupancy += _params.transferOccupancy;
    }

    _nextFree = grant + occupancy;
    _busyCycles += occupancy;

    if (_recorder)
        _recorder->busTransaction((int)source, busOpName(op),
                                  lineAddr, now, grant, occupancy,
                                  outcome.snooped,
                                  outcome.dirtySupplied);

    switch (op) {
      case BusOp::Read:
      case BusOp::ReadExcl:
        // Line fetch from the memory backend; the flat default is
        // a fixed memoryLatency from grant, per the paper.
        return _memory->fill(lineAddr, grant);
      case BusOp::WriteBack:
        // Write-buffered: the backend absorbs the line whenever
        // its bank frees up, the requester never waits.
        _memory->writeBack(lineAddr, grant);
        return grant;
      case BusOp::Upgrade:
      case BusOp::Update:
        return grant;
    }
    panic("unreachable bus op");
}

} // namespace scmp
