#include "split_bus.hh"

#include <algorithm>

#include "mem/coherence_observer.hh"
#include "obs/recorder.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace scmp
{

SplitBus::SplitBus(stats::Group *parent, const BusParams &params,
                   const NetParams &net, const DramParams &dram)
    : Interconnect(parent, params, dram),
      reqWaitCycles(busStats(), "reqWaitCycles",
                    "cycles waited for the request channel"),
      respWaitCycles(busStats(), "respWaitCycles",
                     "cycles waited for the response channel"),
      arbConflicts(busStats(), "arbConflicts",
                   "request grants that lost arbitration"),
      _net(net),
      _memory(addBackend("mem"))
{
}

Cycle
SplitBus::arbitrateRequest(ClusterId source, Cycle now)
{
    Cycle grant = std::max(now, _reqFree);
    if (grant > now) {
        // The channel was busy on arrival: the requester re-enters
        // arbitration and pays the discipline's penalty. Round-robin
        // charges every loser one flat slot; the priority chain is
        // free for cluster 0 and one slot per position down the
        // daisy chain for everyone else.
        ++arbConflicts;
        grant += _net.arbitration == NetArbitration::Priority
                     ? _net.arbLatency * (Cycle)source
                     : _net.arbLatency;
    }
    reqWaitCycles += grant - now;
    waitCycles += grant - now;
    return grant;
}

Cycle
SplitBus::transaction(ClusterId source, BusOp op, Addr lineAddr,
                      Cycle now, bool *remoteCopyOut)
{
    countOp(op);

    // Request (address) phase: every op arbitrates for it, and the
    // snoop broadcast happens at its grant — the coherence point.
    Cycle reqGrant = arbitrateRequest(source, now);
    _reqFree = reqGrant + _params.addressOccupancy;
    _reqBusy += _params.addressOccupancy;
    DPRINTF(Bus, busOpName(op), " from ", source, " line 0x",
            std::hex, lineAddr, std::dec, " req granted @",
            reqGrant);

    SnoopOutcome outcome = snoopRange(0, _snoopers.size(), source,
                                      op, lineAddr, reqGrant);
    if (remoteCopyOut)
        *remoteCopyOut = outcome.remoteCopy;
    if (_observer)
        _observer->onBusTransaction(source, op, lineAddr, reqGrant);
    if (outcome.dirtySupplied)
        ++interventions;

    Cycle ready = reqGrant;
    Cycle respOccupancy = 0;
    switch (op) {
      case BusOp::Upgrade:
      case BusOp::Update:
        // Address-only: done at the request grant, like the atomic
        // bus — these never touch the data channel.
        break;
      case BusOp::WriteBack:
        // Write-buffered: the evicted line rides the response
        // channel whenever it is free, the requester never waits.
        respOccupancy = _params.transferOccupancy;
        _respFree = std::max(reqGrant, _respFree) + respOccupancy;
        _memory->writeBack(lineAddr, reqGrant);
        break;
      case BusOp::Read:
      case BusOp::ReadExcl: {
        // The line (from memory or the intervening SCC) is ready
        // when the backend delivers it — a fixed memoryLatency
        // after the request on the flat default; it then arbitrates
        // for the response channel. A dirty intervention adds one
        // transfer slot of channel time for the memory flush, same
        // charge as the atomic bus.
        Cycle dataAt = _memory->fill(lineAddr, reqGrant);
        Cycle respGrant = std::max(dataAt, _respFree);
        respWaitCycles += respGrant - dataAt;
        waitCycles += respGrant - dataAt;
        respOccupancy = _params.transferOccupancy;
        if (outcome.dirtySupplied)
            respOccupancy += _params.transferOccupancy;
        _respFree = respGrant + respOccupancy;
        ready = respGrant + _params.transferOccupancy;
        break;
      }
    }
    _respBusy += respOccupancy;

    if (_recorder)
        _recorder->busTransaction(
            (int)source, busOpName(op), lineAddr, now, reqGrant,
            _params.addressOccupancy + respOccupancy,
            outcome.snooped, outcome.dirtySupplied);

    return ready;
}

} // namespace scmp
