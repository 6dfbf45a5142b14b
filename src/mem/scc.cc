#include "scc.hh"

#include <algorithm>

#include "obs/recorder.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace scmp
{

SharedClusterCache::SharedClusterCache(stats::Group *parent,
                                       ClusterId cluster, int numCpus,
                                       const SccParams &params,
                                       Interconnect *bus)
    : _cluster(cluster), _params(params), _bus(bus),
      _tags(params.sizeBytes, params.lineBytes, params.assoc,
            params.sec),
      _bankNextFree((std::size_t)numCpus * params.banksPerCpu, 0),
      _lineShift(floorLog2(params.lineBytes)),
      _banksPow2(isPowerOf2(_bankNextFree.size())),
      _bankMask(_bankNextFree.size() - 1),
      statsGroup(parent, "scc"),
      readHits(&statsGroup, "readHits", "read hits"),
      readMisses(&statsGroup, "readMisses", "read misses"),
      writeHits(&statsGroup, "writeHits", "write hits"),
      writeMisses(&statsGroup, "writeMisses", "write misses"),
      upgradeHits(&statsGroup, "upgradeHits",
                  "write hits that issued BusUpgr"),
      mergedMisses(&statsGroup, "mergedMisses",
                   "misses merged into an outstanding MSHR"),
      writeBacks(&statsGroup, "writeBacks",
                 "dirty lines written back on eviction"),
      invalidationsReceived(&statsGroup, "invalidationsReceived",
                            "lines invalidated by remote writes"),
      updatesReceived(&statsGroup, "updatesReceived",
                      "write-update broadcasts absorbed"),
      updatesBroadcast(&statsGroup, "updatesBroadcast",
                       "write-update broadcasts sent"),
      interventionsSupplied(&statsGroup, "interventionsSupplied",
                            "dirty lines supplied to remote reads"),
      bankConflictCycles(&statsGroup, "bankConflictCycles",
                         "cycles lost to bank arbitration"),
      missStallCycles(&statsGroup, "missStallCycles",
                      "cycles processors stalled on misses"),
      rekeyFlushes(&statsGroup, "rekeyFlushes",
                   "rand-isolation rekey flushes performed")
{
    panic_if(numCpus <= 0, "SCC needs at least one processor");
    panic_if(!bus, "SCC needs a bus");
    _domainByPort.assign((std::size_t)numCpus, 0);
    if (params.sec.mode != IsolationMode::None) {
        for (int cpu = 0; cpu < numCpus; ++cpu)
            _domainByPort[(std::size_t)cpu] =
                cpu % params.sec.domains;
    }
}

CoherenceState
SharedClusterCache::stateOf(Addr addr) const
{
    const CacheLine *line = _tags.probe(addr);
    return line ? line->state : CoherenceState::Invalid;
}

double
SharedClusterCache::readMissRate() const
{
    std::uint64_t reads = readHits.value() + readMisses.value();
    return reads ? (double)readMisses.value() / (double)reads : 0.0;
}

double
SharedClusterCache::missRate() const
{
    std::uint64_t misses = readMisses.value() + writeMisses.value();
    std::uint64_t total = readHits.value() + writeHits.value() + misses;
    return total ? (double)misses / (double)total : 0.0;
}

Cycle
SharedClusterCache::access(int localCpu, RefType type, Addr addr,
                           Cycle now)
{
    panic_if(type == RefType::Ifetch,
             "instruction fetches do not reach the SCC");

    // Bank arbitration: wait for the serving bank to free up.
    Cycle &bankFree = _bankNextFree[(std::size_t)bankOf(addr)];
    Cycle start = std::max(now, bankFree);
    bankConflictCycles += start - now;
    bankFree = start + _params.bankOccupancy;
    if (_recorder)
        _recorder->sccPortRef(_cluster, localCpu,
                              refTypeName(type), addr, now,
                              bankFree);

    // One probe answers both questions: is the line resident, and
    // is its fill still outstanding (the MSHR lives in the line)?
    Addr lineAddr = _tags.lineAddr(addr);
    CacheLine *line = _tags.probe(addr);
    if (line && line->readyAt) {
        Cycle ready = line->readyAt;
        if (start < ready) {
            // Merge with the outstanding fill.
            ++mergedMisses;
            if (_recorder)
                _recorder->mshrMerge(_cluster, lineAddr, start);
            missStallCycles += ready - start;
            // A write joining a read fill still needs to inform
            // the other caches (exclusivity or an update).
            if (type == RefType::Write &&
                line->state == CoherenceState::Shared) {
                if (_params.protocol ==
                    CoherenceProtocol::WriteUpdate) {
                    ++updatesBroadcast;
                    bool remoteCopy = false;
                    _bus->transaction(_cluster, BusOp::Update,
                                      lineAddr, ready,
                                      &remoteCopy);
                    if (!remoteCopy)
                        line->state = CoherenceState::Modified;
                } else {
                    _bus->transaction(_cluster, BusOp::Upgrade,
                                      lineAddr, ready);
                    line->state = CoherenceState::Modified;
                }
            }
            return ready;
        }
        // The fill completed in the past; the MSHR retires lazily
        // here, at the first reference to find it expired.
        line->readyAt = 0;
        if (_recorder)
            _recorder->mshrRetire(_cluster, lineAddr, ready);
    }

    if (line) {
        _tags.touch(line);
        if (type == RefType::Read) {
            ++readHits;
            return start;
        }
        // Write hit.
        if (line->state == CoherenceState::Modified) {
            ++writeHits;
            return start;
        }
        ++writeHits;
        if (_params.protocol == CoherenceProtocol::WriteUpdate) {
            // Broadcast the new data; remote copies stay valid.
            // If nobody else holds the line, promote to Modified
            // (the Firefly last-copy optimization) so future
            // writes stay off the bus.
            ++updatesBroadcast;
            bool remoteCopy = false;
            Cycle grant = _bus->transaction(
                _cluster, BusOp::Update, lineAddr, start,
                &remoteCopy);
            if (!remoteCopy)
                line->state = CoherenceState::Modified;
            if (_params.stallOnUpgrade) {
                missStallCycles += grant - start;
                return grant;
            }
            return start;
        }
        // Shared → Modified: invalidate remote copies.
        ++upgradeHits;
        Cycle grant = _bus->transaction(_cluster, BusOp::Upgrade,
                                        lineAddr, start);
        line->state = CoherenceState::Modified;
        if (_params.stallOnUpgrade) {
            missStallCycles += grant - start;
            return grant;
        }
        return start;
    }

    // Miss.
    if (type == RefType::Read)
        ++readMisses;
    else
        ++writeMisses;
    DPRINTF(Cache, "scc", _cluster, " ", refTypeName(type),
            " miss line 0x", std::hex, lineAddr, std::dec, " @",
            start);
    Cycle ready = handleMiss(type, lineAddr, start,
                             _domainByPort[(std::size_t)localCpu]);
    missStallCycles += ready - start;
    return ready;
}

void
SharedClusterCache::rekeyFlush(Cycle now)
{
    // Empty the array: every resident line leaves through the same
    // writeback/evict sequence a capacity eviction uses, so the
    // observer's shadow state tracks the flush exactly.
    _tags.forEachLine([&](CacheLine &line) {
        if (!line.valid())
            return;
        if (line.readyAt && _recorder)
            _recorder->mshrRetire(_cluster, line.tag, now);
        bool dirty = line.state == CoherenceState::Modified;
        if (dirty) {
            ++writeBacks;
            _bus->transaction(_cluster, BusOp::WriteBack, line.tag,
                              now);
        }
        if (_observer) {
            if (dirty)
                _observer->onDirtyFlush(_cluster, line.tag);
            _observer->onEvict(_cluster, line.tag, dirty);
        }
        TagArray::invalidate(&line);
    });
    _tags.rekey();
    _fillsSinceRekey = 0;
    ++rekeyFlushes;
    DPRINTF(Cache, "scc", _cluster, " rekeyed to epoch ",
            _tags.rekeyEpoch(), " @", now);
}

Cycle
SharedClusterCache::handleMiss(RefType type, Addr lineAddr,
                               Cycle now, int domain)
{
    // Rand isolation turns its epoch by fill count: once enough
    // fills have landed under the current keys, flush and rekey
    // before this miss allocates.
    if (_params.sec.mode == IsolationMode::Rand &&
        _params.sec.rekeyFills != 0 &&
        _fillsSinceRekey >= _params.sec.rekeyFills)
        rekeyFlush(now);
    ++_fillsSinceRekey;

    // Evict the victim; write back dirty data (buffered, so the
    // requester does not wait on it beyond bus occupancy).
    CacheLine *victim = _tags.victim(lineAddr, domain);
    if (victim->valid()) {
        // The victim's MSHR leaves now, before the bus transactions
        // below can snoop the victim again.
        if (victim->readyAt && _recorder)
            _recorder->mshrRetire(_cluster, victim->tag, now);
        victim->readyAt = 0;
        if (victim->state == CoherenceState::Modified) {
            ++writeBacks;
            _bus->transaction(_cluster, BusOp::WriteBack, victim->tag,
                              now);
        }
    }

    bool update =
        _params.protocol == CoherenceProtocol::WriteUpdate;
    // Under write-update a write miss fetches a shared copy and
    // broadcasts the new data; remote copies survive.
    BusOp op = (type == RefType::Write && !update)
                   ? BusOp::ReadExcl
                   : BusOp::Read;
    bool remoteCopy = false;
    Cycle ready =
        _bus->transaction(_cluster, op, lineAddr, now, &remoteCopy);

    CoherenceState fillState;
    if (type == RefType::Write && !update) {
        fillState = CoherenceState::Modified;
    } else if (update && !remoteCopy) {
        fillState = CoherenceState::Modified;  // exclusive fill
    } else {
        fillState = CoherenceState::Shared;
    }
    if (type == RefType::Write && update && remoteCopy) {
        ++updatesBroadcast;
        _bus->transaction(_cluster, BusOp::Update, lineAddr,
                          ready);
    }
    // The victim leaves the tag array only here, when the fill
    // overwrites it — report the eviction at the same point so an
    // observer's shadow state never disagrees with the tags while
    // the miss's bus transactions are in flight.
    if (_observer && victim->valid()) {
        bool dirty = victim->state == CoherenceState::Modified;
        if (dirty)
            _observer->onDirtyFlush(_cluster, victim->tag);
        _observer->onEvict(_cluster, victim->tag, dirty);
    }
    _tags.fill(victim, lineAddr, fillState, domain);
    victim->readyAt = ready;
    if (_observer)
        _observer->onFill(_cluster, lineAddr, fillState);
    if (_recorder)
        _recorder->mshrAlloc(_cluster, lineAddr, now, ready);
    return ready;
}

SnoopResult
SharedClusterCache::snoop(BusOp op, Addr lineAddr, Cycle when)
{
    SnoopResult result;
    CacheLine *line = _tags.probe(lineAddr);
    if (!line)
        return result;

    result.hadCopy = true;
    switch (op) {
      case BusOp::Read:
        if (line->state == CoherenceState::Modified) {
            // Supply the dirty line and keep a shared copy.
            result.suppliedDirty = true;
            ++interventionsSupplied;
            line->state = CoherenceState::Shared;
            if (_observer)
                _observer->onDirtyFlush(_cluster, lineAddr);
        }
        break;
      case BusOp::ReadExcl:
      case BusOp::Upgrade:
#ifdef SCMP_PROTOCOL_MUTATION
        // Test-only injected protocol bug (check_mutation_death):
        // an Upgrade leaves remote Shared copies valid — the
        // classic lost invalidation. The checker must catch it.
        if (op == BusOp::Upgrade)
            break;
#endif
        if (line->state == CoherenceState::Modified) {
            result.suppliedDirty = true;
            ++interventionsSupplied;
            if (_observer)
                _observer->onDirtyFlush(_cluster, lineAddr);
        }
        if (line->readyAt && _recorder)
            _recorder->mshrRetire(_cluster, lineAddr, when);
        TagArray::invalidate(line);
        if (_observer)
            _observer->onInvalidate(_cluster, lineAddr);
        result.invalidated = true;
        ++invalidationsReceived;
        DPRINTF(Coherence, "scc", _cluster,
                " invalidated line 0x", std::hex, lineAddr,
                std::dec, " by ", busOpName(op));
        break;
      case BusOp::Update:
        // Absorb the broadcast; the copy stays valid. A Modified
        // copy cannot coexist with the writer's, but demote
        // defensively if the protocols were mixed.
        if (line->state == CoherenceState::Modified)
            line->state = CoherenceState::Shared;
        if (_observer)
            _observer->onUpdateAbsorbed(_cluster, lineAddr);
        ++updatesReceived;
        break;
      case BusOp::WriteBack:
        // Never broadcast: memory absorbs writebacks, and the
        // fabrics probe no peer for them.
        break;
    }
    return result;
}

} // namespace scmp
