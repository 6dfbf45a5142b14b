#include "tree.hh"

#include <algorithm>

#include "mem/coherence_observer.hh"
#include "obs/recorder.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace scmp
{

HierarchicalNet::HierarchicalNet(stats::Group *parent,
                                 const BusParams &params,
                                 const NetParams &net,
                                 int numCaches,
                                 const DramParams &dram)
    : Interconnect(parent, params, dram),
      rootTransactions(busStats(), "rootTransactions",
                       "transactions that crossed the root bus"),
      rootWaitCycles(busStats(), "rootWaitCycles",
                     "cycles waited for the root bus"),
      crossSegSnoops(busStats(), "crossSegSnoops",
                     "remote leaf segments snooped"),
      snoopsFiltered(busStats(), "snoopsFiltered",
                     "cache probes the snoop filter avoided"),
      filterEvictions(busStats(), "filterEvictions",
                      "snoop-filter entries evicted at capacity"),
      backInvalidations(busStats(), "backInvalidations",
                        "cache copies dropped by filter evictions"),
      remoteFills(busStats(), "remoteFills",
                  "fills served by a remote segment's memory"),
      _net(net),
      _numCaches(numCaches),
      _sfCap((std::size_t)net.snoopFilterCapacity)
{
    panic_if(numCaches <= 0, "tree needs at least one cache");
    fatal_if(net.segments <= 0,
             "tree needs at least one leaf segment");
    _segments = std::min(net.segments, numCaches);
    panic_if(_segments > maxTreeSegments, "tree of ", _segments,
             " segments is wider than its ", maxTreeSegments,
             "-bit presence mask");

    // Contiguous, balanced cache→segment layout: with the machine's
    // cluster-major cache indexing, neighbouring clusters share a
    // leaf segment.
    _segOfCache.resize((std::size_t)numCaches);
    for (int c = 0; c < numCaches; ++c)
        _segOfCache[(std::size_t)c] = c * _segments / numCaches;
    _segFirst.assign((std::size_t)_segments + 1, 0);
    for (int s = 0; s < _segments; ++s) {
        std::size_t first = 0;
        while ((int)first < numCaches &&
               _segOfCache[first] < s)
            ++first;
        _segFirst[(std::size_t)s] = first;
    }
    _segFirst[(std::size_t)_segments] = (std::size_t)numCaches;

    _segFree.assign((std::size_t)_segments, 0);
    _segBusy.assign((std::size_t)_segments, 0);

    _channelNames.push_back("root");
    for (int s = 0; s < _segments; ++s)
        _channelNames.push_back("seg" + std::to_string(s));

    // Flat memory is one shared pool behind the root (the paper's
    // model); the banked backend becomes one local memory per
    // segment, row-interleaved (NUMA).
    _perSegmentMem = _dram.kind == MemBackendKind::Banked;
    if (_perSegmentMem) {
        // BankedDram refuses a row size that is not a power of two.
        for (int s = 0; s < _segments; ++s)
            addBackend("mem" + std::to_string(s));
        _rowShift = floorLog2(_dram.rowBytes);
    } else {
        addBackend("mem");
    }
}

std::uint32_t
HierarchicalNet::presenceMask(Addr lineAddr) const
{
    const std::uint32_t *slot = _slotOf.find(lineAddr);
    return slot ? _entries[*slot].mask : 0;
}

void
HierarchicalNet::unlink(std::uint32_t slot)
{
    const FilterEntry &entry = _entries[slot];
    (entry.prev == noSlot ? _mru : _entries[entry.prev].next) =
        entry.next;
    (entry.next == noSlot ? _lru : _entries[entry.next].prev) =
        entry.prev;
}

void
HierarchicalNet::linkFront(std::uint32_t slot)
{
    FilterEntry &entry = _entries[slot];
    entry.prev = noSlot;
    entry.next = _mru;
    (_mru == noSlot ? _lru : _entries[_mru].prev) = slot;
    _mru = slot;
}

std::uint32_t
HierarchicalNet::evictFilterVictim(Cycle when)
{
    std::uint32_t slot = _lru;
    panic_if(slot == noSlot, "snoop filter eviction with no entries");
    Addr victim = _entries[slot].line;
    std::uint32_t mask = _entries[slot].mask;
    ++filterEvictions;

    // The directory is inclusive: once the entry is gone, a cached
    // copy the filter no longer tracks could miss an invalidation.
    // Probe every flagged segment with an invalidating op (source
    // -1 exempts nobody) so the caches drop — and, if dirty, flush
    // — their copies before the entry disappears.
    std::uint64_t droppedBefore = invalidationsPerformed();
    for (int r = 0; r < _segments; ++r) {
        if (!(mask >> (unsigned)r & 1u))
            continue;
        snoopRange(_segFirst[(std::size_t)r],
                   _segFirst[(std::size_t)r + 1], ClusterId(-1),
                   BusOp::ReadExcl, victim, when);
    }
    backInvalidations += invalidationsPerformed() - droppedBefore;

    unlink(slot);
    _slotOf.erase(victim);
    return slot;
}

void
HierarchicalNet::filterInsert(Addr lineAddr, std::uint32_t mask,
                              Cycle when)
{
    std::uint32_t slot;
    if (_sfCap && _slotOf.size() >= _sfCap) {
        // Evict before inserting so the victim can never be the
        // line being installed; the line takes the victim's slot.
        slot = evictFilterVictim(when);
    } else if (!_freeSlots.empty()) {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
    } else {
        panic_if(_entries.size() >= noSlot,
                 "snoop filter outgrew its slot index");
        slot = (std::uint32_t)_entries.size();
        _entries.emplace_back();
    }
    _entries[slot].line = lineAddr;
    _entries[slot].mask = mask;
    linkFront(slot);
    _slotOf.set(lineAddr, slot);
    panic_if(_sfCap && _slotOf.size() > _sfCap,
             "snoop filter exceeded its capacity");
}

void
HierarchicalNet::filterErase(std::uint32_t slot)
{
    unlink(slot);
    _slotOf.erase(_entries[slot].line);
    _freeSlots.push_back(slot);
}

Cycle
HierarchicalNet::transaction(ClusterId source, BusOp op,
                             Addr lineAddr, Cycle now,
                             bool *remoteCopyOut)
{
    panic_if(source < 0 || source >= _numCaches,
             "bad interconnect source ", source);
    countOp(op);

    int s = _segOfCache[(std::size_t)source];
    std::size_t segCaches =
        _segFirst[(std::size_t)s + 1] - _segFirst[(std::size_t)s];

    // Arbitrate for the local leaf segment; the local snoop happens
    // at this grant, exactly like a small atomic bus.
    Cycle grant = std::max(now, _segFree[(std::size_t)s]);
    waitCycles += grant - now;
    Cycle occupancy =
        (op == BusOp::Upgrade || op == BusOp::Update)
            ? _params.addressOccupancy
            : _params.transferOccupancy;
    _segFree[(std::size_t)s] = grant + occupancy;
    _segBusy[(std::size_t)s] += occupancy;
    DPRINTF(Bus, busOpName(op), " from ", source, " line 0x",
            std::hex, lineAddr, std::dec, " seg", s, " granted @",
            grant);

    SnoopOutcome outcome =
        snoopRange(_segFirst[(std::size_t)s],
                   _segFirst[(std::size_t)s + 1], source, op,
                   lineAddr, grant);

    // Consult the inclusive snoop filter: which other segments may
    // hold the line? Memory hangs off the root, so fetches and
    // writebacks always cross it; address-only ops cross only when
    // a remote segment's presence bit is set. Probes never touch the
    // directory, so this one lookup's slot serves the update below.
    const std::uint32_t *found = _slotOf.find(lineAddr);
    std::uint32_t slot = found ? *found : noSlot;
    std::uint32_t mask = found ? _entries[slot].mask : 0;
    std::uint32_t remoteMask = mask & ~(1u << (unsigned)s);
    bool needsMemory = op == BusOp::Read || op == BusOp::ReadExcl ||
                       op == BusOp::WriteBack;
    // Memory absorbs writebacks; peers have nothing to do, so the
    // root carries the data but no remote segment is probed.
    std::uint32_t probeMask =
        op == BusOp::WriteBack ? 0 : remoteMask;
    Cycle lastGrant = grant;

    if (needsMemory || remoteMask) {
        Cycle rootGrant = std::max(grant, _rootFree);
        rootWaitCycles += rootGrant - grant;
        waitCycles += rootGrant - grant;
        ++rootTransactions;
        lastGrant = rootGrant;

        // Probe the flagged remote segments in ascending order; a
        // probe that finds nothing lazily clears the stale bit.
        for (int r = 0; r < _segments; ++r) {
            if (r == s)
                continue;
            std::size_t first = _segFirst[(std::size_t)r];
            std::size_t last = _segFirst[(std::size_t)r + 1];
            if (!(probeMask >> (unsigned)r & 1u)) {
                snoopsFiltered += last - first;
                continue;
            }
            Cycle segGrant =
                std::max(rootGrant, _segFree[(std::size_t)r]);
            waitCycles += segGrant - rootGrant;
            _segFree[(std::size_t)r] = segGrant + occupancy;
            _segBusy[(std::size_t)r] += occupancy;
            ++crossSegSnoops;
            SnoopOutcome remote = snoopRange(first, last, source,
                                             op, lineAddr, segGrant);
            outcome.snooped += remote.snooped;
            outcome.remoteCopy |= remote.remoteCopy;
            outcome.dirtySupplied |= remote.dirtySupplied;
            if (!remote.remoteCopy)
                mask &= ~(1u << (unsigned)r);
            lastGrant = std::max(lastGrant, segGrant);
        }

        Cycle rootOccupancy = occupancy;
        if (outcome.dirtySupplied)
            rootOccupancy += _params.transferOccupancy;
        _rootFree = rootGrant + rootOccupancy;
        _rootBusy += rootOccupancy;
    } else {
        // The whole transaction stayed on one leaf segment: every
        // cache outside it was spared a probe.
        snoopsFiltered += (std::uint64_t)_numCaches - segCaches;
    }

    if (remoteCopyOut)
        *remoteCopyOut = outcome.remoteCopy;
    if (_observer)
        _observer->onBusTransaction(source, op, lineAddr, grant);
    if (outcome.dirtySupplied) {
        ++interventions;
        // The flushed line is delivered to the requester over its
        // own leaf segment: one extra transfer slot there.
        _segBusy[(std::size_t)s] += _params.transferOccupancy;
        _segFree[(std::size_t)s] += _params.transferOccupancy;
    }

    // Update the directory. Fetches register the requester's
    // segment; invalidating ops leave it the only possible holder;
    // a writeback retires the line (Modified implies exclusive, so
    // nobody else can hold a copy).
    switch (op) {
      case BusOp::Read:
      case BusOp::Update:
        mask |= 1u << (unsigned)s;
        break;
      case BusOp::ReadExcl:
      case BusOp::Upgrade:
        mask = 1u << (unsigned)s;
        break;
      case BusOp::WriteBack:
        mask &= ~(1u << (unsigned)s);
        break;
    }
    if (slot == noSlot) {
        if (mask)
            filterInsert(lineAddr, mask, lastGrant);
    } else if (mask) {
        _entries[slot].mask = mask;
        unlink(slot);
        linkFront(slot);
    } else {
        filterErase(slot);
    }

    if (_recorder)
        _recorder->busTransaction((int)source, busOpName(op),
                                  lineAddr, now, grant, occupancy,
                                  outcome.snooped,
                                  outcome.dirtySupplied);

    switch (op) {
      case BusOp::Read:
      case BusOp::ReadExcl: {
        // Fetch from the line's home memory, timed from the last
        // grant on the path so cross-segment invalidations complete
        // before the fill. The flat backend is one shared pool (a
        // fixed memoryLatency, the paper's model); the banked
        // backend is per-segment, and a fill whose home is not the
        // requester's segment pays the NUMA remote penalty.
        int home = _perSegmentMem ? homeSegment(lineAddr) : 0;
        Cycle done = memory(home).fill(lineAddr, lastGrant);
        if (_perSegmentMem && home != s) {
            ++remoteFills;
            done += _dram.numaRemotePenalty;
        }
        return done;
      }
      case BusOp::Upgrade:
      case BusOp::Update:
        // The broadcast is done once the last flagged segment has
        // seen it.
        return lastGrant;
      case BusOp::WriteBack:
        // Write-buffered at the leaf; the home memory absorbs the
        // line whenever its bank frees up.
        memory(_perSegmentMem ? homeSegment(lineAddr) : 0)
            .writeBack(lineAddr, lastGrant);
        return grant;
    }
    panic("unreachable bus op");
}

double
HierarchicalNet::utilization(Cycle now) const
{
    if (!now)
        return 0.0;
    Cycle busy = _rootBusy;
    for (Cycle b : _segBusy)
        busy += b;
    return (double)busy /
           ((double)(1 + _segments) * (double)now);
}

} // namespace scmp
