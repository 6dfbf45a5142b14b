#include "banked_dram.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace scmp
{

BankedDram::BankedDram(stats::Group *parent,
                       const std::string &name,
                       const DramParams &params)
    : _params(params),
      _stats(parent, name),
      fillsServed(&_stats, "fills", "line fetches serviced"),
      writeBacksServed(&_stats, "writeBacks",
                       "evicted lines absorbed"),
      rowHitCount(&_stats, "rowHits",
                  "accesses that hit the open row"),
      rowMissCount(&_stats, "rowMisses",
                   "accesses that activated an idle bank"),
      rowConflictCount(&_stats, "rowConflicts",
                       "accesses that closed a different row"),
      queueWaitCycles(&_stats, "queueWaitCycles",
                      "cycles requests queued before service")
{
    fatal_if(_params.channels <= 0,
             "banked DRAM needs at least one channel");
    fatal_if(_params.banks <= 0,
             "banked DRAM needs at least one bank per channel");
    fatal_if(_params.rowBytes == 0 ||
                 (_params.rowBytes & (_params.rowBytes - 1)) != 0,
             "DRAM row size must be a power of two");
    _rowShift = floorLog2(_params.rowBytes);
    _channels.resize((std::size_t)_params.channels);
    for (Channel &channel : _channels)
        channel.banks.resize((std::size_t)_params.banks);
}

BankedDram::Decode
BankedDram::decode(Addr lineAddr) const
{
    // Row-granular interleave: lines within one rowBytes block share
    // a row buffer; consecutive blocks round-robin the channels,
    // then the banks.
    std::uint64_t block = lineAddr >> _rowShift;
    Decode d;
    d.channel = (int)(block % (std::uint64_t)_params.channels);
    std::uint64_t perChannel =
        block / (std::uint64_t)_params.channels;
    d.bank = (int)(perChannel % (std::uint64_t)_params.banks);
    d.row = perChannel / (std::uint64_t)_params.banks;
    return d;
}

Cycle
BankedDram::service(Addr lineAddr, Cycle now)
{
    Decode d = decode(lineAddr);
    Channel &channel = _channels[(std::size_t)d.channel];
    Bank &bank = channel.banks[(std::size_t)d.bank];

    Cycle start = std::max(now, bank.freeAt);
    if (_params.sched == MemSched::Fcfs)
        start = std::max(start, channel.inOrderFreeAt);
    queueWaitCycles += start - now;

    const DramTiming &t = _params.timing;
    Cycle access;
    if (bank.rowValid && bank.openRow == d.row) {
        ++rowHitCount;
        access = t.rowHit;
    } else if (!bank.rowValid) {
        ++rowMissCount;
        access = t.rowMiss;
    } else {
        ++rowConflictCount;
        access = t.rowConflict;
    }
    bank.rowValid = true;
    bank.openRow = d.row;

    Cycle accessDone = start + access;
    bank.freeAt = accessDone;
    bank.busy += access;

    // The line then streams over the channel's shared data bus.
    Cycle dataStart = std::max(accessDone, channel.dataFreeAt);
    Cycle done = dataStart + t.burst;
    channel.dataFreeAt = done;
    channel.busy += t.burst;

    if (_params.sched == MemSched::Fcfs)
        channel.inOrderFreeAt = done;
    return done;
}

Cycle
BankedDram::fill(Addr lineAddr, Cycle now)
{
    ++fillsServed;
    return service(lineAddr, now);
}

void
BankedDram::writeBack(Addr lineAddr, Cycle now)
{
    // Write-buffered: the evicted line is scheduled like any other
    // access (it occupies its bank and data bus, delaying later
    // fills that collide) but the requester never waits on it.
    ++writeBacksServed;
    service(lineAddr, now);
}

double
BankedDram::rowHitRate() const
{
    std::uint64_t accesses = rowHitCount.value() +
                             rowMissCount.value() +
                             rowConflictCount.value();
    return accesses ? (double)rowHitCount.value() / (double)accesses
                    : 0.0;
}

} // namespace scmp
