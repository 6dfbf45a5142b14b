#include "icache.hh"

#include "sim/logging.hh"

namespace scmp
{

ICache::ICache(stats::Group *parent, const std::string &name,
               ClusterId cluster, const ICacheParams &params,
               Interconnect *bus)
    : _params(params), _cluster(cluster), _bus(bus),
      _tags(params.sizeBytes, params.lineBytes, 1),
      _lineShift(floorLog2(params.lineBytes)),
      statsGroup(parent, name),
      fetches(&statsGroup, "fetches", "instruction line lookups"),
      misses(&statsGroup, "misses", "instruction cache misses"),
      stallCycles(&statsGroup, "stallCycles",
                  "fetch stall cycles added to execution")
{
}

void
ICache::setStream(Addr codeBase, std::uint64_t footprintBytes)
{
    _codeBase = codeBase;
    _footprint = footprintBytes;
    // Re-seed deterministically from the code segment so a given
    // process replays the same control flow on every processor it
    // migrates to.
    _rng.reseed(codeBase ^ footprintBytes);
    _loopBase = 0;
    _loopBytes = 0;
    _loopOffset = 0;
    _iterationsLeft = 0;
}

void
ICache::newEpisode()
{
    // Real programs execute as a sequence of loop episodes: a
    // loop body of a few hundred bytes to a few KB, iterated many
    // times, then control moves elsewhere in the text.
    std::uint64_t line = _params.lineBytes;
    std::uint64_t span = roundedFootprint();
    _loopBytes = 256 + (std::uint64_t)_rng.exponential(1.0 / 1536.0);
    if (_loopBytes > span)
        _loopBytes = span;
    _loopBytes = (_loopBytes + line - 1) / line * line;
    std::uint64_t maxBase = span - _loopBytes;
    _loopBase = maxBase ? (_rng.range(maxBase / line)) * line : 0;
    _loopOffset = 0;
    _iterationsLeft = 1 + (std::uint64_t)_rng.exponential(1.0 / 24.0);
}

Cycle
ICache::fetch(std::uint32_t instrs, Cycle now)
{
    if (!_params.enabled || _footprint == 0)
        return 0;

    std::uint64_t bytes =
        (std::uint64_t)instrs * _params.bytesPerInstr;
    Cycle stall = 0;

    while (bytes > 0) {
        if (_iterationsLeft == 0)
            newEpisode();

        // Fetch up to the end of the current loop pass.
        std::uint64_t chunk =
            std::min(bytes, _loopBytes - _loopOffset);
        std::uint64_t firstLine =
            (_loopBase + _loopOffset) >> _lineShift;
        std::uint64_t lastLine =
            (_loopBase + _loopOffset + chunk - 1) >> _lineShift;
        for (std::uint64_t l = firstLine; l <= lastLine; ++l) {
            Addr addr = _codeBase + (l << _lineShift);
            ++fetches;
            if (!_tags.lookup(addr)) {
                ++misses;
                CacheLine *victim = _tags.victim(addr);
                Cycle ready = now + stall;
                if (_bus) {
                    ready = _bus->transaction(
                        _cluster, BusOp::Read, addr, now + stall);
                }
                stall += ready - (now + stall);
                _tags.fill(victim, addr, CoherenceState::Shared);
            }
        }
        _loopOffset += chunk;
        bytes -= chunk;
        if (_loopOffset >= _loopBytes) {
            _loopOffset = 0;
            --_iterationsLeft;
        }
    }
    stallCycles += stall;
    return stall;
}

std::uint64_t
ICache::roundedFootprint() const
{
    // Keep the wrap point line-aligned so the walk is periodic.
    std::uint64_t line = _params.lineBytes;
    std::uint64_t rounded = (_footprint + line - 1) / line * line;
    return rounded ? rounded : line;
}

} // namespace scmp
