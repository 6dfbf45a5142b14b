#include "tag_array.hh"

namespace scmp
{

namespace
{

/** splitmix64 finalizer — the rand-mode index hash. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

TagArray::TagArray(std::uint64_t sizeBytes, std::uint32_t lineBytes,
                   std::uint32_t assoc, const SecParams &sec)
    : _sizeBytes(sizeBytes), _lineBytes(lineBytes), _assoc(assoc),
      _sec(sec)
{
    fatal_if(!isPowerOf2(sizeBytes), "cache size must be 2^n bytes");
    fatal_if(!isPowerOf2(lineBytes), "line size must be 2^n bytes");
    fatal_if(assoc == 0, "associativity must be at least 1");
    fatal_if(sizeBytes % ((std::uint64_t)lineBytes * assoc) != 0,
             "cache size not divisible by way size");
    _lineShift = floorLog2(lineBytes);
    _numSets = sizeBytes / lineBytes / assoc;
    fatal_if(!isPowerOf2(_numSets), "set count must be a power of 2");
    _lineMask = ~(Addr)(lineBytes - 1);
    _setMask = _numSets - 1;
    _lines.resize(_numSets * assoc);

    if (isolated()) {
        fatal_if(_sec.domains < 2,
                 "isolation needs at least two security domains");
        switch (_sec.mode) {
          case IsolationMode::WayPart:
            fatal_if(assoc % (std::uint32_t)_sec.domains != 0,
                     "--isolation=waypart needs the associativity (",
                     assoc, ") divisible by --isolation-domains (",
                     _sec.domains, ")");
            _waysPerDomain = assoc / (std::uint32_t)_sec.domains;
            break;
          case IsolationMode::Color:
            fatal_if(!isPowerOf2((std::uint64_t)_sec.domains) ||
                         (std::uint64_t)_sec.domains > _numSets,
                     "--isolation=color needs a power-of-two "
                     "--isolation-domains dividing the set count (",
                     _numSets, " sets, ", _sec.domains, " domains)");
            _setsPerDomain = _numSets / (std::uint64_t)_sec.domains;
            break;
          case IsolationMode::Rand:
            deriveKeys();
            break;
          case IsolationMode::None:
            break;
        }
    }
}

void
TagArray::deriveKeys()
{
    _domainKeys.assign((std::size_t)_sec.domains, 0);
    for (int d = 0; d < _sec.domains; ++d) {
        _domainKeys[(std::size_t)d] = mix64(
            _sec.key ^ mix64((std::uint64_t)d + 1) ^
            mix64(_rekeyEpoch * 0x51ed270b9ull + 17));
    }
}

void
TagArray::rekey()
{
    ++_rekeyEpoch;
    deriveKeys();
}

std::uint64_t
TagArray::setIndexFor(Addr addr, int domain) const
{
    switch (_sec.mode) {
      case IsolationMode::None:
      case IsolationMode::WayPart:
        return setIndex(addr);
      case IsolationMode::Color:
        return ((addr >> _lineShift) & (_setsPerDomain - 1)) +
               (std::uint64_t)domain * _setsPerDomain;
      case IsolationMode::Rand:
        return mix64((addr >> _lineShift) ^
                     _domainKeys[(std::size_t)domain]) &
               _setMask;
    }
    return setIndex(addr);
}

CacheLine *
TagArray::lookup(Addr addr)
{
    CacheLine *line = probe(addr);
    if (line)
        line->lruStamp = ++_stampCounter;
    return line;
}

const CacheLine *
TagArray::probe(Addr addr) const
{
    Addr tag = addr & _lineMask;

    // Color/rand spread one address over a candidate set per
    // domain; the single resident copy can sit in any of them, so
    // a domain-agnostic probe (snoops, coherence, sharers) scans
    // them all.
    if (isolated() && _sec.mode != IsolationMode::WayPart) {
        for (int d = 0; d < _sec.domains; ++d) {
            const CacheLine *base =
                &_lines[setIndexFor(addr, d) * _assoc];
            for (std::uint32_t way = 0; way < _assoc; ++way) {
                if (base[way].valid() && base[way].tag == tag)
                    return &base[way];
            }
        }
        return nullptr;
    }

    const CacheLine *base = &_lines[setIndex(addr) * _assoc];
    for (std::uint32_t way = 0; way < _assoc; ++way) {
        if (base[way].tag == tag && base[way].valid())
            return &base[way];
    }
    return nullptr;
}

CacheLine *
TagArray::probe(Addr addr)
{
    // Reuse the const lookup; only the caller's access widens.
    return const_cast<CacheLine *>(
        static_cast<const TagArray *>(this)->probe(addr));
}

CacheLine *
TagArray::victim(Addr addr, int domain)
{
    std::uint64_t setIdx = setIndexFor(addr, domain);
    std::uint32_t wayBegin = 0;
    std::uint32_t wayEnd = _assoc;
    if (_sec.mode == IsolationMode::WayPart) {
        wayBegin = (std::uint32_t)domain * _waysPerDomain;
        wayEnd = wayBegin + _waysPerDomain;
    }
#ifdef SCMP_SEC_MUTATION
    // Test-only injected isolation bug (sec_mutation_death): the
    // replacement search ignores the partition and roams the whole
    // raw-indexed set, so one domain's fill can evict — and occupy —
    // another domain's ways. The checker's partition-invariant walk
    // must catch it.
    setIdx = setIndex(addr);
    wayBegin = 0;
    wayEnd = _assoc;
#endif
    CacheLine *set = &_lines[setIdx * _assoc];
    CacheLine *best = &set[wayBegin];
    for (std::uint32_t way = wayBegin; way < wayEnd; ++way) {
        if (!set[way].valid())
            return &set[way];
        if (set[way].lruStamp < best->lruStamp)
            best = &set[way];
    }
    return best;
}

void
TagArray::fill(CacheLine *line, Addr addr, CoherenceState state,
               int domain)
{
    panic_if(state == CoherenceState::Invalid,
             "filling a line with Invalid state");
    line->tag = lineAddr(addr);
    line->state = state;
    line->lruStamp = ++_stampCounter;
    line->readyAt = 0;
    line->domain = (std::uint16_t)domain;
}

bool
TagArray::invalidate(Addr addr)
{
    CacheLine *line = probe(addr);
    if (!line)
        return false;
    // The recency stamp goes too: an invalid way must not carry a
    // stale stamp into its next tenancy (fill() re-stamps, but any
    // path that inspects stamps between invalidate and refill would
    // otherwise see a recency the way no longer has).
    invalidate(line);
    return true;
}

bool
TagArray::placementValid(const CacheLine &line, std::uint64_t set,
                         std::uint32_t way) const
{
    switch (_sec.mode) {
      case IsolationMode::None:
        return setIndex(line.tag) == set;
      case IsolationMode::WayPart:
        return setIndex(line.tag) == set &&
               line.domain < _sec.domains &&
               way / _waysPerDomain == line.domain;
      case IsolationMode::Color:
      case IsolationMode::Rand:
        return line.domain < _sec.domains &&
               setIndexFor(line.tag, line.domain) == set;
    }
    return false;
}

std::uint64_t
TagArray::setOccupancy(std::uint64_t set) const
{
    panic_if(set >= _numSets, "set ", set, " out of range");
    std::uint64_t count = 0;
    const CacheLine *base = &_lines[set * _assoc];
    for (std::uint32_t way = 0; way < _assoc; ++way) {
        if (base[way].valid())
            ++count;
    }
    return count;
}

std::uint64_t
TagArray::validLines() const
{
    std::uint64_t count = 0;
    for (const auto &line : _lines) {
        if (line.valid())
            ++count;
    }
    return count;
}

} // namespace scmp
