#include "tm/tm_manager.hh"

#include <algorithm>

#include "mem/coherence_observer.hh"
#include "mem/scc.hh"
#include "sim/logging.hh"

namespace scmp
{

TmStats::TmStats(stats::Group *parent)
    : group(parent, "tm"),
      begins(&group, "begins", "transactions started"),
      commits(&group, "commits", "transactions committed"),
      aborts(&group, "aborts", "transactions aborted"),
      conflictAborts(&group, "conflictAborts",
                     "aborts caused by conflicting transactions"),
      capacityAborts(&group, "capacityAborts",
                     "aborts caused by read/write-set overflow"),
      fallbacks(&group, "fallbacks",
                "transactions that fell back to the global lock"),
      speculativeStores(&group, "speculativeStores",
                        "words written into a speculative set"),
      publishedWords(&group, "publishedWords",
                     "speculative words published at commit")
{
}

TmManager::TmManager(const TmParams &params,
                     std::vector<SharedClusterCache *> cacheByCpu,
                     std::vector<int> localByCpu,
                     std::vector<int> cacheIdxByCpu,
                     int lineBytes, TmStats *stats)
    : _params(params),
      _cacheByCpu(std::move(cacheByCpu)),
      _localByCpu(std::move(localByCpu)),
      _cacheIdxByCpu(std::move(cacheIdxByCpu)),
      _lineMask((Addr)lineBytes - 1),
      _stats(stats),
      _tx(_cacheByCpu.size())
{
    panic_if(!stats, "tm: null stats");
    panic_if(!isPowerOf2((std::uint64_t)lineBytes),
             "tm: line size must be a power of two");
}

TmManager::~TmManager() = default;

bool
TmManager::inSet(const std::vector<Addr> &set, Addr line)
{
    return std::find(set.begin(), set.end(), line) != set.end();
}

bool
TmManager::addLine(std::vector<Addr> &set, Addr line) const
{
    if (inSet(set, line))
        return true;
    if ((int)set.size() >= _params.setEntries)
        return false;
    set.push_back(line);
    return true;
}

void
TmManager::addWord(Tx &tx, Addr word) const
{
    if (!inSet(tx.writeWords, word))
        tx.writeWords.push_back(word);
}

/*
 * The three conflict probes below are the HTM's snoop checks — the
 * points where one processor's speculation becomes visible to
 * another's. SCMP_TM_MUTATION (tests/tm_mutation_death) compiles
 * them out: a conflict detector that drops its snoop check lets two
 * overlapping transactions both commit, and the checker's read-set
 * validation at commit must kill the run.
 */

bool
TmManager::olderConflictor(CpuId cpu, Addr line, bool write) const
{
#ifdef SCMP_TM_MUTATION
    (void)cpu; (void)line; (void)write;
    return false;
#else
    const Tx &mine = _tx[cpu];
    for (CpuId other = 0; other < (CpuId)_tx.size(); ++other) {
        if (other == cpu || !_tx[other].active)
            continue;
        const Tx &tx = _tx[other];
        bool conflict = inSet(tx.writeLines, line) ||
                        (write && inSet(tx.readLines, line));
        if (conflict && tx.timestamp < mine.timestamp)
            return true;
    }
    return false;
#endif
}

void
TmManager::doomYoungerConflictors(CpuId cpu, Addr line, bool write)
{
#ifdef SCMP_TM_MUTATION
    (void)cpu; (void)line; (void)write;
#else
    for (CpuId other = 0; other < (CpuId)_tx.size(); ++other) {
        if (other == cpu || !_tx[other].active)
            continue;
        const Tx &tx = _tx[other];
        bool conflict = inSet(tx.writeLines, line) ||
                        (write && inSet(tx.readLines, line));
        if (conflict)
            doomTx(other);
    }
#endif
}

void
TmManager::doomPublishedConflicts(CpuId cpu)
{
#ifdef SCMP_TM_MUTATION
    (void)cpu;
#else
    const Tx &mine = _tx[cpu];
    for (CpuId other = 0; other < (CpuId)_tx.size(); ++other) {
        if (other == cpu || !_tx[other].active)
            continue;
        const Tx &tx = _tx[other];
        for (Addr line : mine.writeLines) {
            if (inSet(tx.readLines, line) ||
                inSet(tx.writeLines, line)) {
                doomTx(other);
                break;
            }
        }
    }
#endif
}

void
TmManager::doomTx(CpuId victim)
{
    _tx[victim].doomed = true;
}

void
TmManager::selfDoom(CpuId cpu, bool capacity)
{
    _tx[cpu].doomed = true;
    _tx[cpu].capacity = capacity;
}

Cycle
TmManager::checkedAccess(CpuId cpu, RefType type, Addr addr,
                         Cycle now)
{
    SharedClusterCache *cache = _cacheByCpu[cpu];
    if (!_observer)
        return cache->access(_localByCpu[cpu], type, addr, now);
    int cacheIdx = _cacheIdxByCpu[cpu];
    _observer->onCpuAccessStart(cpu, cacheIdx, type, addr);
    Cycle done = cache->access(_localByCpu[cpu], type, addr, now);
    _observer->onCpuAccessEnd(cpu, cacheIdx, type, addr);
    return done;
}

Cycle
TmManager::begin(CpuId cpu, Cycle now)
{
    Tx &tx = _tx[cpu];
    panic_if(tx.active, "tm: nested transaction on cpu ", cpu);
    tx.active = true;
    tx.doomed = false;
    tx.capacity = false;
    tx.timestamp = ++_timestampClock;
    tx.readLines.clear();
    tx.writeLines.clear();
    tx.writeWords.clear();
    ++_stats->begins;
    if (_observer)
        _observer->onTmBegin(cpu);
    return now + _params.beginCost;
}

Cycle
TmManager::commit(CpuId cpu, Cycle now, bool *committed)
{
    Tx &tx = _tx[cpu];
    panic_if(!tx.active, "tm: commit without transaction on cpu ",
             cpu);
    if (tx.doomed) {
        // Left active; the caller's uniform failure path is
        // abort(), which also clears the sets.
        *committed = false;
        return now;
    }
    now += _params.commitCost;
    if (_observer)
        _observer->onTmCommitStart(cpu);
    // Committer wins: every overlapping speculation dies before the
    // published values land.
    doomPublishedConflicts(cpu);
    // Publish the write set as a back-to-back stream of ordinary
    // writes — invalidations/updates ride the real coherence path,
    // and the fabric serializes the burst like a store-buffer
    // flush. No fiber runs between these accesses, so the commit
    // is all-at-once from every other processor's point of view.
    for (Addr word : tx.writeWords)
        now = checkedAccess(cpu, RefType::Write, word, now);
    _stats->publishedWords += tx.writeWords.size();
    if (_observer)
        _observer->onTmCommitEnd(cpu);
    tx.active = false;
    ++_stats->commits;
    *committed = true;
    return now;
}

Cycle
TmManager::abort(CpuId cpu, Cycle now)
{
    Tx &tx = _tx[cpu];
    panic_if(!tx.active, "tm: abort without transaction on cpu ",
             cpu);
    ++_stats->aborts;
    if (tx.capacity)
        ++_stats->capacityAborts;
    else
        ++_stats->conflictAborts;
    if (_observer)
        _observer->onTmAbort(cpu);
    tx.active = false;
    tx.doomed = false;
    tx.readLines.clear();
    tx.writeLines.clear();
    tx.writeWords.clear();
    return now + _params.abortCost;
}

void
TmManager::fallbackTaken(CpuId cpu)
{
    (void)cpu;
    ++_stats->fallbacks;
}

void
TmManager::nonTxWrite(CpuId cpu, Addr addr)
{
    Addr line = lineOf(addr);
    for (CpuId other = 0; other < (CpuId)_tx.size(); ++other) {
        if (other == cpu || !_tx[other].active)
            continue;
        const Tx &tx = _tx[other];
        if (inSet(tx.readLines, line) || inSet(tx.writeLines, line))
            doomTx(other);
    }
}

Cycle
EagerTmManager::access(CpuId cpu, RefType type, Addr addr,
                       Cycle now)
{
    Tx &tx = _tx[cpu];
    panic_if(!tx.active, "tm: transactional access outside a "
             "transaction on cpu ", cpu);
    if (tx.doomed)
        return now;
    Addr line = lineOf(addr);
    bool write = type == RefType::Write;
    // A line already held in the write set needs no further checks
    // in either role; a read hit in the read set likewise. A write
    // to a line so far only read is an upgrade and re-probes.
    bool known = inSet(tx.writeLines, line) ||
                 (!write && inSet(tx.readLines, line));
    if (!known) {
        // First touch of this line in this role: the snoop-time
        // conflict check, then set growth.
        if (olderConflictor(cpu, line, write)) {
            selfDoom(cpu, false);
            return now;
        }
        doomYoungerConflictors(cpu, line, write);
        if (!addLine(write ? tx.writeLines : tx.readLines, line)) {
            selfDoom(cpu, true);
            return now;
        }
    }
    if (write) {
        addWord(tx, wordOf(addr));
        ++_stats->speculativeStores;
        if (_observer)
            _observer->onTmStore(cpu, wordOf(addr));
    }
    // Eager fetches the line even for stores (read-for-ownership
    // prefetch): the conflict and the miss are paid at store time,
    // and commit publication mostly hits.
    return checkedAccess(cpu, RefType::Read, addr, now);
}

Cycle
LazyTmManager::access(CpuId cpu, RefType type, Addr addr,
                      Cycle now)
{
    Tx &tx = _tx[cpu];
    panic_if(!tx.active, "tm: transactional access outside a "
             "transaction on cpu ", cpu);
    if (tx.doomed)
        return now;
    Addr line = lineOf(addr);
    if (type == RefType::Write) {
        if (!addLine(tx.writeLines, line)) {
            selfDoom(cpu, true);
            return now;
        }
        addWord(tx, wordOf(addr));
        ++_stats->speculativeStores;
        if (_observer)
            _observer->onTmStore(cpu, wordOf(addr));
        // One-cycle retirement into the speculative buffer — the
        // store-buffer discipline; the cache sees nothing until
        // commit.
        return now + 1;
    }
    if (!addLine(tx.readLines, line)) {
        selfDoom(cpu, true);
        return now;
    }
    return checkedAccess(cpu, RefType::Read, addr, now);
}

std::unique_ptr<TmManager>
makeTmManager(const TmParams &params,
              std::vector<SharedClusterCache *> cacheByCpu,
              std::vector<int> localByCpu,
              std::vector<int> cacheIdxByCpu,
              int lineBytes, TmStats *stats)
{
    panic_if(params.mode == TmMode::Off,
             "tm: no manager for --tm=off");
    if (params.mode == TmMode::Eager)
        return std::make_unique<EagerTmManager>(
            params, std::move(cacheByCpu), std::move(localByCpu),
            std::move(cacheIdxByCpu), lineBytes, stats);
    return std::make_unique<LazyTmManager>(
        params, std::move(cacheByCpu), std::move(localByCpu),
        std::move(cacheIdxByCpu), lineBytes, stats);
}

} // namespace scmp
