#include "machine.hh"

#include <algorithm>

#include "check/checker.hh"
#include "sim/logging.hh"

namespace scmp
{

void
MachineConfig::check() const
{
    fatal_if(numClusters <= 0, "need at least one cluster");
    fatal_if(cpusPerCluster <= 0,
             "need at least one processor per cluster");
    fatal_if(!isPowerOf2(scc.sizeBytes), "SCC size must be 2^n");
    fatal_if(scc.lineBytes == 0 || !isPowerOf2(scc.lineBytes),
             "SCC line size must be a power of two");
    // A reference is one address with no size, so a line narrower
    // than the widest one (an 8-byte double) would leave part of
    // each such access unsimulated.
    fatal_if(scc.lineBytes < 8, "--line must be at least 8 bytes, ",
             "the widest reference (got ", scc.lineBytes, ")");
    fatal_if(scc.banksPerCpu == 0, "--banks must be at least one");
    fatal_if(arenaBytes == 0, "arena must be non-empty");
    if (consistency.model == ConsistencyModel::Weak) {
        fatal_if(consistency.storeBufferEntries <= 0,
                 "--sb-entries must be at least one");
    }
    if (tm.mode != TmMode::Off) {
        fatal_if(tm.setEntries <= 0,
                 "--tm-set-entries must be at least one");
        fatal_if(tm.maxAborts <= 0,
                 "--tm-max-aborts must be at least one");
        fatal_if(consistency.model != ConsistencyModel::Sc,
                 "--tm requires sequential consistency: commit "
                 "publication provides its own ordering and does "
                 "not compose with per-CPU store buffers");
    }
    if (scc.sec.mode != IsolationMode::None) {
        fatal_if(organization != ClusterOrganization::SharedCache,
                 "--isolation partitions the shared cluster cache; "
                 "private-cache organizations have no cross-domain "
                 "channel to close");
        fatal_if(scc.sec.domains < 2,
                 "--isolation-domains must be at least two");
        std::uint64_t sets =
            scc.sizeBytes / scc.lineBytes / scc.assoc;
        if (scc.sec.mode == IsolationMode::WayPart) {
            fatal_if(scc.assoc % (std::uint32_t)scc.sec.domains !=
                         0,
                     "--isolation=waypart needs --assoc (",
                     scc.assoc, ") divisible by "
                     "--isolation-domains (", scc.sec.domains, ")");
        }
        if (scc.sec.mode == IsolationMode::Color) {
            fatal_if(!isPowerOf2((std::uint64_t)scc.sec.domains) ||
                         (std::uint64_t)scc.sec.domains > sets,
                     "--isolation=color needs a power-of-two "
                     "--isolation-domains dividing the SCC's ",
                     sets, " sets");
        }
    }
    fatal_if(net.segments <= 0,
             "--segments must be at least one");
    if (net.topology == NetTopology::Tree) {
        // The tree builds at most one leaf segment per cache.
        int segments = std::min(net.segments, cacheCount());
        fatal_if(segments > maxTreeSegments, "--segments must give at "
                 "most ", maxTreeSegments, " leaf segments, one "
                 "presence bit each in the tree's snoop filter (got ",
                 segments, " over ", cacheCount(), " caches)");
    }
    if (dram.kind == MemBackendKind::Banked) {
        fatal_if(dram.channels <= 0,
                 "--channels must be at least one");
        fatal_if(dram.banks <= 0,
                 "--mem-banks must be at least one");
        fatal_if(!isPowerOf2(dram.rowBytes),
                 "DRAM row size must be a power of two");
        fatal_if(dram.rowBytes < scc.lineBytes,
                 "DRAM rows must cover at least one cache line");
    }
}

Machine::Machine(const MachineConfig &config)
    : _config(config), _root("system")
{
    _config.check();
    // The fabric needs the cache count up front (the tree lays out
    // its cache→segment map before the SCCs attach).
    _bus = makeInterconnect(&_root, _config.bus, _config.net,
                            _config.dram, _config.cacheCount());

    if (_config.organization == ClusterOrganization::SharedCache) {
        for (int c = 0; c < _config.numClusters; ++c) {
            auto group = std::make_unique<stats::Group>(
                &_root, "cluster" + std::to_string(c));
            _sccs.push_back(std::make_unique<SharedClusterCache>(
                group.get(), c, _config.cpusPerCluster,
                _config.scc, _bus.get()));
            _bus->attach(_sccs.back().get());

            for (int p = 0; p < _config.cpusPerCluster; ++p) {
                _icaches.push_back(std::make_unique<ICache>(
                    group.get(), "icache" + std::to_string(p), c,
                    _config.icache, _bus.get()));
            }
            _clusterGroups.push_back(std::move(group));
        }
    } else {
        // Conventional organization: one private cache per
        // processor, every cache snooping the bus directly.
        SccParams params = _config.scc;
        if (_config.privateCacheBytes)
            params.sizeBytes = _config.privateCacheBytes;
        for (CpuId cpu = 0; cpu < _config.totalCpus(); ++cpu) {
            auto group = std::make_unique<stats::Group>(
                &_root, "cpu" + std::to_string(cpu));
            _sccs.push_back(std::make_unique<SharedClusterCache>(
                group.get(), cpu, 1, params, _bus.get()));
            _bus->attach(_sccs.back().get());
            _icaches.push_back(std::make_unique<ICache>(
                group.get(), "icache", cpu, _config.icache,
                _bus.get()));
            _clusterGroups.push_back(std::move(group));
        }
    }

    // Freeze the per-processor routing once; Machine::access then
    // indexes these tables instead of re-deriving cluster and local
    // port from divisions on every reference.
    _ifetch = _config.icache.enabled;
    for (CpuId cpu = 0; cpu < _config.totalCpus(); ++cpu) {
        int cacheIdx = cacheIndexOf(cpu);
        _cacheByCpu.push_back(_sccs[(std::size_t)cacheIdx].get());
        _cacheIndexByCpu.push_back(cacheIdx);
        _localIndexByCpu.push_back(
            _config.organization ==
                    ClusterOrganization::PrivateCaches
                ? 0
                : localIndexOf(cpu));
        _icacheByCpu.push_back(_icaches[(std::size_t)cpu].get());
    }

    // Weak ordering: one bounded FIFO store buffer per processor,
    // draining through the owner's own SCC port. Never built under
    // sequential consistency — the default machine is bit-identical
    // to one predating the consistency axis.
    _weak = _config.consistency.model == ConsistencyModel::Weak;
    if (_weak) {
        _sbStats = std::make_unique<StoreBufferStats>(&_root);
        for (CpuId cpu = 0; cpu < _config.totalCpus(); ++cpu) {
            _storeBuffers.push_back(std::make_unique<StoreBuffer>(
                _cacheByCpu[(std::size_t)cpu],
                _localIndexByCpu[(std::size_t)cpu],
                _cacheIndexByCpu[(std::size_t)cpu], cpu,
                _config.consistency.storeBufferEntries,
                _sbStats.get()));
        }
    }

    // Transactional memory: one manager over the per-CPU routing
    // tables. Never built under --tm=off — the default machine is
    // bit-identical to one predating the axis.
    if (_config.tm.mode != TmMode::Off) {
        _tmStats = std::make_unique<TmStats>(&_root);
        _tm = makeTmManager(_config.tm, _cacheByCpu,
                            _localIndexByCpu, _cacheIndexByCpu,
                            (int)_config.scc.lineBytes,
                            _tmStats.get());
    }

    if (_config.checkCoherence || check::envCheckRequested())
        enableChecker();

    obs::applyEnv(_config.obs);
    if (_config.obs.enabled)
        enableObs();
}

Machine::~Machine()
{
    // One last exhaustive sweep so a run that ends between periodic
    // walks still has its final state validated.
    if (_checker)
        _checker->fullWalk();
    // A run that never called finishObs() still gets its outputs,
    // closed at the last dispatch time the recorder saw.
    if (_recorder)
        _recorder->finish(_recorder->lastTick());
}

void
Machine::enableObs()
{
    if (_recorder)
        return;
    _recorder = std::make_unique<obs::Recorder>(_config.obs);
    obs::Recorder *r = _recorder.get();

    // Interval-metric / phase-attribution columns. All cumulative
    // counters here are exact integers (stats:: scalars), so the
    // series' final row always equals the whole-run aggregates.
    auto sumScc = [this](auto member) {
        return [this, member]() -> std::uint64_t {
            double total = 0;
            for (const auto &scc : _sccs)
                total += (scc.get()->*member).value();
            return (std::uint64_t)total;
        };
    };
    r->addCounter("busTransactions", [this] {
        return (std::uint64_t)_bus->transactions.value();
    });
    r->addCounter("busWaitCycles", [this] {
        return (std::uint64_t)_bus->waitCycles.value();
    });
    r->addCounter("invalidations", [this] {
        return _bus->invalidationsPerformed();
    });
    // Per-channel fabric occupancy: "bus" for the atomic bus,
    // req/resp phases for the split bus, root plus every leaf
    // segment for the tree. Cumulative busy cycles, so the series'
    // final row integrates back to the whole-run utilization.
    for (int ch = 0; ch < _bus->numChannels(); ++ch) {
        r->addCounter(
            std::string(_bus->channelName(ch)) + "BusyCycles",
            [this, ch] {
                return (std::uint64_t)_bus->channelBusyCycles(ch);
            });
    }
    // Memory-backend series: fills, row-buffer hits, and per-channel
    // occupancy per backend. The flat backend exposes no channels
    // and counts nothing, so default machines gain no columns here.
    for (int m = 0; m < _bus->numMemories(); ++m) {
        const MemoryBackend &mem = _bus->memory(m);
        if (mem.numChannels() == 0)
            continue;
        std::string prefix =
            _bus->numMemories() > 1 ? "mem" + std::to_string(m)
                                    : "mem";
        r->addCounter(prefix + "Fills", [this, m] {
            return _bus->memory(m).fills();
        });
        r->addCounter(prefix + "RowHits", [this, m] {
            return _bus->memory(m).rowHits();
        });
        for (int ch = 0; ch < mem.numChannels(); ++ch) {
            r->addCounter(
                prefix + "Ch" + std::to_string(ch) + "BusyCycles",
                [this, m, ch] {
                    return (std::uint64_t)_bus->memory(m)
                        .channelBusyCycles(ch);
                });
        }
    }
    // Store-buffer series, only under weak ordering: the default
    // sequentially consistent machine has no buffers and gains no
    // columns here (same discipline as the flat memory backend).
    if (_weak) {
        r->addCounter("sbStores", [this] {
            return (std::uint64_t)_sbStats->storesBuffered.value();
        });
        r->addCounter("sbDrains", [this] {
            return (std::uint64_t)_sbStats->storesDrained.value();
        });
        r->addCounter("sbForwards", [this] {
            return (std::uint64_t)_sbStats->loadsForwarded.value();
        });
        r->addCounter("sbDrainStallCycles", [this] {
            return (std::uint64_t)_sbStats->drainStallCycles.value();
        });
        r->addCounter("sbFenceWaitCycles", [this] {
            return (std::uint64_t)_sbStats->fenceWaitCycles.value();
        });
        r->addGauge("sbOccupancy", [this] {
            std::uint64_t total = 0;
            for (const auto &sb : _storeBuffers)
                total += (std::uint64_t)sb->occupancy();
            return total;
        });
    }
    // Transactional-memory series, only under --tm={eager,lazy}:
    // default machines gain no columns (same discipline as above).
    if (_tm) {
        r->addCounter("tmCommits", [this] {
            return (std::uint64_t)_tmStats->commits.value();
        });
        r->addCounter("tmAborts", [this] {
            return (std::uint64_t)_tmStats->aborts.value();
        });
        r->addCounter("tmFallbacks", [this] {
            return (std::uint64_t)_tmStats->fallbacks.value();
        });
        r->addCounter("tmSpeculativeStores", [this] {
            return (std::uint64_t)
                _tmStats->speculativeStores.value();
        });
    }
    // Per-set occupancy series for the side-channel study
    // (--obs-sec-sets): one gauge per watched set of cluster 0's
    // SCC — the occupancy interval series sec::LeakageAnalyzer
    // scores. Off by default, so ordinary machines gain no columns.
    if (_config.obs.secSets > 0 && !_sccs.empty()) {
        const TagArray &tags = _sccs.front()->tags();
        std::uint64_t watch = (std::uint64_t)_config.obs.secSets;
        if (watch > tags.numSets())
            watch = tags.numSets();
        for (std::uint64_t s = 0; s < watch; ++s) {
            r->addGauge("set" + std::to_string(s) + "Occ",
                        [&tags, s] {
                            return tags.setOccupancy(s);
                        });
        }
    }
    r->addCounter("readHits", sumScc(&SharedClusterCache::readHits));
    r->addCounter("readMisses",
                  sumScc(&SharedClusterCache::readMisses));
    r->addCounter("writeHits",
                  sumScc(&SharedClusterCache::writeHits));
    r->addCounter("writeMisses",
                  sumScc(&SharedClusterCache::writeMisses));
    r->addCounter("mergedMisses",
                  sumScc(&SharedClusterCache::mergedMisses));
    r->addCounter("bankConflictCycles",
                  sumScc(&SharedClusterCache::bankConflictCycles));
    r->addCounter("missStallCycles",
                  sumScc(&SharedClusterCache::missStallCycles));
    // Recorder-internal gauges/counters: these stay out of the
    // stats:: tree on purpose so attaching observability can never
    // change a stats dump.
    r->addGauge("mshrLive", [r] { return r->mshrLive(); });
    r->seal();

    _bus->setRecorder(r);
    for (auto &scc : _sccs)
        scc->setRecorder(r);
    inform("observability recorder attached",
           _config.obs.tracePath.empty()
               ? ""
               : " (trace " + _config.obs.tracePath + ")");
}

void
Machine::finishObs(Cycle end)
{
    if (_recorder)
        _recorder->finish(end);
}

void
Machine::enableChecker()
{
    if (_checker)
        return;
    std::vector<const SharedClusterCache *> caches;
    caches.reserve(_sccs.size());
    for (const auto &scc : _sccs)
        caches.push_back(scc.get());
    check::CheckerOptions options;
    options.walkInterval =
        check::envWalkInterval(_config.checkWalkInterval);
    _checker = std::make_unique<check::CoherenceChecker>(
        &_root, std::move(caches), _config.scc.protocol,
        _config.scc.lineBytes, options);
    _bus->setObserver(_checker.get());
    for (auto &scc : _sccs)
        scc->setObserver(_checker.get());
    for (auto &sb : _storeBuffers)
        sb->setObserver(_checker.get());
    if (_tm)
        _tm->setObserver(_checker.get());
    inform("coherence checker attached (walk interval ",
           options.walkInterval, ")");
}

ClusterId
Machine::clusterOf(CpuId cpu) const
{
    panic_if(cpu < 0 || cpu >= _config.totalCpus(),
             "bad cpu id ", cpu);
    return cpu / _config.cpusPerCluster;
}

int
Machine::localIndexOf(CpuId cpu) const
{
    return cpu % _config.cpusPerCluster;
}

SharedClusterCache &
Machine::scc(ClusterId cluster)
{
    panic_if(cluster < 0 || cluster >= (ClusterId)_sccs.size(),
             "bad cluster id ", cluster);
    return *_sccs[(std::size_t)cluster];
}

const SharedClusterCache &
Machine::scc(ClusterId cluster) const
{
    panic_if(cluster < 0 || cluster >= (ClusterId)_sccs.size(),
             "bad cluster id ", cluster);
    return *_sccs[(std::size_t)cluster];
}

ICache &
Machine::icache(CpuId cpu)
{
    panic_if(cpu < 0 || cpu >= (CpuId)_icaches.size(),
             "bad cpu id ", cpu);
    return *_icaches[(std::size_t)cpu];
}

void
Machine::setIStream(CpuId cpu, Addr codeBase, std::uint64_t bytes)
{
    icache(cpu).setStream(codeBase, bytes);
}

int
Machine::cacheIndexOf(CpuId cpu) const
{
    if (_config.organization == ClusterOrganization::PrivateCaches)
        return cpu;
    return clusterOf(cpu);
}

SharedClusterCache &
Machine::cacheOf(CpuId cpu)
{
    return *_sccs[(std::size_t)cacheIndexOf(cpu)];
}

const SharedClusterCache &
Machine::cacheOf(CpuId cpu) const
{
    return *_sccs[(std::size_t)cacheIndexOf(cpu)];
}

Cycle
Machine::access(CpuId cpu, RefType type, Addr addr, Cycle now,
                std::uint32_t instrGap)
{
    panic_if((std::size_t)cpu >= _cacheByCpu.size(),
             "bad cpu id ", cpu);

    // Reference-stream tap (reuse-distance profiling): sees the
    // raw stream before any timing, cannot perturb it.
    if (_config.refTap)
        _config.refTap->onRef(cpu, type, addr);

    // Instruction fetch stalls delay the data access. With ifetch
    // modelling off (the paper's data-reference studies) the fetch
    // call is a guaranteed no-op, so skip it outright.
    Cycle start =
        _ifetch ? now + _icacheByCpu[(std::size_t)cpu]->fetch(
                            instrGap, now)
                : now;
    int local = _localIndexByCpu[(std::size_t)cpu];

    // Transactional memory: a processor with an open transaction
    // routes every data reference to the manager (speculative
    // sets, conflict probes, and the manager's own checker
    // brackets); a non-transactional write probes the live sets
    // first so any conflicting speculation is doomed before the
    // committed write performs. Null under --tm=off — the default
    // machine never takes this branch.
    if (_tm) {
        if (_tm->active(cpu))
            return _tm->access(cpu, type, addr, start);
        if (type == RefType::Write)
            _tm->nonTxWrite(cpu, addr);
    }

    // Weak ordering: stores retire into the processor's buffer and
    // drain lazily; loads try read bypass before touching the
    // cache. Due drains are let go only *after* the load completes:
    // the load has priority for the cache port (a drain issued
    // first would make the processor queue behind its own buffered
    // stores), and a store still in the buffer at load time can
    // forward. Sequential consistency (_weak false) never takes
    // this branch and is bit-identical to the pre-buffer machine.
    StoreBuffer *sb =
        _weak ? _storeBuffers[(std::size_t)cpu].get() : nullptr;
    if (sb) {
        if (type == RefType::Write)
            return sb->store(addr, start);
        if (sb->forward(addr, start)) {
            sb->drainDue(start);
            return start;
        }
    }

    Cycle done;
    if (!_checker) {
        done = _cacheByCpu[(std::size_t)cpu]->access(local, type,
                                                     addr, start);
    } else {
        // Checked mode brackets the reference so the oracle knows
        // which processor/cache the protocol events in between
        // belong to.
        int cacheIdx = _cacheIndexByCpu[(std::size_t)cpu];
        _checker->onCpuAccessStart(cpu, cacheIdx, type, addr);
        done = _cacheByCpu[(std::size_t)cpu]->access(local, type,
                                                     addr, start);
        _checker->onCpuAccessEnd(cpu, cacheIdx, type, addr);
    }
    if (sb)
        sb->drainDue(done);
    return done;
}

Cycle
Machine::fence(CpuId cpu, Cycle now)
{
    if (!_weak)
        return now;
    panic_if((std::size_t)cpu >= _storeBuffers.size(),
             "bad cpu id ", cpu);
    return _storeBuffers[(std::size_t)cpu]->fence(now);
}

TmPolicy
Machine::tmPolicy() const
{
    if (!_tm)
        return {};
    TmPolicy policy;
    policy.enabled = true;
    policy.maxAborts = _config.tm.maxAborts;
    policy.backoffBase = _config.tm.backoffBase;
    return policy;
}

Cycle
Machine::tmBegin(CpuId cpu, Cycle now)
{
    panic_if(!_tm, "tmBegin without --tm");
    return _tm->begin(cpu, now);
}

bool
Machine::tmPoll(CpuId cpu) const
{
    return _tm && _tm->doomed(cpu);
}

Cycle
Machine::tmCommit(CpuId cpu, Cycle now, bool *committed)
{
    panic_if(!_tm, "tmCommit without --tm");
    return _tm->commit(cpu, now, committed);
}

Cycle
Machine::tmAbort(CpuId cpu, Cycle now)
{
    panic_if(!_tm, "tmAbort without --tm");
    return _tm->abort(cpu, now);
}

void
Machine::tmFallback(CpuId cpu)
{
    if (_tm)
        _tm->fallbackTaken(cpu);
}

StoreBuffer *
Machine::storeBuffer(CpuId cpu)
{
    if (!_weak)
        return nullptr;
    panic_if((std::size_t)cpu >= _storeBuffers.size(),
             "bad cpu id ", cpu);
    return _storeBuffers[(std::size_t)cpu].get();
}

double
Machine::readMissRate() const
{
    double hits = 0;
    double misses = 0;
    for (const auto &scc : _sccs) {
        hits += scc->readHits.value();
        misses += scc->readMisses.value();
    }
    double total = hits + misses;
    return total > 0 ? misses / total : 0.0;
}

double
Machine::missRate() const
{
    double hits = 0;
    double misses = 0;
    for (const auto &scc : _sccs) {
        hits += scc->readHits.value() + scc->writeHits.value();
        misses += scc->readMisses.value() + scc->writeMisses.value();
    }
    double total = hits + misses;
    return total > 0 ? misses / total : 0.0;
}

std::uint64_t
Machine::invalidations() const
{
    return _bus->invalidationsPerformed();
}

std::uint64_t
Machine::dataAccesses() const
{
    double total = 0;
    for (const auto &scc : _sccs) {
        total += scc->readHits.value() + scc->readMisses.value() +
                 scc->writeHits.value() + scc->writeMisses.value();
    }
    return (std::uint64_t)total;
}

} // namespace scmp
