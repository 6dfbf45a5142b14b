#include "analytic.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace scmp::model
{

namespace
{

/** Expected misses of one histogram in a sets x assoc cache. */
double
missesIn(const ReuseHistogram &hist, std::uint64_t sets,
         std::uint32_t assoc)
{
    if (hist.samples == 0)
        return 0;
    double hits = hist.expectedHits(sets, assoc);
    return std::max(0.0, (double)hist.samples - hits);
}

} // namespace

AnalyticEvaluator::AnalyticEvaluator(const ReuseProfile &profile)
    : _profile(profile)
{
    panic_if(_profile.lines.empty(),
             "cannot evaluate from an empty reuse profile");
}

RunResult
AnalyticEvaluator::evaluate(const MachineConfig &config) const
{
    const LineProfile *line =
        _profile.lineFor(config.scc.lineBytes);
    fatal_if(!line,
             "reuse profile does not cover line size ",
             config.scc.lineBytes,
             " B — add it to the profiling pass's lineSizes");

    const int clusters = config.numClusters;
    const int cpus = config.totalCpus();
    const bool privateOrg = config.organization ==
                            ClusterOrganization::PrivateCaches;

    // Pick (or synthesize) the reuse histograms of the streams the
    // caches on the bus will each see.
    std::uint64_t capacity = config.scc.sizeBytes;
    std::vector<ScopeProfile> merged;
    const std::vector<ScopeProfile> *scopes = nullptr;
    if (privateOrg) {
        if (config.privateCacheBytes)
            capacity = config.privateCacheBytes;
        if (cpus == _profile.totalCpus()) {
            scopes = &line->cpus;
        } else {
            merged = mergeCpuScopes(line->cpus, cpus);
            scopes = &merged;
        }
    } else if (clusters == 1) {
        merged.assign(1, line->machine);
        scopes = &merged;
    } else if (clusters == _profile.numClusters) {
        scopes = &line->clusters;
    } else {
        merged = mergeCpuScopes(line->cpus, clusters);
        scopes = &merged;
    }

    std::uint64_t lineBytes = config.scc.lineBytes;
    std::uint32_t assoc = config.scc.assoc;
    std::uint64_t sets =
        std::max<std::uint64_t>(1,
                                capacity / (lineBytes * assoc));

    // Miss RATES from the (possibly sampled) histogram counts,
    // applied to the exact reference totals.
    double sampleReads = 0, sampleWrites = 0;
    double missReads = 0, missWrites = 0;
    double coherent = 0;
    for (const ScopeProfile &scope : *scopes) {
        sampleReads += (double)scope.reads.samples;
        sampleWrites += (double)scope.writes.samples;
        missReads += missesIn(scope.reads, sets, assoc);
        missWrites += missesIn(scope.writes, sets, assoc);
        coherent += (double)(scope.reads.coherence +
                             scope.writes.coherence);
    }
    double readMissRate =
        sampleReads > 0 ? missReads / sampleReads : 0;
    double writeMissRate =
        sampleWrites > 0 ? missWrites / sampleWrites : 0;
    double reads = (double)_profile.reads;
    double writes = (double)_profile.writes;
    double refs = (double)_profile.references;
    double misses = readMissRate * reads + writeMissRate * writes;
    double missRate = refs > 0 ? misses / refs : 0;

    // Bus traffic: a line fetch per miss, a writeback for the
    // dirty fraction, and an invalidation broadcast behind every
    // coherence miss the profile saw (scaled from the sampled
    // stream to the exact totals).
    double sampleTotal = sampleReads + sampleWrites;
    double invalidations =
        sampleTotal > 0 ? coherent / sampleTotal * refs : 0;
    double dirtyFraction = refs > 0 ? writes / refs : 0;
    double busTransactions =
        misses * (1.0 + dirtyFraction) + invalidations;
    double busOccupancyPer = (double)(config.bus.addressOccupancy +
                                      config.bus.transferOccupancy);
    double busBusy = busTransactions * busOccupancyPer;

    // Cycle model. The engine charges one cycle per instruction
    // (references included); a hit adds the bank occupancy, a miss
    // the fixed fetch latency plus queueing on the shared bus.
    double instrs = _profile.instructions > 0
                        ? (double)_profile.instructions
                        : 2.0 * refs;
    double perCpuInstrs = instrs / (double)cpus;
    double perCpuRefs = refs / (double)cpus;
    double perCpuMisses = misses / (double)cpus;
    double hitCost = (double)config.scc.bankOccupancy;
    double missCost = (double)config.bus.memoryLatency;

    // Load imbalance: the run finishes with its busiest processor.
    double imbalance = 1.0;
    if (cpus == _profile.totalCpus() && !line->cpus.empty()) {
        double peakSamples = 0, sumSamples = 0;
        for (const ScopeProfile &cpu : line->cpus) {
            double s = (double)cpu.combined().samples;
            peakSamples = std::max(peakSamples, s);
            sumSamples += s;
        }
        if (sumSamples > 0)
            imbalance = peakSamples /
                        (sumSamples / (double)line->cpus.size());
        imbalance = std::clamp(imbalance, 1.0, 4.0);
    }

    // Bus contention fixed point: waiting time grows with
    // utilization (M/D/1 flavour), utilization depends on the
    // cycle count the waiting time produces.
    double cycles = perCpuInstrs + perCpuRefs * hitCost +
                    perCpuMisses * missCost;
    double utilization = 0;
    for (int iter = 0; iter < 4; ++iter) {
        double total = std::max(cycles * imbalance, 1.0);
        utilization = std::min(busBusy / total, 0.95);
        double wait =
            utilization / (1.0 - utilization) * busOccupancyPer * 0.5;
        cycles = perCpuInstrs + perCpuRefs * hitCost +
                 perCpuMisses * (missCost + wait);
    }
    cycles *= imbalance;

    RunResult result;
    result.cycles = (Cycle)std::llround(cycles);
    result.instructions = _profile.instructions
                              ? _profile.instructions
                              : (std::uint64_t)instrs;
    result.references = _profile.references;
    result.readMissRate = readMissRate;
    result.missRate = missRate;
    result.invalidations =
        (std::uint64_t)std::llround(invalidations);
    result.busTransactions =
        (std::uint64_t)std::llround(busTransactions);
    result.busUtilization =
        cycles > 0 ? busBusy / cycles : 0;
    result.verified = true;
    return result;
}

} // namespace scmp::model
