/**
 * @file
 * The observability recorder: one object behind every hook.
 *
 * A Recorder bundles the three observability layers —
 *
 *   1. event timeline  (per-source EventRings → Chrome trace JSON),
 *   2. interval metrics (IntervalSampler → CSV / columnar JSON),
 *   3. phase profiling  (PhaseProfiler keyed on barrier releases),
 *
 * — behind a handful of hook methods the engine, bus, SCC, MSHR
 * file, and multiprog scheduler call when (and only when) a recorder
 * is attached. The off-switch contract: every instrumented component
 * holds a raw `Recorder *` that is null by default, and each hook
 * site is guarded by one branch on that pointer. No recorder, no
 * work — timing, golden fixtures, and the perf floor are untouched.
 *
 * Observation is strictly read-only with respect to simulated state:
 * hooks receive already-computed cycle values and never feed
 * anything back, so an instrumented run is bit-identical to an
 * uninstrumented one by construction.
 */

#ifndef SCMP_OBS_RECORDER_HH
#define SCMP_OBS_RECORDER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/event.hh"
#include "obs/phase.hh"
#include "obs/sampler.hh"
#include "sim/types.hh"

namespace scmp
{
class Config;
}

namespace scmp::obs
{

/** Default sampling interval when one is needed but unset. */
inline constexpr Cycle defaultObsInterval = 100000;

/** Everything configurable about a Recorder. */
struct RecorderConfig
{
    /** Master switch; false means no recorder is built at all. */
    bool enabled = false;

    /** Chrome trace_event JSON output path ("" = no trace file). */
    std::string tracePath;

    /** Interval-metrics CSV output path ("" = no series file). */
    std::string seriesPath;

    /** Cycles between interval samples (0 = no sampling). */
    Cycle intervalCycles = 0;

    /** Per-source event-ring capacity (drops counted beyond it). */
    std::size_t eventCap = 1u << 18;

    /** Interval-series row cap (drops counted beyond it). */
    std::size_t seriesRowCap = 1u << 16;

    /**
     * Keep the series as columnar JSON on the recorder after
     * finish() so callers (sweep's ResultStore) can persist it per
     * design point even without a seriesPath.
     */
    bool captureSeries = false;

    /** Print the per-phase breakdown table at finish(). */
    bool printPhases = false;

    /**
     * Per-set occupancy gauges for the first N sets of cluster 0's
     * SCC (the side-channel study's observable; src/sec scores the
     * interval series). 0 — the default — registers no columns, so
     * ordinary machines' series are untouched.
     */
    int secSets = 0;
};

/** The attached observability recorder. */
class Recorder
{
  public:
    explicit Recorder(const RecorderConfig &config);

    const RecorderConfig &config() const { return _config; }

    /// @name Column registration (Machine, before the run).
    /// @{
    /**
     * Register a cumulative counter: sampled every interval and
     * delta-attributed to workload phases.
     */
    void addCounter(const std::string &name,
                    std::function<std::uint64_t()> read);

    /** Register an instantaneous gauge: sampled, never deltaed. */
    void addGauge(const std::string &name,
                  std::function<std::uint64_t()> read);

    /** Freeze the column set and take the cycle-0 phase snapshot. */
    void seal();
    /// @}

    /// @name Engine hooks.
    /// @{
    /** One fiber dispatch → yield slice on @p tid. */
    void threadSlice(ThreadId tid, Cycle start, Cycle end);

    /** @p tid waited at a barrier from arrival to release. */
    void barrierWait(ThreadId tid, Cycle arrive, Cycle release);

    /**
     * A barrier released all @p waiters at @p when — a workload
     * phase boundary (snapshots the phase profiler).
     */
    void barrierRelease(Cycle when, int waiters);

    /** Advance the sampler to the engine's dispatch time. */
    void
    tick(Cycle now)
    {
        if (now > _lastTick)
            _lastTick = now;
        _sampler.tick(now);
    }

    /** Largest dispatch time seen (finish() fallback). */
    Cycle lastTick() const { return _lastTick; }
    /// @}

    /// @name Bus hooks.
    /// @{
    /**
     * One bus transaction, reported after arbitration.
     *
     * @param cacheIndex   Requesting cache's bus index.
     * @param opName       Static bus-op name (busOpName()).
     * @param lineAddr     Line-aligned address.
     * @param request      Cycle the requester asked for the bus.
     * @param grant        Cycle the bus was granted.
     * @param occupancy    Cycles the transaction holds the bus.
     * @param snooped      Remote caches probed.
     * @param dirtySupplied A remote cache supplied dirty data.
     */
    void busTransaction(int cacheIndex, const char *opName,
                        Addr lineAddr, Cycle request, Cycle grant,
                        Cycle occupancy, int snooped,
                        bool dirtySupplied);
    /// @}

    /// @name SCC / MSHR hooks.
    /// @{
    /**
     * One reference through an SCC port.
     *
     * @param cluster  Cluster (cache) the port belongs to.
     * @param port     Port index within the cluster.
     * @param typeName Static reference-type name (refTypeName()).
     * @param addr     Referenced address.
     * @param request  Issue cycle.
     * @param done     Cycle the port's bank went free again.
     */
    void sccPortRef(int cluster, int port, const char *typeName,
                    Addr addr, Cycle request, Cycle done);

    /** An MSHR was allocated for a miss on @p lineAddr. */
    void mshrAlloc(int cluster, Addr lineAddr, Cycle start,
                   Cycle ready);

    /** A later miss merged into an in-flight MSHR. */
    void mshrMerge(int cluster, Addr lineAddr, Cycle when);

    /** An MSHR entry left the table (fill done or invalidated). */
    void mshrRetire(int cluster, Addr lineAddr, Cycle when);
    /// @}

    /// @name Multiprog scheduler hook.
    /// @{
    /** @p cpu switched from process @p fromTid to @p toTid. */
    void quantumSwitch(int cpu, ThreadId fromTid, ThreadId toTid,
                       Cycle when);
    /// @}

    /**
     * End of run: final sampler row and phase snapshot at @p end,
     * then write the configured output files. Idempotent.
     */
    void finish(Cycle end);

    /// @name Introspection (tests, reports, sweep integration).
    /// @{
    const EventRing &ring(Source source) const;
    std::uint64_t totalRecorded() const;
    const IntervalSampler &sampler() const { return _sampler; }
    const PhaseProfiler &phases() const { return _phases; }
    bool finished() const { return _finished; }
    /** Columnar series JSON (captureSeries) — "" if not captured. */
    const std::string &seriesJson() const { return _seriesJson; }

    /** MSHRs currently live (allocs minus retires). */
    std::uint64_t mshrLive() const { return _mshrLive; }
    /// @}

    /** Serialize the timeline as Chrome trace_event JSON. */
    void writeChromeTrace(std::ostream &os) const;

  private:
    void addColumn(const std::string &name,
                   std::function<std::uint64_t()> read,
                   bool cumulative);

    EventRing &ringOf(Source source);

    RecorderConfig _config;
    std::array<std::unique_ptr<EventRing>, numSources> _rings;
    IntervalSampler _sampler;
    PhaseProfiler _phases;
    bool _sealed = false;
    bool _finished = false;
    Cycle _lastTick = 0;
    std::string _seriesJson;

    /// @name Recorder-internal gauges. These live here rather than
    /// in the stats:: tree so that attaching observability cannot
    /// change a stats dump (test_obs compares dumps byte-for-byte
    /// with the recorder on and off).
    /// @{
    std::uint64_t _mshrLive = 0;
    std::uint64_t _mshrAllocs = 0;
    std::uint64_t _mshrMerges = 0;
    /// @}
};

/// @name Environment attach (mirrors SCMP_CHECK in src/check).
/// @{
/**
 * Overlay SCMP_OBS / SCMP_OBS_INTERVAL / SCMP_OBS_SERIES /
 * SCMP_OBS_CAP onto @p config. SCMP_OBS=1 enables with defaults;
 * any other non-empty value is used as the trace path.
 * SCMP_OBS_SERIES alone enables too. A malformed size is fatal.
 */
void applyEnv(RecorderConfig &config);
/// @}

/**
 * The recorder the --obs flags ask for: --obs[=FILE] a trace (to
 * @p trace when bare), --obs-series=FILE the interval series as CSV,
 * --obs-interval=N its sampling interval. Any of them turns the
 * recorder on, sampling every defaultObsInterval cycles by default.
 */
RecorderConfig fromFlags(const Config &flags, const char *trace);

} // namespace scmp::obs

#endif // SCMP_OBS_RECORDER_HH
