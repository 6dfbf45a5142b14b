/**
 * @file
 * Compute-server scenario: an open-loop request stream served by
 * the whole machine.
 *
 * Where the SPLASH codes measure one parallel program and the
 * multiprogramming study measures batch throughput, this workload
 * measures the machine as a SERVER: requests arrive as a Poisson
 * process (open loop — arrivals do not wait for completions, so
 * queueing delay is part of the measured latency), each request
 * executes one of several SPEC-kernel-flavoured service routines
 * over its processor's data shard, and the figure of merit is the
 * request latency distribution (p50/p95/p99) and sustained
 * throughput at a given offered load.
 *
 * Request i is statically assigned to processor i mod P, each
 * processor owns a page-aligned shard of every service class's
 * data, and all processors bump a small globally shared statistics
 * board (unlocked, like MP3D's cell counters) — so the scenario
 * exercises both per-shard locality that scales with SCC size and
 * a true-sharing hotspot that scales with processor count.
 *
 * Latency percentiles are attached to the RunResult through
 * ParallelWorkload::annotate, flow into the sweep ResultStore, and
 * are plotted by scripts/sweep_plot.py --latency.
 */

#ifndef SCMP_SERVER_SERVER_HH
#define SCMP_SERVER_SERVER_HH

#include <cstdint>
#include <vector>

#include "core/workload.hh"
#include "sim/names.hh"

namespace scmp
{
class Rng;
}

namespace scmp::server
{

/** One request's service class (SPEC-kernel flavours). */
enum class RequestClass
{
    Lookup,    //!< eqntott-ish: binary search over a sorted table
    Compress,  //!< compress-ish: hash-chain dictionary inserts
    Logic,     //!< espresso-ish: bitwise cover sweep
    Gc,        //!< xlisp-ish: pointer chase + mark
    NumClasses,
};

/**
 * How the request stream is generated.
 *
 * Open loop: arrivals are a Poisson process independent of
 * completions, so queueing delay is measured and overload shows up
 * as unbounded latency growth. Closed loop: a fixed client
 * population of one per processor, each submitting its next
 * request a think time after the previous one COMPLETES — latency
 * self-limits (the classic interactive-user model), and throughput
 * saturates instead of the queue.
 */
enum class ArrivalMode
{
    Open,
    Closed,
};

inline std::span<const NameRow<ArrivalMode>>
nameTable(ArrivalMode)
{
    static constexpr NameRow<ArrivalMode> names[] = {
        {"open", ArrivalMode::Open},
        {"closed", ArrivalMode::Closed},
    };
    return names;
}

/** The scenario's knobs. */
struct ServerParams
{
    /** Total requests, sharded request i -> processor i mod P. */
    std::uint64_t requests = 100'000;

    /**
     * Offered load as a fraction of nominal per-processor service
     * capacity: the Poisson arrival rate per processor is
     * offeredLoad / nominalService requests per cycle.
     */
    double offeredLoad = 0.70;

    /**
     * Nominal mean service time in cycles — the calibration
     * constant that turns offeredLoad into an arrival rate. The
     * real service time depends on the design point (that is the
     * experiment); this constant only fixes what "load 1.0" means
     * so curves are comparable across points.
     */
    Cycle nominalService = 300;

    /**
     * Arrival generation. Open is the default and keeps every
     * pre-existing run byte-identical; the think-time draws exist
     * only on the closed path.
     */
    ArrivalMode arrival = ArrivalMode::Open;

    /**
     * Closed loop only: mean think time in cycles between a
     * request's completion and the same client's next submission
     * (exponentially distributed). Ignored when open.
     */
    Cycle thinkTime = 400;

    std::uint64_t seed = 0xd1e5e15e11ull;
};

/** The open-loop server workload. */
class ServerWorkload : public ParallelWorkload
{
  public:
    explicit ServerWorkload(ServerParams params = {});

    std::string name() const override;
    void setup(Arena &arena, const Topology &topo) override;
    void threadMain(ThreadCtx &ctx, int tid,
                    const Topology &topo) override;
    bool verify() override;
    void annotate(RunResult &result) const override;

    /** Completed requests (host view, tests). */
    std::uint64_t completed() const;

  private:
    /** Sizes of one processor's shard (all powers of two). */
    static constexpr int tableSize = 2048;
    static constexpr int hashSize = 1024;
    static constexpr int windowSize = 1024;
    static constexpr int coverWords = 512;
    static constexpr int heapNodes = 1024;

    /** One processor's service data. */
    struct Shard
    {
        Shared<std::uint32_t> *table = nullptr;  //!< sorted keys
        Shared<std::int32_t> *hashHead = nullptr;
        Shared<std::int32_t> *hashNext = nullptr;
        Shared<std::uint32_t> *cover = nullptr;
        Shared<std::int32_t> *heap = nullptr;    //!< next-node links
        std::uint32_t cursor = 0;  //!< dictionary window position
    };

    void serve(ThreadCtx &ctx, Shard &shard, RequestClass cls,
               Rng &rng);

    ServerParams _params;
    std::vector<Shard> _shards;
    /** Globally shared per-class request counters (the hotspot). */
    Shared<std::uint32_t> *_board = nullptr;
    std::vector<std::vector<Cycle>> _latencies;  //!< per thread
};

} // namespace scmp::server

#endif // SCMP_SERVER_SERVER_HH
