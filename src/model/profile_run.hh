/**
 * @file
 * The profiling pass: one cheap functional execution of a
 * workload that produces its reuse-distance profile.
 *
 * The pass drives the workload through the ordinary
 * direct-execution engine, but against a functional memory system:
 * every reference completes instantly after being fed to the
 * ReuseProfiler, so no cache, bus or DRAM state is simulated and
 * the pass costs a fraction of a cycle-accurate point. The engine
 * still interleaves threads by their local clocks (instructions
 * are charged normally) with a zero slack window, so the profiled
 * stream interleaving stays faithful to what the cycle-accurate
 * machine would see.
 */

#ifndef SCMP_MODEL_PROFILE_RUN_HH
#define SCMP_MODEL_PROFILE_RUN_HH

#include "core/machine.hh"
#include "core/workload.hh"
#include "model/reuse_profile.hh"

namespace scmp::model
{

/** Knobs of one profiling pass. */
struct ProfileRunOptions
{
    /** SHARDS sampling shift (rate 1/2^shift; 0 = exact). */
    std::uint32_t sampleShift = 0;

    /**
     * Line sizes to profile; empty profiles exactly the
     * configuration's scc.lineBytes.
     */
    std::vector<std::uint32_t> lineSizes;
};

/**
 * Execute @p workload functionally under @p config's topology and
 * return its reuse profile. The workload must already be
 * reseeded/fresh exactly as for a real run.
 */
ReuseProfile profileWorkload(const MachineConfig &config,
                             ParallelWorkload &workload,
                             const ProfileRunOptions &options = {});

} // namespace scmp::model

#endif // SCMP_MODEL_PROFILE_RUN_HH
