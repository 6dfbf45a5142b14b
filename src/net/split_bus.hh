/**
 * @file
 * Split-transaction snoopy bus: request and response decoupled.
 *
 * The atomic bus holds its single channel for the whole occupancy
 * of a transaction, so a line fetch and the snoops it triggers
 * serialize every other requester. A split-transaction bus issues
 * the address (request) phase, releases the bus during the
 * memoryLatency fetch, and re-arbitrates for a separate data
 * (response) channel when the line arrives — the service
 * discipline Nikolov & Lerato show changes the performance
 * ranking of shared-bus multiprocessors. Snoops still happen at
 * the request grant, so coherence ordering is identical to the
 * atomic bus; only occupancy queuing differs.
 */

#ifndef SCMP_NET_SPLIT_BUS_HH
#define SCMP_NET_SPLIT_BUS_HH

#include "net/interconnect.hh"

namespace scmp
{

/** Split-transaction bus with request and response channels. */
class SplitBus : public Interconnect
{
  public:
    SplitBus(stats::Group *parent, const BusParams &params,
             const NetParams &net,
             const DramParams &dram = DramParams{});

    Cycle transaction(ClusterId source, BusOp op, Addr lineAddr,
                      Cycle now, bool *remoteCopyOut = nullptr)
        override;

    const char *topologyName() const override { return "split"; }

    int numChannels() const override { return 2; }
    const char *channelName(int channel) const override
    {
        return channel == 0 ? "req" : "resp";
    }
    Cycle channelBusyCycles(int channel) const override
    {
        return channel == 0 ? _reqBusy : _respBusy;
    }

    /// @name Split-bus statistics (absent on atomic configs, so
    /// default stats dumps are untouched).
    /// @{
    stats::Scalar reqWaitCycles;
    stats::Scalar respWaitCycles;
    stats::Scalar arbConflicts;  //!< grants that lost arbitration
    /// @}

  private:
    /** Win the request (address) channel; charges arbitration. */
    Cycle arbitrateRequest(ClusterId source, Cycle now);

    NetParams _net;
    MemoryBackend *_memory;
    Cycle _reqFree = 0;
    Cycle _respFree = 0;
    Cycle _reqBusy = 0;
    Cycle _respBusy = 0;
};

} // namespace scmp

#endif // SCMP_NET_SPLIT_BUS_HH
