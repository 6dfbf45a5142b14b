/**
 * @file
 * The paper's shared snoopy bus: one atomic arbitration point.
 *
 * A single arbiter serializes transactions; every transaction
 * broadcasts to all other attached snoopers (the SCCs), which
 * invalidate or supply data per the MSI write-invalidate protocol.
 * Line fetches complete a fixed memoryLatency after winning the
 * bus, whether memory or a remote SCC supplies the line — the
 * paper's assumption.
 */

#ifndef SCMP_NET_ATOMIC_BUS_HH
#define SCMP_NET_ATOMIC_BUS_HH

#include "net/interconnect.hh"

namespace scmp
{

/** Single atomic snoopy bus plus main memory timing. */
class AtomicBus : public Interconnect
{
  public:
    AtomicBus(stats::Group *parent, const BusParams &params,
              const DramParams &dram = DramParams{});

    Cycle transaction(ClusterId source, BusOp op, Addr lineAddr,
                      Cycle now, bool *remoteCopyOut = nullptr)
        override;

    const char *topologyName() const override { return "atomic"; }

    Cycle channelBusyCycles(int channel) const override
    {
        (void)channel;
        return _busyCycles;
    }

  private:
    MemoryBackend *_memory;
    Cycle _nextFree = 0;
    Cycle _busyCycles = 0;
};

} // namespace scmp

#endif // SCMP_NET_ATOMIC_BUS_HH
