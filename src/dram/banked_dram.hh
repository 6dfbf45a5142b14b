/**
 * @file
 * Banked DRAM: channels x banks with open-row timing.
 *
 * Address mapping interleaves row-sized blocks across channels,
 * then banks, so consecutive lines within one row stay in one row
 * buffer (streaming earns row hits) while consecutive rows spread
 * across channels and banks (independent streams earn parallelism).
 *
 * The simulator is synchronous — each fill is a call that must
 * answer "when is the data ready" — so the schedulers are modeled
 * as ordering constraints rather than a command queue replayed in
 * time:
 *
 *   FCFS    one in-order command stream per channel: a request
 *           cannot begin service before every earlier request on
 *           its channel finished, even when its own bank is idle.
 *   FR-FCFS requests serialize only on their own bank's row buffer
 *           and the shared channel data bus, so a request to an
 *           idle bank overtakes a busy neighbour — exactly the
 *           reordering freedom first-ready scheduling buys.
 *
 * Both disciplines see identical row-buffer outcomes for a given
 * reference stream; they differ in queueing delay, which is what
 * the --mem-sched axis measures.
 */

#ifndef SCMP_DRAM_BANKED_DRAM_HH
#define SCMP_DRAM_BANKED_DRAM_HH

#include <string>
#include <vector>

#include "dram/memory_backend.hh"

namespace scmp
{

/** Open-row banked DRAM with FCFS / FR-FCFS channel scheduling. */
class BankedDram : public MemoryBackend
{
  public:
    BankedDram(stats::Group *parent, const std::string &name,
               const DramParams &params);

    Cycle fill(Addr lineAddr, Cycle now) override;
    void writeBack(Addr lineAddr, Cycle now) override;

    const char *backendName() const override { return "banked"; }

    int numChannels() const override { return _params.channels; }
    int banksPerChannel() const override { return _params.banks; }
    Cycle channelBusyCycles(int channel) const override
    {
        return _channels[(std::size_t)channel].busy;
    }
    Cycle bankBusyCycles(int channel, int bank) const override
    {
        return bankAt(channel, bank).busy;
    }
    std::uint64_t fills() const override
    {
        return fillsServed.value();
    }
    std::uint64_t rowHits() const override
    {
        return rowHitCount.value();
    }
    double rowHitRate() const override;

    const DramParams &params() const { return _params; }

  private:
    /// Declared before the scalars they parent.
    DramParams _params;
    stats::Group _stats;

  public:
    /// @name Statistics (absent on flat configurations).
    /// @{
    stats::Scalar fillsServed;      //!< line fetches serviced
    stats::Scalar writeBacksServed; //!< evicted lines absorbed
    stats::Scalar rowHitCount;      //!< accesses to the open row
    stats::Scalar rowMissCount;     //!< accesses to an idle bank
    stats::Scalar rowConflictCount; //!< row-buffer conflicts
    stats::Scalar queueWaitCycles;  //!< cycles queued before service
    /// @}

  private:
    struct Bank
    {
        std::uint64_t openRow = 0;
        bool rowValid = false;  //!< false until the first activate
        Cycle freeAt = 0;       //!< bank busy until here
        Cycle busy = 0;         //!< cumulative occupied cycles
    };

    struct Channel
    {
        std::vector<Bank> banks;
        Cycle dataFreeAt = 0;   //!< shared data bus busy until here
        Cycle inOrderFreeAt = 0; //!< FCFS: last request's finish
        Cycle busy = 0;         //!< cumulative data-bus cycles
    };

    struct Decode
    {
        int channel;
        int bank;
        std::uint64_t row;
    };

    Decode decode(Addr lineAddr) const;

    const Bank &bankAt(int channel, int bank) const
    {
        return _channels[(std::size_t)channel]
            .banks[(std::size_t)bank];
    }

    /** Shared service path: schedule one access, return its finish. */
    Cycle service(Addr lineAddr, Cycle now);

    std::vector<Channel> _channels;
    int _rowShift = 0;  //!< log2(_params.rowBytes)
};

} // namespace scmp

#endif // SCMP_DRAM_BANKED_DRAM_HH
