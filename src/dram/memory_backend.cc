#include "memory_backend.hh"

#include "dram/banked_dram.hh"
#include "dram/flat_memory.hh"
#include "sim/logging.hh"

namespace scmp
{

std::unique_ptr<MemoryBackend>
makeMemoryBackend(stats::Group *parent, const std::string &name,
                  Cycle flatLatency, const DramParams &dram)
{
    switch (dram.kind) {
      case MemBackendKind::Flat:
        return std::make_unique<FlatMemory>(flatLatency);
      case MemBackendKind::Banked:
        return std::make_unique<BankedDram>(parent, name, dram);
    }
    panic("unreachable memory backend kind");
}

} // namespace scmp
