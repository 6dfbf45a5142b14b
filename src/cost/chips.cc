#include "chips.hh"

#include "sim/logging.hh"

namespace scmp::cost
{

namespace
{

/** Fixed chip overhead: clock and global routing. */
constexpr double routingOverheadMm2 = 65.5;

/** Pads included in the base ring; extras cost area each. */
constexpr int basePads = 300;
constexpr double extraPadMm2 = 0.0331;

} // namespace

double
ChipDesign::areaMm2(const AreaModel &model) const
{
    double area = routingOverheadMm2 + model.pads.perimeterRingMm2;
    area += processorsOnChip *
            (model.processorDatapathMm2() + model.icacheMm2());

    if (sharedCache) {
        area += model.sram.sccAreaMm2(dataCacheBytes);
        area += model.icn.areaMm2(icnPorts);
    } else {
        area += model.sram.singlePortedAreaMm2(dataCacheBytes);
    }

    if (c4Pads) {
        // C4 places pads over active circuitry; only the bump
        // redistribution costs area.
        area += model.pads.c4OverheadMm2;
    } else if (signalPads > basePads) {
        area += (signalPads - basePads) * extraPadMm2;
    }
    return area;
}

int
ChipDesign::loadLatency(const TimingModel &timing) const
{
    return timing.loadLatency(sharedCache, mcm);
}

ChipDesign
oneProcChip()
{
    ChipDesign chip;
    chip.name = "1 processor / 64 KB data cache";
    chip.processorsOnChip = 1;
    chip.clusterProcessors = 1;
    chip.dataCacheBytes = 64 * 1024;
    chip.sharedCache = false;
    chip.mcm = false;
    chip.icnPorts = 0;
    chip.signalPads = 300;
    return chip;
}

ChipDesign
twoProcChip()
{
    ChipDesign chip;
    chip.name = "2 processors / 32 KB SCC";
    chip.processorsOnChip = 2;
    chip.clusterProcessors = 2;
    chip.dataCacheBytes = 32 * 1024;
    chip.sharedCache = true;
    chip.mcm = false;
    chip.icnPorts = 3;  // two processors + refill controller
    chip.signalPads = 300;
    return chip;
}

ChipDesign
fourProcBuildingBlock()
{
    ChipDesign chip;
    chip.name = "4-processor cluster building block";
    chip.processorsOnChip = 2;
    chip.clusterProcessors = 4;
    chip.dataCacheBytes = 32 * 1024;
    chip.sharedCache = true;
    chip.mcm = true;
    chip.icnPorts = 5;  // 2 local + 2 remote + refill
    chip.signalPads = 600;
    return chip;
}

ChipDesign
eightProcBuildingBlock()
{
    ChipDesign chip;
    chip.name = "8-processor cluster building block";
    chip.processorsOnChip = 2;
    chip.clusterProcessors = 8;
    chip.dataCacheBytes = 32 * 1024;
    chip.sharedCache = true;
    chip.mcm = true;
    chip.icnPorts = 9;  // 2 local + 6 remote + refill
    chip.signalPads = 1100;
    chip.c4Pads = true;
    return chip;
}

std::vector<ClusterImplementation>
paperImplementations()
{
    std::vector<ClusterImplementation> impls;
    impls.push_back({oneProcChip(), 1});
    impls.push_back({twoProcChip(), 1});
    impls.push_back({fourProcBuildingBlock(), 2});
    impls.push_back({eightProcBuildingBlock(), 4});
    return impls;
}

} // namespace scmp::cost
