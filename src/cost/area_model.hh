/**
 * @file
 * Implementation cost models from Section 4 of the paper.
 *
 * The paper estimates chip area and cycle time for four cluster
 * implementations in a 0.4 um, three-metal CMOS process (1996
 * technology): processor datapaths linearly scaled from the DEC
 * Alpha 21064, SRAM blocks from a detailed cell layout, crossbar
 * processor-cache interconnect sized from wire pitch, and pad
 * frames (perimeter or C4 area-array). Timing is counted in
 * fanout-of-four (FO4) inverter delays with a 30-FO4 cycle budget.
 *
 * All published constants are encoded here; the chip models in
 * chips.hh combine them into the paper's four floorplans and the
 * unit tests check the published totals (204 / 279 / 297 / 306
 * mm^2) are reproduced.
 */

#ifndef SCMP_COST_AREA_MODEL_HH
#define SCMP_COST_AREA_MODEL_HH

#include <cstdint>

namespace scmp::cost
{

/** Semiconductor process assumptions (Section 4.1). */
struct Process
{
    double gateLengthUm = 0.4;      //!< drawn gate length
    int metalLayers = 3;
    double dieSideMm = 18.0;        //!< economical die edge
    double maxDieAreaMm2 = 300.0;   //!< pad-limited envelope?
    double cycleFo4 = 30.0;         //!< processor cycle budget

    /** Area scale factor from another process generation. */
    double
    scaleFrom(double otherGateUm) const
    {
        double s = gateLengthUm / otherGateUm;
        return s * s;
    }
};

/** The reference microprocessor (DEC Alpha 21064, 0.68 um). */
struct Alpha21064
{
    double gateLengthUm = 0.68;
    double cycleFo4 = 30.0;  //!< aggressive circuit design

    /**
     * Datapath area (integer unit + floating point unit) and the
     * 16 KB instruction cache, measured at 0.68 um, chosen so the
     * linear scaling to 0.4 um reproduces the paper's totals.
     */
    double datapathAreaMm2 = 110.0;
    double icacheAreaMm2 = 39.4;
};

/** SRAM macro areas in the 0.4 um process (Section 4.2/4.3). */
struct SramModel
{
    /**
     * Single-ported 8 KB block: 6.6 mm^2 including tag overhead
     * and the drivers back to the functional units.
     */
    double singlePortBlockMm2 = 6.6;
    std::uint64_t singlePortBlockBytes = 8 * 1024;

    /**
     * SCC bank block: triple-ported, with arbitration, a write
     * buffer and crossbar drivers — 8 mm^2 holds only 4 KB.
     */
    double sccBankBlockMm2 = 8.0;
    std::uint64_t sccBankBlockBytes = 4 * 1024;

    /** Area of a single-ported cache of @p bytes capacity. */
    double singlePortedAreaMm2(std::uint64_t bytes) const;

    /** Area of an SCC built from multiported bank blocks. */
    double sccAreaMm2(std::uint64_t bytes) const;
};

/** Crossbar processor-cache interconnect (ICN). */
struct IcnModel
{
    /** Signal wire pitch in the 0.4 um process. */
    double wirePitchUm = 1.6;

    /** Wires per port (address + data + control). */
    int wiresPerPort = 160;

    /** Crossbar span in mm (across the SCC bank row). */
    double spanMm = 17.5;

    /**
     * Crossbar area for @p ports ports; linear in the port count
     * (port wires run the full span at the given pitch).
     * Calibrated to the paper's 12.1 mm^2 for the two-processor
     * chip's three-port ICN.
     */
    double areaMm2(int ports) const;
};

/** Pad frames: perimeter pad ring vs C4 area array. */
struct PadModel
{
    /** Area cost of the perimeter pad ring. */
    double perimeterRingMm2 = 34.0;

    /** Extra area when pads exceed the perimeter budget (C4). */
    double c4OverheadMm2 = 2.8;
};

/** Complete area model bundle. */
struct AreaModel
{
    Process process;
    Alpha21064 alpha;
    SramModel sram;
    IcnModel icn;
    PadModel pads;

    /** One processor's datapath (IU + FPU) scaled to 0.4 um. */
    double processorDatapathMm2() const;

    /** One 16 KB instruction cache scaled to 0.4 um. */
    double icacheMm2() const;
};

} // namespace scmp::cost

#endif // SCMP_COST_AREA_MODEL_HH
