/**
 * @file
 * The processor–cache design-space sweep driver.
 *
 * Runs a workload across {processors per cluster} x {SCC size},
 * producing the grids behind the paper's Figures 2–4 and Tables
 * 3–4, plus normalization and speedup views over those grids; and
 * runs the per-axis studies (interconnect, DRAM, consistency, TM,
 * isolation) as plain lists of machine configurations.
 *
 * Both execute through the src/sweep/ subsystem (a host-parallel
 * executor with a persistent result store); DesignSpace::sweep and
 * DesignSpace::study are declared here but defined in scmp_sweep,
 * so targets that sweep must link that library.
 */

#ifndef SCMP_CORE_DESIGN_SPACE_HH
#define SCMP_CORE_DESIGN_SPACE_HH

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/parallel_run.hh"
#include "sim/table.hh"

namespace scmp
{

/**
 * One evaluated configuration: its grid coordinates, its result,
 * and the full machine it ran, so a study reads any axis value
 * (topology, TM manager, DRAM geometry, ...) straight from config.
 */
struct DesignPoint
{
    int cpusPerCluster = 0;
    std::uint64_t sccBytes = 0;
    RunResult result;
    MachineConfig config;
};

/**
 * A completed sweep: the evaluated points plus an index that makes
 * grid lookup O(1) (the table builders look points up once per
 * cell, so a linear scan made table construction quadratic).
 */
class DesignGrid
{
  public:
    DesignGrid() = default;
    explicit DesignGrid(std::vector<DesignPoint> points);

    /** Append one point; panics on a duplicate grid coordinate. */
    void add(DesignPoint point);

    /** O(1) lookup; panics if the point is absent. */
    const DesignPoint &at(int cpusPerCluster,
                          std::uint64_t sccBytes) const;

    /** O(1) lookup; nullptr if the point is absent. */
    const DesignPoint *tryAt(int cpusPerCluster,
                             std::uint64_t sccBytes) const;

    /// @name Container views (points in sweep order).
    /// @{
    const std::vector<DesignPoint> &points() const
    {
        return _points;
    }
    std::size_t size() const { return _points.size(); }
    bool empty() const { return _points.empty(); }
    const DesignPoint &operator[](std::size_t i) const
    {
        return _points[i];
    }
    auto begin() const { return _points.begin(); }
    auto end() const { return _points.end(); }
    /// @}

  private:
    static std::uint64_t coordKey(int cpusPerCluster,
                                  std::uint64_t sccBytes);

    std::vector<DesignPoint> _points;
    std::unordered_map<std::uint64_t, std::size_t> _index;
};

/** Sweep driver and result views. */
class DesignSpace
{
  public:
    using WorkloadFactory =
        std::function<std::unique_ptr<ParallelWorkload>()>;

    /** The paper's SCC size axis: 4 KB .. 512 KB. */
    static std::vector<std::uint64_t> paperSccSizes();

    /** The paper's cluster size axis: 1, 2, 4, 8. */
    static std::vector<int> paperClusterSizes();

    /**
     * Run the full grid through the sweep executor, honouring the
     * process-wide sweep options (--jobs/--results/--resume; see
     * sweep/sweep.hh). A fresh workload instance is created per
     * point so state never leaks between runs. Defined in
     * scmp_sweep.
     *
     * @param factory Creates the workload for each point.
     * @param base    Machine configuration template; the sweep
     *                overrides cpusPerCluster and scc.sizeBytes.
     * @param sccSizes SCC size axis.
     * @param clusterSizes processors-per-cluster axis.
     * @param verbose  inform() progress per point.
     */
    static DesignGrid
    sweep(const WorkloadFactory &factory, MachineConfig base,
          const std::vector<std::uint64_t> &sccSizes,
          const std::vector<int> &clusterSizes,
          bool verbose = false);

    /**
     * Run one study: evaluate every configuration in @p configs
     * cycle-accurately through the same executor, result store,
     * resume and --jobs/--progress path as sweep(), honouring the
     * process-wide sweep options. A configuration whose point key
     * equals an earlier one's (an axis value that is inert for it,
     * such as a TM set size under --tm=off) is evaluated once and
     * not repeated in the result. Each stored record is tagged with
     * the point's value on every axis named in @p axes (see
     * taggedField() in core/design_fields.hh). Defined in scmp_sweep.
     *
     * @return One point per distinct configuration, in order.
     */
    static std::vector<DesignPoint>
    study(const WorkloadFactory &factory,
          const std::vector<MachineConfig> &configs,
          const std::vector<std::string> &axes);

    /**
     * Figure 2/3/4 view: normalized execution time, one row per
     * SCC size, one column per cluster size. Times are normalized
     * so the (1 processor per cluster, smallest SCC) point is 100.
     */
    static Table normalizedTimeTable(
        const std::string &title, const DesignGrid &grid,
        const std::vector<std::uint64_t> &sccSizes,
        const std::vector<int> &clusterSizes);

    /**
     * Table 3 view: speedup of each cluster size relative to one
     * processor per cluster at the same SCC size.
     */
    static Table speedupTable(
        const std::string &title, const DesignGrid &grid,
        const std::vector<std::uint64_t> &sccSizes,
        const std::vector<int> &clusterSizes);

    /**
     * Table 4 view: read miss rate for selected SCC sizes, one row
     * per cluster size.
     */
    static Table missRateTable(
        const std::string &title, const DesignGrid &grid,
        const std::vector<std::uint64_t> &sccSizes,
        const std::vector<int> &clusterSizes);

    /** Invalidation counts (the paper's clustering claim). */
    static Table invalidationTable(
        const std::string &title, const DesignGrid &grid,
        const std::vector<std::uint64_t> &sccSizes,
        const std::vector<int> &clusterSizes);
};

} // namespace scmp

#endif // SCMP_CORE_DESIGN_SPACE_HH
