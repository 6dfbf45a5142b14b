/**
 * @file
 * Barnes-Hut hierarchical N-body simulation (SPLASH "barnes").
 *
 * A from-scratch implementation of the SPLASH benchmark's
 * structure: per timestep the threads cooperatively (1) compute the
 * bounding box, (2) build the octree by concurrent insertion with
 * per-cell locks, (3) compute cell centres of mass bottom-up over a
 * self-scheduled task list of subtrees, (4) compute forces with the
 * classic opening-criterion traversal, and (5) advance bodies.
 *
 * Bodies are assigned to threads in Morton (octree) order, so
 * processors that share a cluster cache work on adjacent regions of
 * the tree — the locality property behind the paper's
 * greater-than-linear cluster speedups.
 */

#ifndef SCMP_SPLASH_BARNES_HH
#define SCMP_SPLASH_BARNES_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/workload.hh"

namespace scmp::splash
{

/** Input parameters (defaults: the paper's 1024-body run). */
struct BarnesParams
{
    int nbodies = 1024;
    int steps = 4;
    double theta = 1.0;    //!< opening criterion
    double dt = 0.0125;    //!< timestep
    double eps = 0.05;     //!< softening length
    std::uint64_t seed = 42;

    /**
     * Bodies claimed per grab of the self-scheduling counter (the
     * ANL GETSUB idiom the SPLASH codes use for load balance).
     * Small chunks make concurrently-running processors work on
     * tree-adjacent bodies at the same time; per-body grabs give
     * the strongest intra-cluster prefetching.
     */
    int chunkBodies = 1;

    /** Apply the quadrupole correction to cell interactions. */
    bool useQuad = true;

    /** Max energy drift fraction accepted by verify(). */
    double energyTolerance = 0.15;
};

/** The Barnes-Hut workload. */
class Barnes : public ParallelWorkload
{
  public:
    explicit Barnes(BarnesParams params = {});

    std::string name() const override { return "Barnes-Hut"; }
    void setup(Arena &arena, const Topology &topo) override;
    void threadMain(ThreadCtx &ctx, int tid,
                    const Topology &topo) override;
    bool verify() override;

    /** Host-side total energy (verification helper, not timed). */
    double totalEnergy() const;

    /// @name Host-side body state accessors (tests/verification).
    /// @{
    double bodyPos(int body, int axis) const;
    double bodyAcc(int body, int axis) const;
    double bodyMass(int body) const;
    /// @}

  private:
    /** A body: the SPLASH barnes body record. */
    struct Body
    {
        Shared<double> mass;
        Shared<double> pos[3];
        Shared<double> vel[3];
        Shared<double> acc[3];
        Shared<double> phi;  //!< gravitational potential
    };

    /**
     * An internal octree cell: mass, centre of mass, quadrupole
     * moment (SPLASH barnes applies the quadrupole correction to
     * cell interactions) and eight child slots.
     */
    struct Cell
    {
        Shared<double> mass;
        Shared<double> cm[3];
        Shared<double> quad[6];  //!< symmetric 3x3, upper triangle
        Shared<std::int64_t> child[8];
    };

    /// Child-slot encoding.
    static constexpr std::int64_t emptySlot = -1;
    bool isBody(std::int64_t v) const { return v >= 0 && v < _n; }
    bool isCell(std::int64_t v) const { return v >= _n; }
    int bodyIndex(std::int64_t v) const { return (int)v; }
    int cellIndex(std::int64_t v) const { return (int)(v - _n); }
    std::int64_t encodeBody(int b) const { return b; }
    std::int64_t encodeCell(int c) const { return _n + c; }

    /// @name Per-step phases (run by the simulated threads).
    /// @{
    void computeBounds(ThreadCtx &ctx, int tid);
    void buildTree(ThreadCtx &ctx, int tid);
    void centerOfMass(ThreadCtx &ctx, int tid);
    void computeForces(ThreadCtx &ctx, int tid);
    void advanceBodies(ThreadCtx &ctx, int tid);
    /// @}

    /** Insert one body into the tree (locking protocol inside). */
    void insertBody(ThreadCtx &ctx, int body);

    /** Allocate a fresh cell index from the shared counter. */
    int allocCell(ThreadCtx &ctx);

    /** Recursive COM computation over a subtree rooted at a cell. */
    void subtreeCOM(ThreadCtx &ctx, int cell);

    /** One-level COM combine (children already computed). */
    void shallowCOM(ThreadCtx &ctx, int cell);

    /** Quadrupole moment pass over a cell's children. */
    void computeQuad(ThreadCtx &ctx, int cell, const double *cmIn);

    /** Accumulate force and potential on @p body from @p node. */
    void forceFromNode(ThreadCtx &ctx, int body,
                       const double bodyPos[3], std::int64_t node,
                       double half, double accOut[3],
                       double &phiOut);

    /** Octant of @p pos relative to a cell centre. */
    static int octant(const double pos[3], const double center[3]);

    /**
     * [first, last) contiguous body range owned by a cluster; the
     * cluster's processors self-schedule within it, which is the
     * paper's "tree-adjacent bodies within a cluster" partition.
     */
    void clusterRange(int cluster, int &first, int &last) const;

    /** [first, last) body range for per-thread streaming scans. */
    void ownedRange(int tid, int numThreads, int &first,
                    int &last) const;

    BarnesParams _params;
    Topology _topo;
    int _n = 0;
    int _maxCells = 0;

    /// @name Simulated (arena) data.
    /// @{
    Body *_bodies = nullptr;
    Cell *_cells = nullptr;
    Shared<std::int64_t> *_nextCell = nullptr;
    Shared<double> *_rootGeom = nullptr;  //!< center xyz + half
    Shared<std::int64_t> *_comTasks = nullptr;
    Shared<std::int64_t> *_numComTasks = nullptr;
    Shared<double> *_boundsScratch = nullptr;
    /// @}

    /// @name Synchronization (host objects over arena lock words).
    /// @{
    std::optional<SimBarrier> _barrier;
    std::optional<SimLock> _allocLock;
    std::deque<SimLock> _cellLocks;
    /// Per-cluster self-scheduling counters, one set per phase.
    std::deque<TaskCounter> _buildCounters;
    std::deque<TaskCounter> _comCounters;
    std::deque<TaskCounter> _forceCounters;
    std::deque<TaskCounter> _updateCounters;
    /// @}

    /** Per-thread chunked cell allocation (SPLASH cell pools). */
    static constexpr int cellChunk = 16;
    struct CellPool
    {
        int next = 0;
        int limit = 0;
    };
    std::vector<CellPool> _cellPools;

    bool _setupDone = false;
    double _initialEnergy = 0;
};

} // namespace scmp::splash

#endif // SCMP_SPLASH_BARNES_HH
