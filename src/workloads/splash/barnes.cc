#include "barnes.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace scmp::splash
{

namespace
{

/** Interleave the low 10 bits of x,y,z into a 30-bit Morton code. */
std::uint32_t
mortonCode(std::uint32_t x, std::uint32_t y, std::uint32_t z)
{
    auto spread = [](std::uint32_t v) {
        std::uint64_t r = v & 0x3ff;
        r = (r | (r << 16)) & 0x30000ff;
        r = (r | (r << 8)) & 0x300f00f;
        r = (r | (r << 4)) & 0x30c30c3;
        r = (r | (r << 2)) & 0x9249249;
        return (std::uint32_t)r;
    };
    return spread(x) | (spread(y) << 1) | (spread(z) << 2);
}

} // namespace

Barnes::Barnes(BarnesParams params) : _params(params)
{
    fatal_if(_params.nbodies < 2, "Barnes-Hut needs >= 2 bodies");
    fatal_if(_params.steps < 1, "Barnes-Hut needs >= 1 step");
    _n = _params.nbodies;
    _maxCells = 4 * _n;
}

void
Barnes::ownedRange(int tid, int numThreads, int &first,
                   int &last) const
{
    first = (int)((std::int64_t)_n * tid / numThreads);
    last = (int)((std::int64_t)_n * (tid + 1) / numThreads);
}

void
Barnes::clusterRange(int cluster, int &first, int &last) const
{
    int clusters = _topo.numClusters;
    first = (int)((std::int64_t)_n * cluster / clusters);
    last = (int)((std::int64_t)_n * (cluster + 1) / clusters);
}

int
Barnes::octant(const double pos[3], const double center[3])
{
    return (pos[0] >= center[0] ? 1 : 0) |
           (pos[1] >= center[1] ? 2 : 0) |
           (pos[2] >= center[2] ? 4 : 0);
}

void
Barnes::setup(Arena &arena, const Topology &topo)
{
    _topo = topo;
    int numThreads = topo.totalCpus();
    Rng rng(_params.seed);

    // Host-side body generation: uniform sphere of unit radius with
    // a small random velocity dispersion, masses summing to one.
    struct HostBody
    {
        double pos[3];
        double vel[3];
        std::uint32_t morton;
    };
    std::vector<HostBody> host((std::size_t)_n);
    for (auto &b : host) {
        // Rejection-sample the unit ball.
        double r2;
        do {
            for (double &x : b.pos)
                x = rng.uniform(-1.0, 1.0);
            r2 = b.pos[0] * b.pos[0] + b.pos[1] * b.pos[1] +
                 b.pos[2] * b.pos[2];
        } while (r2 > 1.0);
        // Near-virial velocity dispersion for a uniform unit-mass
        // ball of unit radius (2K = -U with U = -3/5 M^2/R), so
        // the cluster evolves gently instead of cold-collapsing.
        for (double &v : b.vel)
            v = 0.45 * rng.normal();
    }

    // Morton-sort so contiguous body ranges are tree-adjacent; the
    // per-thread block assignment then gives cluster-mates
    // neighbouring regions of space.
    for (auto &b : host) {
        auto quant = [](double x) {
            double t = (x + 1.0) / 2.0 * 1023.0;
            t = std::clamp(t, 0.0, 1023.0);
            return (std::uint32_t)t;
        };
        b.morton = mortonCode(quant(b.pos[0]), quant(b.pos[1]),
                              quant(b.pos[2]));
    }
    std::sort(host.begin(), host.end(),
              [](const HostBody &a, const HostBody &b) {
                  return a.morton < b.morton;
              });

    // Simulated allocations.
    _bodies = arena.alloc<Body>((std::size_t)_n);
    _cells = arena.alloc<Cell>((std::size_t)_maxCells);
    _nextCell = arena.alloc<Shared<std::int64_t>>();
    _rootGeom = arena.alloc<Shared<double>>(4);
    _comTasks = arena.alloc<Shared<std::int64_t>>(64);
    _numComTasks = arena.alloc<Shared<std::int64_t>>();
    _boundsScratch =
        arena.alloc<Shared<double>>((std::size_t)numThreads * 6);
    _cellPools.assign((std::size_t)numThreads, CellPool{});

    double mass = 1.0 / _n;
    for (int i = 0; i < _n; ++i) {
        _bodies[i].mass.raw() = mass;
        for (int d = 0; d < 3; ++d) {
            _bodies[i].pos[d].raw() = host[(std::size_t)i].pos[d];
            _bodies[i].vel[d].raw() = host[(std::size_t)i].vel[d];
            _bodies[i].acc[d].raw() = 0;
        }
    }

    _barrier.emplace(arena, numThreads);
    _allocLock.emplace(arena);
    for (int c = 0; c < _maxCells; ++c)
        _cellLocks.emplace_back(arena);
    for (int c = 0; c < topo.numClusters; ++c) {
        int first;
        int last;
        clusterRange(c, first, last);
        _buildCounters.emplace_back(arena, last - first);
        _comCounters.emplace_back(arena, 0);
        _forceCounters.emplace_back(arena, last - first);
        _updateCounters.emplace_back(arena, last - first);
    }

    _initialEnergy = totalEnergy();
    _setupDone = true;
}

double
Barnes::bodyPos(int body, int axis) const
{
    return _bodies[body].pos[axis].raw();
}

double
Barnes::bodyAcc(int body, int axis) const
{
    return _bodies[body].acc[axis].raw();
}

double
Barnes::bodyMass(int body) const
{
    return _bodies[body].mass.raw();
}

double
Barnes::totalEnergy() const
{
    double kinetic = 0;
    double potential = 0;
    double eps2 = _params.eps * _params.eps;
    for (int i = 0; i < _n; ++i) {
        double v2 = 0;
        for (int d = 0; d < 3; ++d) {
            double v = _bodies[i].vel[d].raw();
            v2 += v * v;
        }
        kinetic += 0.5 * _bodies[i].mass.raw() * v2;
        for (int j = i + 1; j < _n; ++j) {
            double r2 = eps2;
            for (int d = 0; d < 3; ++d) {
                double dx = _bodies[i].pos[d].raw() -
                            _bodies[j].pos[d].raw();
                r2 += dx * dx;
            }
            potential -= _bodies[i].mass.raw() *
                         _bodies[j].mass.raw() / std::sqrt(r2);
        }
    }
    return kinetic + potential;
}

void
Barnes::threadMain(ThreadCtx &ctx, int tid, const Topology &topo)
{
    panic_if(!_setupDone, "Barnes-Hut run before setup");
    panic_if(topo.totalCpus() != _topo.totalCpus(),
             "topology changed between setup and run");
    for (int step = 0; step < _params.steps; ++step) {
        computeBounds(ctx, tid);
        ctx.barrier(*_barrier);

        buildTree(ctx, tid);
        ctx.barrier(*_barrier);

        centerOfMass(ctx, tid);
        ctx.barrier(*_barrier);

        computeForces(ctx, tid);
        ctx.barrier(*_barrier);

        advanceBodies(ctx, tid);
        ctx.barrier(*_barrier);
    }
}

void
Barnes::computeBounds(ThreadCtx &ctx, int tid)
{
    int numThreads = _topo.totalCpus();
    // Each thread reduces its own bodies; thread 0 merges.
    int first;
    int last;
    ownedRange(tid, numThreads, first, last);
    double lo[3] = {1e30, 1e30, 1e30};
    double hi[3] = {-1e30, -1e30, -1e30};
    for (int i = first; i < last; ++i) {
        for (int d = 0; d < 3; ++d) {
            double x = _bodies[i].pos[d].ld(ctx);
            lo[d] = std::min(lo[d], x);
            hi[d] = std::max(hi[d], x);
        }
        ctx.work(6);
    }
    for (int d = 0; d < 3; ++d) {
        _boundsScratch[tid * 6 + d].st(ctx, lo[d]);
        _boundsScratch[tid * 6 + 3 + d].st(ctx, hi[d]);
    }
    ctx.barrier(*_barrier);

    if (tid != 0)
        return;

    // Recycle the self-scheduling counters consumed last step; no
    // other thread touches them while the merge runs.
    for (int c = 0; c < _topo.numClusters; ++c) {
        int cFirst;
        int cLast;
        clusterRange(c, cFirst, cLast);
        _buildCounters[(std::size_t)c].reset(ctx, cLast - cFirst);
        _updateCounters[(std::size_t)c].reset(ctx, cLast - cFirst);
    }

    for (int t = 0; t < numThreads; ++t) {
        for (int d = 0; d < 3; ++d) {
            lo[d] = std::min(lo[d], _boundsScratch[t * 6 + d].ld(ctx));
            hi[d] = std::max(hi[d],
                             _boundsScratch[t * 6 + 3 + d].ld(ctx));
        }
        ctx.work(6);
    }
    double half = 0;
    for (int d = 0; d < 3; ++d) {
        _rootGeom[d].st(ctx, (lo[d] + hi[d]) / 2.0);
        half = std::max(half, (hi[d] - lo[d]) / 2.0);
    }
    // Pad slightly so boundary bodies fall strictly inside.
    _rootGeom[3].st(ctx, half * 1.0001 + 1e-9);

    // Reset the tree: root is cell 0 with empty children.
    _nextCell->st(ctx, 1);
    for (int oct = 0; oct < 8; ++oct)
        _cells[0].child[oct].st(ctx, emptySlot);
}

int
Barnes::allocCell(ThreadCtx &ctx)
{
    // Threads draw chunks from the global counter so the shared
    // lock is touched once per chunk, not once per cell (the
    // SPLASH per-processor cell pool idiom).
    auto &pool = _cellPools[(std::size_t)ctx.tid()];
    if (pool.next >= pool.limit) {
        ctx.lock(*_allocLock);
        std::int64_t c = _nextCell->ld(ctx);
        _nextCell->st(ctx, c + cellChunk);
        ctx.unlock(*_allocLock);
        pool.next = (int)c;
        pool.limit = (int)c + cellChunk;
    }
    int c = pool.next++;
    panic_if(c >= _maxCells, "octree cell pool exhausted");
    for (int oct = 0; oct < 8; ++oct)
        _cells[c].child[oct].st(ctx, emptySlot);
    return c;
}

void
Barnes::buildTree(ThreadCtx &ctx, int tid)
{
    // Drop the previous step's chunk; the tree was reset.
    _cellPools[(std::size_t)tid].next = 0;
    _cellPools[(std::size_t)tid].limit = 0;

    // Self-scheduled insertion of the cluster's own bodies.
    int cluster = _topo.clusterOf(tid);
    int base;
    int end;
    clusterRange(cluster, base, end);
    auto &counter = _buildCounters[(std::size_t)cluster];
    for (;;) {
        std::int64_t first =
            counter.nextChunk(ctx, _params.chunkBodies);
        if (first < 0)
            break;
        std::int64_t last = std::min<std::int64_t>(
            first + _params.chunkBodies, end - base);
        for (std::int64_t b = first; b < last; ++b)
            insertBody(ctx, base + (int)b);
    }
}

void
Barnes::insertBody(ThreadCtx &ctx, int body)
{
    double p[3];
    for (int d = 0; d < 3; ++d)
        p[d] = _bodies[body].pos[d].ld(ctx);

    double center[3];
    for (int d = 0; d < 3; ++d)
        center[d] = _rootGeom[d].ld(ctx);
    double half = _rootGeom[3].ld(ctx);

    int cell = 0;
    for (;;) {
        int oct = octant(p, center);
        std::int64_t slot = _cells[cell].child[oct].ld(ctx);
        ctx.work(6);

        if (slot == emptySlot) {
            ctx.lock(_cellLocks[(std::size_t)cell]);
            slot = _cells[cell].child[oct].ld(ctx);
            if (slot == emptySlot) {
                _cells[cell].child[oct].st(ctx, encodeBody(body));
                ctx.unlock(_cellLocks[(std::size_t)cell]);
                return;
            }
            ctx.unlock(_cellLocks[(std::size_t)cell]);
            continue;  // re-examine the updated slot
        }

        if (isCell(slot)) {
            // Descend into the octant.
            for (int d = 0; d < 3; ++d) {
                center[d] += (oct & (1 << d)) ? half / 2
                                              : -half / 2;
            }
            half /= 2;
            cell = cellIndex(slot);
            continue;
        }

        // The slot holds another body: subdivide under a lock.
        ctx.lock(_cellLocks[(std::size_t)cell]);
        std::int64_t recheck = _cells[cell].child[oct].ld(ctx);
        if (recheck != slot) {
            ctx.unlock(_cellLocks[(std::size_t)cell]);
            continue;
        }
        int other = bodyIndex(slot);
        double q[3];
        for (int d = 0; d < 3; ++d)
            q[d] = _bodies[other].pos[d].ld(ctx);

        // Build the chain of cells privately, publish at the end.
        double subCenter[3];
        for (int d = 0; d < 3; ++d) {
            subCenter[d] = center[d] + ((oct & (1 << d))
                                            ? half / 2
                                            : -half / 2);
        }
        double subHalf = half / 2;
        int head = allocCell(ctx);
        int cur = head;
        for (;;) {
            int o1 = octant(p, subCenter);
            int o2 = octant(q, subCenter);
            ctx.work(8);
            if (o1 != o2) {
                _cells[cur].child[o1].st(ctx, encodeBody(body));
                _cells[cur].child[o2].st(ctx, encodeBody(other));
                break;
            }
            panic_if(subHalf < 1e-12,
                     "two bodies share a position; cannot subdivide");
            int deeper = allocCell(ctx);
            _cells[cur].child[o1].st(ctx, encodeCell(deeper));
            for (int d = 0; d < 3; ++d) {
                subCenter[d] += (o1 & (1 << d)) ? subHalf / 2
                                                : -subHalf / 2;
            }
            subHalf /= 2;
            cur = deeper;
        }
        _cells[cell].child[oct].st(ctx, encodeCell(head));
        ctx.unlock(_cellLocks[(std::size_t)cell]);
        return;
    }
}

void
Barnes::subtreeCOM(ThreadCtx &ctx, int cell)
{
    double mass = 0;
    double cm[3] = {0, 0, 0};
    for (int oct = 0; oct < 8; ++oct) {
        std::int64_t slot = _cells[cell].child[oct].ld(ctx);
        if (slot == emptySlot)
            continue;
        double m;
        double p[3];
        if (isBody(slot)) {
            int b = bodyIndex(slot);
            m = _bodies[b].mass.ld(ctx);
            for (int d = 0; d < 3; ++d)
                p[d] = _bodies[b].pos[d].ld(ctx);
        } else {
            int k = cellIndex(slot);
            subtreeCOM(ctx, k);
            m = _cells[k].mass.ld(ctx);
            for (int d = 0; d < 3; ++d)
                p[d] = _cells[k].cm[d].ld(ctx);
        }
        mass += m;
        for (int d = 0; d < 3; ++d)
            cm[d] += m * p[d];
        ctx.work(8);
    }
    _cells[cell].mass.st(ctx, mass);
    for (int d = 0; d < 3; ++d) {
        cm[d] = mass > 0 ? cm[d] / mass : 0;
        _cells[cell].cm[d].st(ctx, cm[d]);
    }
    computeQuad(ctx, cell, cm);
}

void
Barnes::computeQuad(ThreadCtx &ctx, int cell, const double *cmIn)
{
    // Second pass (SPLASH hackquad): accumulate the quadrupole
    // moment about the cell's centre of mass, using the parallel
    // axis theorem for cell children.
    double cm[3] = {0, 0, 0};
    if (cmIn) {
        for (int d = 0; d < 3; ++d)
            cm[d] = cmIn[d];
    }
    double quad[6] = {0, 0, 0, 0, 0, 0};
    for (int oct = 0; oct < 8; ++oct) {
        std::int64_t slot = _cells[cell].child[oct].ld(ctx);
        if (slot == emptySlot)
            continue;
        double m;
        double p[3];
        double childQuad[6] = {0, 0, 0, 0, 0, 0};
        if (isBody(slot)) {
            int b = bodyIndex(slot);
            m = _bodies[b].mass.ld(ctx);
            for (int d = 0; d < 3; ++d)
                p[d] = _bodies[b].pos[d].ld(ctx);
        } else {
            int k = cellIndex(slot);
            m = _cells[k].mass.ld(ctx);
            for (int d = 0; d < 3; ++d)
                p[d] = _cells[k].cm[d].ld(ctx);
            for (int q = 0; q < 6; ++q)
                childQuad[q] = _cells[k].quad[q].ld(ctx);
        }
        double dr[3] = {p[0] - cm[0], p[1] - cm[1], p[2] - cm[2]};
        double dr2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        int idx = 0;
        for (int a = 0; a < 3; ++a) {
            for (int b = a; b < 3; ++b) {
                double term = m * (3.0 * dr[a] * dr[b] -
                                   (a == b ? dr2 : 0.0));
                quad[idx] += childQuad[idx] + term;
                ++idx;
            }
        }
        ctx.work(24);
    }
    for (int q = 0; q < 6; ++q)
        _cells[cell].quad[q].st(ctx, quad[q]);
}

void
Barnes::centerOfMass(ThreadCtx &ctx, int tid)
{
    int clusters = _topo.numClusters;
    // Thread 0 lists the root's grandchild cells as tasks (in
    // octant order ≈ Morton order of space) and slices the list
    // contiguously per cluster.
    if (tid == 0) {
        std::int64_t count = 0;
        for (int oct = 0; oct < 8; ++oct) {
            std::int64_t child = _cells[0].child[oct].ld(ctx);
            if (child == emptySlot || !isCell(child))
                continue;
            int c = cellIndex(child);
            for (int sub = 0; sub < 8; ++sub) {
                std::int64_t gc = _cells[c].child[sub].ld(ctx);
                if (gc != emptySlot && isCell(gc))
                    _comTasks[count++].st(ctx, gc);
            }
        }
        _numComTasks->st(ctx, count);
        for (int c = 0; c < clusters; ++c) {
            std::int64_t first = count * c / clusters;
            std::int64_t last = count * (c + 1) / clusters;
            _comCounters[(std::size_t)c].reset(ctx, last - first);
            int bFirst;
            int bLast;
            clusterRange(c, bFirst, bLast);
            _forceCounters[(std::size_t)c].reset(ctx,
                                                 bLast - bFirst);
        }
    }
    ctx.barrier(*_barrier);

    // Self-scheduled subtree tasks within the cluster's slice.
    int cluster = _topo.clusterOf(tid);
    std::int64_t count = _numComTasks->ld(ctx);
    std::int64_t sliceBase = count * cluster / clusters;
    auto &counter = _comCounters[(std::size_t)cluster];
    for (;;) {
        std::int64_t task = counter.next(ctx);
        if (task < 0)
            break;
        std::int64_t node = _comTasks[sliceBase + task].ld(ctx);
        subtreeCOM(ctx, cellIndex(node));
    }
    ctx.barrier(*_barrier);

    // Thread 0 combines the top two levels (children computed).
    if (tid == 0) {
        for (int oct = 0; oct < 8; ++oct) {
            std::int64_t child = _cells[0].child[oct].ld(ctx);
            if (child != emptySlot && isCell(child))
                shallowCOM(ctx, cellIndex(child));
        }
        shallowCOM(ctx, 0);
    }
}

void
Barnes::shallowCOM(ThreadCtx &ctx, int cell)
{
    double mass = 0;
    double cm[3] = {0, 0, 0};
    for (int oct = 0; oct < 8; ++oct) {
        std::int64_t slot = _cells[cell].child[oct].ld(ctx);
        if (slot == emptySlot)
            continue;
        double m;
        double p[3];
        if (isBody(slot)) {
            int b = bodyIndex(slot);
            m = _bodies[b].mass.ld(ctx);
            for (int d = 0; d < 3; ++d)
                p[d] = _bodies[b].pos[d].ld(ctx);
        } else {
            int k = cellIndex(slot);
            m = _cells[k].mass.ld(ctx);
            for (int d = 0; d < 3; ++d)
                p[d] = _cells[k].cm[d].ld(ctx);
        }
        mass += m;
        for (int d = 0; d < 3; ++d)
            cm[d] += m * p[d];
        ctx.work(8);
    }
    _cells[cell].mass.st(ctx, mass);
    for (int d = 0; d < 3; ++d) {
        cm[d] = mass > 0 ? cm[d] / mass : 0;
        _cells[cell].cm[d].st(ctx, cm[d]);
    }
    computeQuad(ctx, cell, cm);
}

void
Barnes::forceFromNode(ThreadCtx &ctx, int body,
                      const double bodyPos[3], std::int64_t node,
                      double half, double accOut[3],
                      double &phiOut)
{
    if (node == emptySlot)
        return;

    double eps2 = _params.eps * _params.eps;
    if (isBody(node)) {
        int other = bodyIndex(node);
        if (other == body)
            return;
        double m = _bodies[other].mass.ld(ctx);
        double r2 = eps2;
        double dx[3];
        for (int d = 0; d < 3; ++d) {
            dx[d] = _bodies[other].pos[d].ld(ctx) - bodyPos[d];
            r2 += dx[d] * dx[d];
        }
        double dist = std::sqrt(r2);
        double inv = 1.0 / (r2 * dist);
        for (int d = 0; d < 3; ++d)
            accOut[d] += m * dx[d] * inv;
        phiOut -= m / dist;
        ctx.work(20);
        return;
    }

    int cell = cellIndex(node);
    double m = _cells[cell].mass.ld(ctx);
    double r2 = eps2;
    double dx[3];
    for (int d = 0; d < 3; ++d) {
        dx[d] = _cells[cell].cm[d].ld(ctx) - bodyPos[d];
        r2 += dx[d] * dx[d];
    }
    double dist = std::sqrt(r2);
    ctx.work(12);

    if (m > 0 && (2.0 * half) / dist < _params.theta) {
        // Far enough: monopole plus the quadrupole correction
        // (SPLASH hackgrav's gravsub with usequad).
        double inv = 1.0 / (r2 * dist);
        for (int d = 0; d < 3; ++d)
            accOut[d] += m * dx[d] * inv;
        phiOut -= m / dist;
        if (!_params.useQuad) {
            ctx.work(12);
            return;
        }

        double q[6];
        for (int i = 0; i < 6; ++i)
            q[i] = _cells[cell].quad[i].ld(ctx);
        // Expand the packed upper triangle: indices
        // (0,0)=0 (0,1)=1 (0,2)=2 (1,1)=3 (1,2)=4 (2,2)=5.
        double qdr[3] = {
            q[0] * dx[0] + q[1] * dx[1] + q[2] * dx[2],
            q[1] * dx[0] + q[3] * dx[1] + q[4] * dx[2],
            q[2] * dx[0] + q[4] * dx[1] + q[5] * dx[2],
        };
        double drqdr =
            dx[0] * qdr[0] + dx[1] * qdr[1] + dx[2] * qdr[2];
        double r5inv = 1.0 / (r2 * r2 * dist);
        double phiquad = -0.5 * drqdr * r5inv;
        phiOut += phiquad;
        // a = -grad(phi): checked against the two-point-mass
        // axial expansion (attraction strengthens by 6 m a^2/r^4).
        double coeff = -5.0 * phiquad / r2;
        for (int d = 0; d < 3; ++d)
            accOut[d] += coeff * dx[d] - r5inv * qdr[d];
        ctx.work(30);
        return;
    }

    for (int oct = 0; oct < 8; ++oct) {
        std::int64_t child = _cells[cell].child[oct].ld(ctx);
        forceFromNode(ctx, body, bodyPos, child, half / 2, accOut,
                      phiOut);
    }
}

void
Barnes::computeForces(ThreadCtx &ctx, int tid)
{
    double rootHalf = _rootGeom[3].ld(ctx);
    int cluster = _topo.clusterOf(tid);
    int base;
    int end;
    clusterRange(cluster, base, end);
    auto &counter = _forceCounters[(std::size_t)cluster];
    for (;;) {
        std::int64_t first =
            counter.nextChunk(ctx, _params.chunkBodies);
        if (first < 0)
            break;
        std::int64_t last = std::min<std::int64_t>(
            first + _params.chunkBodies, end - base);
        for (std::int64_t i = first; i < last; ++i) {
            int b = base + (int)i;
            double p[3];
            for (int d = 0; d < 3; ++d)
                p[d] = _bodies[b].pos[d].ld(ctx);
            double acc[3] = {0, 0, 0};
            double phi = 0;
            forceFromNode(ctx, b, p, encodeCell(0), rootHalf, acc,
                          phi);
            for (int d = 0; d < 3; ++d)
                _bodies[b].acc[d].st(ctx, acc[d]);
            _bodies[b].phi.st(ctx, phi);
        }
    }
}

void
Barnes::advanceBodies(ThreadCtx &ctx, int tid)
{
    int cluster = _topo.clusterOf(tid);
    int base;
    int end;
    clusterRange(cluster, base, end);
    auto &counter = _updateCounters[(std::size_t)cluster];
    for (;;) {
        std::int64_t first =
            counter.nextChunk(ctx, _params.chunkBodies);
        if (first < 0)
            break;
        std::int64_t last = std::min<std::int64_t>(
            first + _params.chunkBodies, end - base);
        for (std::int64_t i = first; i < last; ++i) {
            int b = base + (int)i;
            for (int d = 0; d < 3; ++d) {
                double v = _bodies[b].vel[d].ld(ctx) +
                           _bodies[b].acc[d].ld(ctx) * _params.dt;
                _bodies[b].vel[d].st(ctx, v);
                double x =
                    _bodies[b].pos[d].ld(ctx) + v * _params.dt;
                _bodies[b].pos[d].st(ctx, x);
            }
            ctx.work(12);
        }
    }
}

bool
Barnes::verify()
{
    double finalEnergy = totalEnergy();
    double scale = std::max(std::abs(_initialEnergy), 1e-9);
    double drift = std::abs(finalEnergy - _initialEnergy) / scale;
    inform("Barnes-Hut energy ", _initialEnergy, " -> ",
           finalEnergy, " (drift ", drift, ")");
    if (drift > _params.energyTolerance) {
        warn("Barnes-Hut energy drift ", drift, " exceeds ",
             _params.energyTolerance);
        return false;
    }
    for (int i = 0; i < _n; ++i) {
        for (int d = 0; d < 3; ++d) {
            if (!std::isfinite(_bodies[i].pos[d].raw()) ||
                !std::isfinite(_bodies[i].vel[d].raw())) {
                return false;
            }
        }
    }
    return true;
}

} // namespace scmp::splash
