/**
 * @file
 * The Tango-Lite-style direct-execution engine.
 *
 * Each simulated processor (or multiprogrammed process) runs real
 * C++ workload code on a fiber. Every instrumented memory reference
 * traps into the Engine, which charges instruction issue time, asks
 * the attached MemorySystem for the reference's completion time, and
 * re-schedules so that the runnable thread with the smallest local
 * clock always executes next — the same interleaving discipline
 * Tango-Lite uses. The whole simulation is single-host-threaded and
 * bit-deterministic.
 */

#ifndef SCMP_EXEC_ENGINE_HH
#define SCMP_EXEC_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "exec/arena.hh"
#include "exec/fiber.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace scmp
{

namespace obs
{
class Recorder;
}

class Engine;
class ThreadCtx;

/**
 * The transactional-execution policy a memory system advertises.
 * Kept as a plain struct here because the engine sits below src/tm
 * in the dependency order: the machine translates its TmParams into
 * this, and a memory system without HTM returns the disabled
 * default.
 */
struct TmPolicy
{
    bool enabled = false;
    /** Aborts tolerated before falling back to the global lock. */
    int maxAborts = 8;
    /** Base of the exponential retry backoff, in cycles. */
    Cycle backoffBase = 32;
};

/**
 * The timing model the engine drives. Implementations: the full
 * cluster/SCC machine model (scmp_core) and simple test doubles.
 */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    /**
     * Perform one reference.
     *
     * @param cpu      Issuing processor.
     * @param type     Read / Write / Ifetch.
     * @param addr     Simulated byte address.
     * @param now      Issue cycle on that processor.
     * @param instrGap Instructions issued since the previous
     *                 reference (for instruction-fetch modelling).
     * @return the cycle at which the processor may continue.
     */
    virtual Cycle access(CpuId cpu, RefType type, Addr addr,
                         Cycle now, std::uint32_t instrGap) = 0;

    /**
     * Full memory fence on @p cpu: every store the processor issued
     * before @p now must be globally performed before this returns.
     * The engine fences at the ANL LOCK/UNLOCK/BARRIER entry points
     * — the weak-ordering sync surface. A sequentially consistent
     * memory system has nothing to drain, hence the no-op default.
     *
     * @return the cycle at which the processor may continue.
     */
    virtual Cycle
    fence(CpuId cpu, Cycle now)
    {
        (void)cpu;
        return now;
    }

    /// @name Hardware transactional memory (no-ops without --tm).
    /// While a transaction is open on a cpu, every access() the
    /// engine issues for it is transactional; the engine polls
    /// tmPoll() after each one and unwinds the fiber to the
    /// tm_begin point when the transaction has been doomed.
    /// @{

    /** What the machine supports; disabled by default. */
    virtual TmPolicy tmPolicy() const { return {}; }

    /** Open a transaction on @p cpu. */
    virtual Cycle
    tmBegin(CpuId cpu, Cycle now)
    {
        (void)cpu;
        return now;
    }

    /** True when @p cpu's open transaction is doomed. */
    virtual bool
    tmPoll(CpuId cpu) const
    {
        (void)cpu;
        return false;
    }

    /**
     * Try to commit @p cpu's transaction. On failure (@p committed
     * false) the transaction stays open and the engine aborts it
     * through tmAbort() — one uniform failure path.
     */
    virtual Cycle
    tmCommit(CpuId cpu, Cycle now, bool *committed)
    {
        (void)cpu;
        *committed = true;
        return now;
    }

    /** Abort @p cpu's open transaction. */
    virtual Cycle
    tmAbort(CpuId cpu, Cycle now)
    {
        (void)cpu;
        return now;
    }

    /** Stats hook: @p cpu gave up and took the fallback lock. */
    virtual void tmFallback(CpuId cpu) { (void)cpu; }
    /// @}
};

/**
 * Optional scheduling policy layered on the engine; used by the
 * multiprogramming round-robin scheduler to time-slice processes
 * over a smaller number of processors.
 */
class SchedulerPolicy
{
  public:
    virtual ~SchedulerPolicy() = default;

    /** Called once before the first thread runs. */
    virtual void onStart(Engine &engine) { (void)engine; }

    /** Called after a thread's clock advances past a reference. */
    virtual void afterRef(Engine &engine, ThreadId tid)
    {
        (void)engine;
        (void)tid;
    }

    /** Called when a thread's workload function returns. */
    virtual void onThreadDone(Engine &engine, ThreadId tid)
    {
        (void)engine;
        (void)tid;
    }
};

/** Per-thread execution statistics, readable after run(). */
struct ThreadStats
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    Cycle finishTime = 0;
};

/** A lock with ANL LOCK/UNLOCK semantics and simulated traffic. */
class SimLock
{
  public:
    /** Allocate the lock word inside @p arena for a stable address. */
    explicit SimLock(Arena &arena)
        : _addr(arena.simAddr(arena.alloc<std::uint64_t>()))
    {
    }

  private:
    friend class Engine;
    Addr _addr;
    ThreadId _holder = -1;
    std::deque<ThreadId> _waiters;
};

/** A reusable ANL BARRIER with simulated counter traffic. */
class SimBarrier
{
  public:
    SimBarrier(Arena &arena, int expected)
        : _addr(arena.simAddr(arena.alloc<std::uint64_t>())),
          _expected(expected)
    {
        panic_if(expected <= 0, "barrier needs a positive count");
    }

  private:
    friend class Engine;
    Addr _addr;
    int _expected;
    int _arrived = 0;
    Cycle _latestArrival = 0;
    std::vector<ThreadId> _waiters;
};

/** Engine tuning knobs. */
struct EngineOptions
{
    /**
     * How many cycles a thread may run ahead of the slowest
     * runnable thread before yielding. 0 reproduces exact
     * per-reference timestamp interleaving.
     */
    CycleDelta slackWindow = 0;

    /**
     * A stall longer than this many cycles hands the processor
     * over whenever another thread has become the dispatch minimum;
     * a shorter one only when a runnable thread has fallen behind
     * the slack window.
     */
    CycleDelta yieldLatency = 4;

    /** Fiber stack size (deep octree recursion needs room). */
    std::size_t stackBytes = 512 * 1024;

    /** Cycles charged for a barrier release broadcast. */
    Cycle barrierOverhead = 16;

    /** Cycles charged for a context switch (multiprogramming). */
    Cycle contextSwitchCost = 1000;
};

/**
 * The execution engine. Owns the fibers and the simulated clock of
 * every thread; drives the MemorySystem.
 */
class Engine
{
  public:
    Engine(MemorySystem *mem, Arena *arena,
           EngineOptions options = {});
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Create a simulated thread.
     *
     * @param cpu Processor the thread starts bound to.
     * @param fn  Workload body; receives a ThreadCtx.
     * @return the new thread's id (dense, starting at 0).
     */
    ThreadId spawn(CpuId cpu, std::function<void(ThreadCtx &)> fn);

    /** Attach a scheduling policy (may be null). */
    void setPolicy(SchedulerPolicy *policy) { _policy = policy; }

    /**
     * Attach an observability recorder (may be null). Hooks are
     * guarded by one branch on this pointer and observation never
     * feeds back into timing.
     */
    void setRecorder(obs::Recorder *recorder)
    {
        _recorder = recorder;
    }
    obs::Recorder *recorder() const { return _recorder; }

    /** Run until every spawned thread has finished. */
    void run();

    /// @name Introspection (valid during and after run()).
    /// @{
    int numThreads() const { return (int)_threads.size(); }
    Cycle timeOf(ThreadId tid) const;
    CpuId cpuOf(ThreadId tid) const;
    bool done(ThreadId tid) const;
    bool blocked(ThreadId tid) const;
    const ThreadStats &statsOf(ThreadId tid) const;
    /** Completion time of the whole run (max thread finish time). */
    Cycle finishTime() const { return _finishTime; }
    std::uint64_t totalRefs() const { return _totalRefs; }
    std::uint64_t totalInstructions() const;
    const EngineOptions &options() const { return _options; }
    Arena &arena() { return *_arena; }
    /// @}

    /// @name Policy/scheduler hooks (not for workload code).
    /// @{
    void blockThread(ThreadId tid);
    void wakeThread(ThreadId tid, Cycle atTime);
    void bindCpu(ThreadId tid, CpuId cpu);
    void setTime(ThreadId tid, Cycle time);
    /// @}

  private:
    friend class ThreadCtx;

    enum class State { Ready, Blocked, Done };

    /**
     * One deferred transactional host write. Speculative values
     * live here — never in host memory — until commit, so an abort
     * discards them by clearing the log and other threads reading
     * host memory always see committed state (isolation).
     */
    struct TxWrite
    {
        void *host;
        unsigned size;
        unsigned char bytes[8];
    };

    /** A thread's speculative context (see ThreadCtx::transaction). */
    struct TxState
    {
        bool inTxn = false;
        std::vector<TxWrite> log;
    };

    struct Thread
    {
        ThreadId tid;
        CpuId cpu;
        Cycle time = 0;
        State state = State::Ready;
        std::uint64_t pendingWork = 0;
        TxState tx;
        ThreadStats stats;
        std::function<void(ThreadCtx &)> fn;
        std::unique_ptr<Fiber> fiber;
    };

    /// @name Called from inside fibers via ThreadCtx.
    /// @{
    void memRef(Thread &t, RefType type, Addr addr);
    void addWork(Thread &t, std::uint64_t instrs);
    void idleThread(Thread &t, Cycle until);
    void acquire(Thread &t, SimLock &lock);
    void release(Thread &t, SimLock &lock);
    void barrier(Thread &t, SimBarrier &bar);
    void yieldThread(Thread &t);
    void transaction(Thread &t, ThreadCtx &ctx, SimLock &fallback,
                     const std::function<void(ThreadCtx &)> &body);
    bool txnForward(Thread &t, const void *host, void *out,
                    std::size_t size);
    bool txnStore(Thread &t, void *host, const void *src,
                  std::size_t size);
    /// @}

    /** Make the speculative log's values architectural (commit). */
    void applyTxLog(Thread &t);

    /** Charge accumulated compute instructions to the clock. */
    void flushWork(Thread &t);

    /** Full fence before a synchronization access (weak ordering). */
    void memFence(Thread &t);

    /** Yield if another runnable thread is too far behind. */
    void maybeYield(Thread &t);

    /** Leaf value of a thread that is not waiting to run. */
    static constexpr std::uint64_t noKey = ~0ull;

    /** @p t's dispatch key; panics if its clock does not fit. */
    std::uint64_t keyOf(const Thread &t) const;

    /** The thread a dispatch key names. */
    Thread &threadOf(std::uint64_t key);

    /** Set @p tid's leaf and replay its path to the root. */
    void setLeaf(ThreadId tid, std::uint64_t key);

    /**
     * Re-key a thread a policy hook or a peer changed. The running
     * thread enters the tree when it hands over; before run() the
     * tree does not exist yet.
     */
    void requeue(const Thread &t);

    /** Make @p t the running thread and open its obs slice. */
    void dispatch(Thread &t);

    Thread &threadRef(ThreadId tid);
    const Thread &threadRef(ThreadId tid) const;

    MemorySystem *_mem;
    Arena *_arena;
    EngineOptions _options;
    SchedulerPolicy *_policy = nullptr;
    obs::Recorder *_recorder = nullptr;
    std::vector<std::unique_ptr<Thread>> _threads;
    Thread *_current = nullptr;
    Cycle _finishTime = 0;
    std::uint64_t _totalRefs = 0;
    bool _running = false;
    /** The running thread's clock when it was dispatched. */
    Cycle _sliceStart = 0;

    /**
     * The dispatch tournament tree, sized by run(): one leaf per
     * thread at _tree[_leaves + tid], and every inner node the min
     * of its two children, so _tree[1] is the minimum. A Ready
     * thread that is not running has the leaf
     * `time << _tidBits | tid`, so comparing keys compares
     * (time, tid), the dispatch tie-break; every other leaf is
     * noKey. The root is therefore both the thread to dispatch next
     * and, while a thread runs, the smallest other Ready clock its
     * per-reference yield test needs.
     */
    std::vector<std::uint64_t> _tree;
    std::size_t _leaves = 0;
    int _tidBits = 0;
    /** Largest clock a key holds at this thread count. */
    Cycle _keyClockLimit = 0;
    /** Threads not yet Done (for the deadlock diagnostic). */
    int _live = 0;
};

/**
 * The per-thread view handed to workload code. All simulation side
 * effects of workload execution go through this class.
 */
class ThreadCtx
{
  public:
    ThreadCtx(Engine &engine, void *thread, ThreadId tid, Arena &arena)
        : _engine(engine), _thread(thread), _tid(tid), _arena(arena)
    {
    }

    /** This thread's id (== starting CpuId for parallel runs). */
    ThreadId tid() const { return _tid; }

    /** The shared arena (for nested allocations inside phases). */
    Arena &arena() { return _arena; }

    /** Simulate a data load of the datum at host pointer @p ptr. */
    void
    load(const void *ptr)
    {
        refHost(RefType::Read, ptr);
    }

    /** Simulate a data store to the datum at host pointer @p ptr. */
    void
    store(void *ptr)
    {
        refHost(RefType::Write, ptr);
    }

    /** Simulate a load of an explicit simulated address. */
    void loadAddr(Addr addr);

    /** Simulate a store to an explicit simulated address. */
    void storeAddr(Addr addr);

    /** Charge @p instrs non-memory instructions of compute. */
    void work(std::uint64_t instrs);

    /** ANL LOCK. */
    void lock(SimLock &l);
    /** ANL UNLOCK. */
    void unlock(SimLock &l);
    /** ANL BARRIER. */
    void barrier(SimBarrier &b);

    /**
     * Execute @p body atomically: as a hardware transaction when
     * the memory system advertises one (--tm={eager,lazy}), with
     * exponential-backoff retry on abort and a fallback to
     * @p fallback after maxAborts attempts; as a plain
     * lock/body/unlock critical section otherwise — which makes
     * the --tm=off run the lock-based baseline the TM figures
     * measure speedup against, through this same call site.
     *
     * Contract: shared data inside @p body goes through
     * Shared::ldTx / Shared::stTx (speculative host values are
     * deferred so aborts roll them back); the body must not
     * synchronize (lock/barrier) and may re-execute after aborts.
     */
    void transaction(SimLock &fallback,
                     const std::function<void(ThreadCtx &)> &body);

    /** True while executing inside an open hardware transaction. */
    bool inTxn() const;

    /// @name Transactional data plumbing used by Shared<T>.
    /// @{
    /** Forward @p size bytes from this txn's write log, if hit. */
    bool txnForward(const void *host, void *out, std::size_t size);
    /** Defer a host write into the log; false when not in a txn. */
    bool txnStore(void *host, const void *src, std::size_t size);
    /// @}

    /** This thread's simulated clock, including uncharged work. */
    Cycle now() const;

    /**
     * Idle until cycle @p until without charging instructions —
     * an open-loop workload waiting for its next arrival. No-op
     * when @p until is not in the future.
     */
    void idleUntil(Cycle until);

    /** Voluntarily yield to the scheduler (rarely needed). */
    void yield();

  private:
    void refHost(RefType type, const void *ptr);

    Engine &_engine;
    void *_thread;
    ThreadId _tid;
    Arena &_arena;
};

/**
 * A shared scalar whose every access is simulated. Keeps the same
 * size/alignment as T so arrays of Shared<T> index like arrays of T
 * in the cache.
 */
template <typename T>
class Shared
{
  public:
    Shared() = default;

    /** Simulated load. */
    T
    ld(ThreadCtx &ctx) const
    {
        ctx.load(&_value);
        return _value;
    }

    /** Simulated store. */
    void
    st(ThreadCtx &ctx, const T &v)
    {
        _value = v;
        ctx.store(&_value);
    }

    /** Read-modify-write convenience (two references). */
    template <typename Fn>
    T
    rmw(ThreadCtx &ctx, Fn fn)
    {
        T v = ld(ctx);
        v = fn(v);
        st(ctx, v);
        return v;
    }

    /**
     * Transactional load: inside a transaction, forwards this
     * txn's own deferred value when one exists (no simulated
     * traffic — the word is write-set protected), else performs a
     * transactional read of the committed value. Outside a
     * transaction it is exactly ld().
     */
    T
    ldTx(ThreadCtx &ctx) const
    {
        T v{};
        if (ctx.txnForward(&_value, &v, sizeof(T)))
            return v;
        ctx.load(&_value);
        return _value;
    }

    /**
     * Transactional store: inside a transaction the host value is
     * deferred into the txn's write log (applied at commit,
     * discarded on abort) while the simulated store grows the
     * speculative write set. Outside a transaction it is st().
     */
    void
    stTx(ThreadCtx &ctx, const T &v)
    {
        if (!ctx.txnStore(&_value, &v, sizeof(T)))
            _value = v;
        ctx.store(&_value);
    }

    /** Host-side access for setup/verification (not simulated). */
    T &raw() { return _value; }
    const T &raw() const { return _value; }

  private:
    T _value{};
};

/**
 * A lock-protected monotone task counter — the ANL GSS/GETSUB
 * self-scheduling idiom used by the SPLASH codes.
 */
class TaskCounter
{
  public:
    TaskCounter(Arena &arena, std::int64_t limit)
        : _lock(arena), _next(arena.alloc<Shared<std::int64_t>>()),
          _limit(limit)
    {
    }

    /**
     * Claim the next task index.
     * @return the claimed index, or -1 when exhausted.
     */
    std::int64_t
    next(ThreadCtx &ctx)
    {
        return nextChunk(ctx, 1);
    }

    /**
     * Claim a chunk of @p chunk consecutive task indices.
     * @return the first claimed index, or -1 when exhausted. The
     *         caller owns [first, min(first + chunk, limit)).
     */
    std::int64_t
    nextChunk(ThreadCtx &ctx, std::int64_t chunk)
    {
        ctx.lock(_lock);
        std::int64_t v = _next->ld(ctx);
        if (v < _limit)
            _next->st(ctx, v + chunk);
        ctx.unlock(_lock);
        return v < _limit ? v : -1;
    }

    /** Upper bound for indices claimed via next()/nextChunk(). */
    std::int64_t limit() const { return _limit; }

    /** Reset for the next phase (call from one thread only). */
    void
    reset(ThreadCtx &ctx, std::int64_t limit)
    {
        _next->st(ctx, 0);
        _limit = limit;
    }

  private:
    SimLock _lock;
    Shared<std::int64_t> *_next;
    std::int64_t _limit;
};

} // namespace scmp

#endif // SCMP_EXEC_ENGINE_HH
