#include "engine.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/recorder.hh"
#include "sim/debug.hh"

namespace scmp
{

namespace
{

/**
 * Thrown by the engine when a doomed transaction is detected and
 * caught by Engine::transaction's retry loop on the same fiber
 * stack — the unwind IS the rollback to the tm_begin checkpoint:
 * the body's locals die with the stack frames, the deferred host
 * writes are discarded, and the loop re-runs the body.
 */
struct TmAbortUnwind
{
};

} // namespace

Engine::Engine(MemorySystem *mem, Arena *arena, EngineOptions options)
    : _mem(mem), _arena(arena), _options(options)
{
    panic_if(!mem, "engine needs a memory system");
    panic_if(!arena, "engine needs an arena");
}

Engine::~Engine() = default;

ThreadId
Engine::spawn(CpuId cpu, std::function<void(ThreadCtx &)> fn)
{
    panic_if(_running, "spawn while the engine is running");
    auto thread = std::make_unique<Thread>();
    Thread *t = thread.get();
    t->tid = (ThreadId)_threads.size();
    t->cpu = cpu;
    t->fn = std::move(fn);
    t->fiber = std::make_unique<Fiber>(
        [this, t]() {
            ThreadCtx ctx(*this, t, t->tid, *_arena);
            t->fn(ctx);
        },
        _options.stackBytes);
    _threads.push_back(std::move(thread));
    return t->tid;
}

Engine::Thread &
Engine::threadRef(ThreadId tid)
{
    panic_if(tid < 0 || tid >= (ThreadId)_threads.size(),
             "bad thread id ", tid);
    return *_threads[(std::size_t)tid];
}

const Engine::Thread &
Engine::threadRef(ThreadId tid) const
{
    panic_if(tid < 0 || tid >= (ThreadId)_threads.size(),
             "bad thread id ", tid);
    return *_threads[(std::size_t)tid];
}

Cycle
Engine::timeOf(ThreadId tid) const
{
    return threadRef(tid).time;
}

CpuId
Engine::cpuOf(ThreadId tid) const
{
    return threadRef(tid).cpu;
}

bool
Engine::done(ThreadId tid) const
{
    return threadRef(tid).state == State::Done;
}

bool
Engine::blocked(ThreadId tid) const
{
    return threadRef(tid).state == State::Blocked;
}

const ThreadStats &
Engine::statsOf(ThreadId tid) const
{
    return threadRef(tid).stats;
}

std::uint64_t
Engine::totalInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &t : _threads)
        total += t->stats.instructions;
    return total;
}

void
Engine::blockThread(ThreadId tid)
{
    Thread &t = threadRef(tid);
    panic_if(t.state == State::Done, "blocking a finished thread");
    t.state = State::Blocked;
    requeue(t);
}

void
Engine::wakeThread(ThreadId tid, Cycle atTime)
{
    Thread &t = threadRef(tid);
    panic_if(t.state == State::Done, "waking a finished thread");
    t.state = State::Ready;
    t.time = std::max(t.time, atTime);
    requeue(t);
}

void
Engine::bindCpu(ThreadId tid, CpuId cpu)
{
    threadRef(tid).cpu = cpu;
}

void
Engine::setTime(ThreadId tid, Cycle time)
{
    Thread &t = threadRef(tid);
    t.time = time;
    requeue(t);
}

std::uint64_t
Engine::keyOf(const Thread &t) const
{
    panic_if(t.time > _keyClockLimit, "thread ", t.tid, " clock ",
             t.time, " exceeds the dispatch key limit of ",
             _keyClockLimit, " cycles at ", _threads.size(),
             " threads");
    return t.time << _tidBits | (std::uint64_t)t.tid;
}

Engine::Thread &
Engine::threadOf(std::uint64_t key)
{
    return *_threads[(std::size_t)(key & ((1ull << _tidBits) - 1))];
}

void
Engine::setLeaf(ThreadId tid, std::uint64_t key)
{
    // key stays the minimum of the subtree rooted at node.
    std::size_t node = _leaves + (std::size_t)tid;
    _tree[node] = key;
    for (; node > 1; node >>= 1) {
        key = std::min(key, _tree[node ^ 1]);
        _tree[node >> 1] = key;
    }
}

void
Engine::requeue(const Thread &t)
{
    if (_running && &t != _current)
        setLeaf(t.tid, t.state == State::Ready ? keyOf(t) : noKey);
}

void
Engine::dispatch(Thread &t)
{
    setLeaf(t.tid, noKey);
    _current = &t;
    _sliceStart = t.time;
    if (_recorder)
        _recorder->tick(t.time);
}

void
Engine::run()
{
    panic_if(_running, "engine.run() is not re-entrant");
    panic_if(_threads.empty(), "engine.run() with no threads");
    _running = true;

    // Build the tree from scratch: thread ids take the low bits of
    // a key, clocks the rest.
    auto threads = (std::uint64_t)_threads.size();
    _tidBits = std::bit_width(threads - 1);
    _keyClockLimit = (noKey >> _tidBits) - 1;
    _leaves = std::bit_ceil(threads);
    _tree.assign(2 * _leaves, noKey);
    _live = 0;
    for (const auto &t : _threads) {
        if (t->state == State::Done)
            continue;
        ++_live;
        if (t->state == State::Ready)
            setLeaf(t->tid, keyOf(*t));
    }

    if (_policy)
        _policy->onStart(*this);

    // Each resume() starts a chain of direct handoffs between
    // fibers (yieldThread). Control comes back here only when the
    // running thread finishes, or blocks with nobody runnable.
    while (_tree[1] != noKey) {
        dispatch(threadOf(_tree[1]));
        _current->fiber->resume();
        Thread &last = *_current;
        _current = nullptr;

        if (last.fiber->finished()) {
            DPRINTF(Exec, "thread ", last.tid, " finished @",
                    last.time);
            last.state = State::Done;
            --_live;
            flushWork(last);
            // A finishing thread drains its store buffer so its
            // last writes are globally performed by finishTime
            // (no-op under sequential consistency).
            last.time = _mem->fence(last.cpu, last.time);
            last.stats.finishTime = last.time;
            _finishTime = std::max(_finishTime, last.time);
            if (_policy)
                _policy->onThreadDone(*this, last.tid);
        }
        if (_recorder)
            _recorder->threadSlice(last.tid, _sliceStart, last.time);
    }
    panic_if(_live > 0, "deadlock: live threads but none runnable");
    _running = false;
}

void
Engine::flushWork(Thread &t)
{
    if (t.pendingWork) {
        t.time += t.pendingWork;
        t.stats.instructions += t.pendingWork;
        t.pendingWork = 0;
    }
}

void
Engine::maybeYield(Thread &t)
{
    std::uint64_t other = _tree[1];
    if (other == noKey)
        return;
    if ((CycleDelta)(t.time - (other >> _tidBits)) > _options.slackWindow)
        yieldThread(t);
}

void
Engine::yieldThread(Thread &t)
{
    panic_if(_current != &t, "yield from a non-current thread");
    std::uint64_t next = _tree[1];
    if (t.state == State::Ready) {
        // If this thread is still the dispatch minimum the
        // dispatcher would pick it again, so continuing inline is
        // indistinguishable from handing over and being re-picked.
        std::uint64_t key = keyOf(t);
        if (key < next)
            return;
        setLeaf(t.tid, key);
    } else if (next == noKey) {
        // Blocked with nobody runnable: back to run(), which
        // reports the deadlock.
        Fiber::yieldToCaller();
        return;
    }
    if (_recorder)
        _recorder->threadSlice(t.tid, _sliceStart, t.time);
    dispatch(threadOf(next));
    Fiber::switchTo(*_current->fiber);
}

void
Engine::memRef(Thread &t, RefType type, Addr addr)
{
    flushWork(t);
    // The memory instruction itself issues in one cycle.
    t.time += 1;
    t.stats.instructions += 1;
    std::uint32_t gap = 1;
    if (type == RefType::Read)
        ++t.stats.loads;
    else if (type == RefType::Write)
        ++t.stats.stores;
    ++_totalRefs;

    Cycle issue = t.time;
    Cycle done = _mem->access(t.cpu, type, addr, issue, gap);
    panic_if(done < issue, "memory system completed in the past");
    t.time = done;

    if (_policy)
        _policy->afterRef(*this, t.tid);

    // A long stall hands over to whichever thread is now the
    // minimum; otherwise only a thread fallen behind the slack
    // window takes over.
    if (t.state == State::Blocked ||
        (CycleDelta)(done - issue) > _options.yieldLatency) {
        yieldThread(t);
    } else {
        maybeYield(t);
    }

    // Poll after the yield so a doom inflicted while this thread
    // was descheduled (a peer's conflict resolution or commit
    // publication) unwinds at the very next reference.
    if (t.tx.inTxn && _mem->tmPoll(t.cpu))
        throw TmAbortUnwind{};
}

void
Engine::addWork(Thread &t, std::uint64_t instrs)
{
    t.pendingWork += instrs;
}

void
Engine::idleThread(Thread &t, Cycle until)
{
    flushWork(t);
    if (until <= t.time)
        return;
    Cycle from = t.time;
    t.time = until;
    // Same rescheduling rule as a memory stall: a long idle lets
    // the threads that fell behind run; a short one only yields
    // when someone has dropped out of the slack window.
    if ((CycleDelta)(until - from) > _options.yieldLatency)
        yieldThread(t);
    else
        maybeYield(t);
}

void
Engine::memFence(Thread &t)
{
    // Synchronization accesses are strongly ordered: every store
    // the thread issued before this point must be globally
    // performed before the sync reference itself may issue. Under
    // sequential consistency the memory system's fence is a no-op
    // returning `now`, so this costs nothing and changes nothing.
    flushWork(t);
    Cycle done = _mem->fence(t.cpu, t.time);
    panic_if(done < t.time, "memory system fenced in the past");
    t.time = done;
}

void
Engine::acquire(Thread &t, SimLock &lock)
{
    panic_if(t.tx.inTxn, "lock() inside a transaction");
    memFence(t);
    // Model the test of the lock word.
    memRef(t, RefType::Read, lock._addr);
    if (lock._holder < 0) {
        lock._holder = t.tid;
        memRef(t, RefType::Write, lock._addr);
        // The taken-store is itself a sync access: drain it now so
        // it is globally performed before the critical section
        // runs, not whenever the buffer next gets around to it.
        memFence(t);
        return;
    }
    // Contended: sleep until the releaser hands the lock over.
    lock._waiters.push_back(t.tid);
    t.state = State::Blocked;
    yieldThread(t);
    panic_if(lock._holder != t.tid,
             "woke from lock wait without ownership");
    memRef(t, RefType::Write, lock._addr);
    memFence(t);
}

void
Engine::release(Thread &t, SimLock &lock)
{
    panic_if(t.tx.inTxn, "unlock() inside a transaction");
    panic_if(lock._holder != t.tid,
             "thread ", t.tid, " releasing a lock it does not hold");
    memFence(t);
    memRef(t, RefType::Write, lock._addr);
    // Drain the unlock store immediately: a buffered release would
    // stretch every lock hold by the drain lag and convoy the
    // waiters behind it.
    memFence(t);
    if (lock._waiters.empty()) {
        lock._holder = -1;
        return;
    }
    ThreadId heir = lock._waiters.front();
    lock._waiters.pop_front();
    lock._holder = heir;
    wakeThread(heir, t.time);
}

void
Engine::barrier(Thread &t, SimBarrier &bar)
{
    panic_if(t.tx.inTxn, "barrier() inside a transaction");
    memFence(t);
    // Arrival updates the barrier counter (read + write traffic),
    // and the arrival store is itself strongly ordered.
    memRef(t, RefType::Read, bar._addr);
    memRef(t, RefType::Write, bar._addr);
    memFence(t);
    bar._latestArrival = std::max(bar._latestArrival, t.time);

    if (++bar._arrived < bar._expected) {
        Cycle arrive = t.time;
        bar._waiters.push_back(t.tid);
        t.state = State::Blocked;
        yieldThread(t);
        // Resumed at the release time; the wait spans the gap.
        if (_recorder)
            _recorder->barrierWait(t.tid, arrive, t.time);
        return;
    }

    // Last arrival releases everyone.
    Cycle releaseTime =
        bar._latestArrival + _options.barrierOverhead;
    if (_recorder)
        _recorder->barrierRelease(releaseTime, bar._expected);
    for (ThreadId waiter : bar._waiters)
        wakeThread(waiter, releaseTime);
    bar._waiters.clear();
    bar._arrived = 0;
    bar._latestArrival = 0;
    t.time = std::max(t.time, releaseTime);
    maybeYield(t);
}

void
Engine::transaction(Thread &t, ThreadCtx &ctx, SimLock &fallback,
                    const std::function<void(ThreadCtx &)> &body)
{
    panic_if(t.tx.inTxn, "nested transactions are not supported");
    TmPolicy policy = _mem->tmPolicy();
    if (!policy.enabled) {
        // No HTM: an ordinary critical section — and the measured
        // lock-based baseline for the TM figures.
        acquire(t, fallback);
        body(ctx);
        release(t, fallback);
        return;
    }

    int attempts = 0;
    for (;;) {
        flushWork(t);
        t.time = _mem->tmBegin(t.cpu, t.time);
        t.tx.inTxn = true;
        t.tx.log.clear();
        bool committed = false;
        try {
            // Subscribe to the fallback lock (the TSX idiom): the
            // read enters this transaction's read set, so a
            // fallback acquirer's non-transactional writes to the
            // lock word doom every speculating peer — mutual
            // exclusion between the lock path and every
            // transaction, with no extra machinery.
            memRef(t, RefType::Read, fallback._addr);
            if (fallback._holder >= 0)
                throw TmAbortUnwind{};
            body(ctx);
            flushWork(t);
            t.time = _mem->tmCommit(t.cpu, t.time, &committed);
        } catch (const TmAbortUnwind &) {
            committed = false;
        }
        if (committed) {
            t.tx.inTxn = false;
            applyTxLog(t);
            return;
        }
        t.tx.inTxn = false;
        t.tx.log.clear();
        t.time = _mem->tmAbort(t.cpu, t.time);
        ++attempts;
        if (attempts >= policy.maxAborts) {
            // Forward-progress guarantee: give up speculating and
            // run under the global lock, whose writes doom every
            // concurrent transaction (see the subscription above).
            _mem->tmFallback(t.cpu);
            acquire(t, fallback);
            body(ctx);
            release(t, fallback);
            return;
        }
        // Deterministic exponential backoff, salted by thread id
        // so colliding retries spread out instead of re-colliding.
        Cycle backoff = policy.backoffBase
                        << std::min(attempts - 1, 10);
        backoff += (Cycle)((std::uint64_t)(t.tid + 1) * 2654435761u %
                           (std::uint64_t)(policy.backoffBase + 1));
        idleThread(t, t.time + backoff);
    }
}

void
Engine::applyTxLog(Thread &t)
{
    for (const TxWrite &w : t.tx.log)
        std::memcpy(w.host, w.bytes, w.size);
    t.tx.log.clear();
}

bool
Engine::txnForward(Thread &t, const void *host, void *out,
                   std::size_t size)
{
    if (!t.tx.inTxn)
        return false;
    // Youngest-first, like store-buffer read bypass.
    for (auto it = t.tx.log.rbegin(); it != t.tx.log.rend(); ++it) {
        if (it->host == host && it->size == size) {
            std::memcpy(out, it->bytes, size);
            return true;
        }
    }
    return false;
}

bool
Engine::txnStore(Thread &t, void *host, const void *src,
                 std::size_t size)
{
    if (!t.tx.inTxn)
        return false;
    panic_if(size > sizeof(TxWrite::bytes),
             "transactional store wider than a word");
    for (TxWrite &w : t.tx.log) {
        if (w.host == host && w.size == size) {
            std::memcpy(w.bytes, src, size);
            return true;
        }
    }
    TxWrite w;
    w.host = host;
    w.size = (unsigned)size;
    std::memcpy(w.bytes, src, size);
    t.tx.log.push_back(w);
    return true;
}

void
ThreadCtx::refHost(RefType type, const void *ptr)
{
    _engine.memRef(*(Engine::Thread *)_thread, type,
                   _arena.simAddr(ptr));
}

void
ThreadCtx::loadAddr(Addr addr)
{
    _engine.memRef(*(Engine::Thread *)_thread, RefType::Read, addr);
}

void
ThreadCtx::storeAddr(Addr addr)
{
    _engine.memRef(*(Engine::Thread *)_thread, RefType::Write, addr);
}

void
ThreadCtx::work(std::uint64_t instrs)
{
    _engine.addWork(*(Engine::Thread *)_thread, instrs);
}

void
ThreadCtx::lock(SimLock &l)
{
    _engine.acquire(*(Engine::Thread *)_thread, l);
}

void
ThreadCtx::unlock(SimLock &l)
{
    _engine.release(*(Engine::Thread *)_thread, l);
}

void
ThreadCtx::barrier(SimBarrier &b)
{
    _engine.barrier(*(Engine::Thread *)_thread, b);
}

void
ThreadCtx::transaction(SimLock &fallback,
                       const std::function<void(ThreadCtx &)> &body)
{
    _engine.transaction(*(Engine::Thread *)_thread, *this, fallback,
                        body);
}

bool
ThreadCtx::inTxn() const
{
    return ((const Engine::Thread *)_thread)->tx.inTxn;
}

bool
ThreadCtx::txnForward(const void *host, void *out, std::size_t size)
{
    return _engine.txnForward(*(Engine::Thread *)_thread, host, out,
                              size);
}

bool
ThreadCtx::txnStore(void *host, const void *src, std::size_t size)
{
    return _engine.txnStore(*(Engine::Thread *)_thread, host, src,
                            size);
}

Cycle
ThreadCtx::now() const
{
    const Engine::Thread &t = *(const Engine::Thread *)_thread;
    return t.time + t.pendingWork;
}

void
ThreadCtx::idleUntil(Cycle until)
{
    _engine.idleThread(*(Engine::Thread *)_thread, until);
}

void
ThreadCtx::yield()
{
    Engine::Thread &t = *(Engine::Thread *)_thread;
    _engine.flushWork(t);
    _engine.yieldThread(t);
}

} // namespace scmp
