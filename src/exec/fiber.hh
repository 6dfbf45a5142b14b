/**
 * @file
 * Stackful cooperative fibers.
 *
 * The direct-execution engine runs each simulated processor's
 * workload code on its own fiber and switches between them at
 * memory-reference granularity, so the switch must be cheap. On
 * x86-64 we use a ~15-instruction assembly switch that saves only
 * the System-V callee-saved registers; elsewhere, or when the build
 * predefines SCMP_FIBER_UCONTEXT, we fall back to POSIX ucontext.
 */

#ifndef SCMP_EXEC_FIBER_HH
#define SCMP_EXEC_FIBER_HH

#include <cstddef>
#include <functional>
#include <memory>

#if !defined(__x86_64__) && !defined(SCMP_FIBER_UCONTEXT)
#define SCMP_FIBER_UCONTEXT 1
#endif
#ifdef SCMP_FIBER_UCONTEXT
#include <ucontext.h>
#endif

namespace scmp
{

/**
 * A fiber with its own stack. resume() transfers control from its
 * caller into the fiber and starts a chain: the running fiber may
 * hand control straight to another with switchTo(), and the fiber
 * switched to inherits the resumer as its own caller. Whichever
 * fiber of the chain calls yieldToCaller() returns control to that
 * resumer. A fiber whose function returns becomes finished() and
 * yields to its caller; resuming or switching into a finished fiber
 * is a simulator bug.
 */
class Fiber
{
  public:
    /**
     * @param fn         Body to run on the fiber.
     * @param stackBytes Stack size; must cover the workload's
     *                   deepest recursion (octree traversals).
     */
    explicit Fiber(std::function<void()> fn,
                   std::size_t stackBytes = 512 * 1024);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Switch from the caller into this fiber. */
    void resume();

    /**
     * Switch from the currently-running fiber straight into
     * @p next, which takes over the running fiber's caller.
     */
    static void switchTo(Fiber &next);

    /** Switch from inside the currently-running fiber back out. */
    static void yieldToCaller();

    /** @return true once the fiber body has returned. */
    bool finished() const { return _finished; }

    /** @return the fiber currently executing, or nullptr. */
    static Fiber *current();

    /** Internal: first frame on a new fiber's stack. Not API. */
    static void trampolineEntry(Fiber *self);

  private:
    /// @name The raw switches, one set per backend (fiber.cc).
    /// @{
    /** From the caller into this fiber. */
    void enter();
    /** From this fiber out to its caller. */
    void leave();
    /** From this fiber into @p next, which inherits the caller. */
    void handOff(Fiber &next);
    /// @}

    /** After a switch into this fiber (AddressSanitizer). */
    void landed(void *fakeStack);

    std::function<void()> _fn;
    std::unique_ptr<char[]> _stack;
    std::size_t _stackBytes;
    bool _finished = false;

#ifdef SCMP_FIBER_UCONTEXT
    ucontext_t _context;
    /**
     * The caller's context, in its resume() frame. Handed down a
     * switchTo() chain by pointer: glibc's x86-64 ucontext_t points
     * into itself for the FP state, so a copy is unsafe.
     */
    ucontext_t *_caller = nullptr;
#else
    void *_sp = nullptr;        //!< fiber's saved stack pointer
    void *_callerSp = nullptr;  //!< caller's saved stack pointer
#endif

    /**
     * The caller's stack, for AddressSanitizer builds (fiber.cc).
     * Null after resume() until the fiber lands and learns it;
     * inherited through switchTo().
     */
    const void *_callerStack = nullptr;
    std::size_t _callerStackBytes = 0;
};

} // namespace scmp

#endif // SCMP_EXEC_FIBER_HH
