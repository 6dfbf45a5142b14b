/**
 * @file
 * Stackful cooperative fibers.
 *
 * The direct-execution engine runs each simulated processor's
 * workload code on its own fiber and switches between them at
 * memory-reference granularity, so the switch must be cheap. On
 * x86-64 we use a ~15-instruction assembly switch that saves only
 * the System-V callee-saved registers; elsewhere we fall back to
 * POSIX ucontext.
 */

#ifndef SCMP_EXEC_FIBER_HH
#define SCMP_EXEC_FIBER_HH

#include <cstddef>
#include <functional>
#include <memory>

#if !defined(__x86_64__)
#include <ucontext.h>
#define SCMP_FIBER_UCONTEXT 1
#endif

namespace scmp
{

/**
 * A fiber with its own stack. Fibers form a simple two-party
 * protocol with their creator: resume() transfers control into the
 * fiber, Fiber::yieldToCaller() transfers control back. A fiber
 * whose function returns becomes finished(); resuming a finished
 * fiber is a simulator bug.
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

    /** Switch from inside the currently-running fiber back out. */
    static void yieldToCaller();

    /** @return true once the fiber body has returned. */
    bool finished() const { return _finished; }

    /** @return the fiber currently executing, or nullptr. */
    static Fiber *current();

    /** Internal: first frame on a new fiber's stack. Not API. */
    static void trampolineEntry(Fiber *self);

  private:

    std::function<void()> _fn;
    std::unique_ptr<char[]> _stack;
    std::size_t _stackBytes;
    bool _started = false;
    bool _finished = false;

#ifdef SCMP_FIBER_UCONTEXT
    ucontext_t _context;
    ucontext_t _callerContext;
#else
    void *_sp = nullptr;        //!< fiber's saved stack pointer
    void *_callerSp = nullptr;  //!< caller's saved stack pointer
#endif

    /// The caller's stack, for AddressSanitizer builds (fiber.cc).
    const void *_callerStack = nullptr;
    std::size_t _callerStackBytes = 0;
};

} // namespace scmp

#endif // SCMP_EXEC_FIBER_HH
