#include "fiber.hh"

#include <cstdint>
#include <cstring>

#include "sim/logging.hh"

// AddressSanitizer knows one stack per thread. Unless every switch
// is announced, a throw on a fiber stack (the TM abort unwind)
// leaves the frames it abandons poisoned, and a later frame reads
// as a stack-buffer-overflow. Other builds compile the calls out.
#if defined(__SANITIZE_ADDRESS__)
#define SCMP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCMP_ASAN_FIBERS 1
#endif
#endif
#ifdef SCMP_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#define SCMP_START_SWITCH __sanitizer_start_switch_fiber
#define SCMP_FINISH_SWITCH __sanitizer_finish_switch_fiber
#else
#define SCMP_START_SWITCH(fakeStack, bottom, bytes) (void)(fakeStack)
#define SCMP_FINISH_SWITCH(fakeStack, bottom, bytes) (void)(fakeStack)
#endif

#ifndef SCMP_FIBER_UCONTEXT
extern "C" void scmpFiberSwitch(void **saveSp, void *newSp);
extern "C" void scmpFiberEntryThunk();
extern "C" void
scmpFiberEntry(scmp::Fiber *self)
{
    // Runs on the fiber's own stack; never returns.
    scmp::Fiber::trampolineEntry(self);
}
#endif

namespace scmp
{

namespace
{
thread_local Fiber *currentFiber = nullptr;

#ifdef SCMP_FIBER_UCONTEXT
void
ucontextTrampoline(unsigned hi, unsigned lo)
{
    auto ptr = ((std::uintptr_t)hi << 32) | (std::uintptr_t)lo;
    Fiber::trampolineEntry((Fiber *)ptr);
}
#endif
} // namespace

Fiber *
Fiber::current()
{
    return currentFiber;
}

Fiber::Fiber(std::function<void()> fn, std::size_t stackBytes)
    : _fn(std::move(fn)),
      _stack(new char[stackBytes]),
      _stackBytes(stackBytes)
{
    panic_if(stackBytes < 16 * 1024, "fiber stack too small");
#ifdef SCMP_FIBER_UCONTEXT
    // No uc_link: the body never returns, trampolineEntry yields
    // to its caller forever once the fiber's function is done.
    getcontext(&_context);
    _context.uc_stack.ss_sp = _stack.get();
    _context.uc_stack.ss_size = _stackBytes;
    _context.uc_link = nullptr;
    auto ptr = (std::uintptr_t)this;
    makecontext(&_context, (void (*)())ucontextTrampoline, 2,
                (unsigned)(ptr >> 32), (unsigned)ptr);
#else
    // Carve the initial switch frame at the top of the stack:
    //   [r15 r14 r13 r12 rbx rbp] [thunk return address]
    // with r12 = this so the thunk can find us. Keep the stack
    // 16-byte aligned; the thunk re-aligns before its call anyway.
    auto top = (std::uintptr_t)(_stack.get() + stackBytes);
    top &= ~(std::uintptr_t)15;
    auto *slots = (std::uint64_t *)top;
    slots -= 7;
    slots[0] = 0;                                // r15
    slots[1] = 0;                                // r14
    slots[2] = 0;                                // r13
    slots[3] = (std::uint64_t)this;              // r12
    slots[4] = 0;                                // rbx
    slots[5] = 0;                                // rbp
    slots[6] = (std::uint64_t)&scmpFiberEntryThunk;
    _sp = slots;
#endif
}

Fiber::~Fiber()
{
    // Destroying a suspended fiber simply frees its stack; the
    // fiber body's destructors do not run. Engine threads always
    // run to completion, so this path only matters for tests and
    // microbenchmarks that abandon a fiber mid-flight.
    panic_if(Fiber::current() == this,
             "a fiber cannot destroy itself");
}

void
Fiber::trampolineEntry(Fiber *self)
{
    self->landed(nullptr);
    self->_fn();
    self->_finished = true;
    // Return control to the caller forever; resuming again panics
    // before ever reaching this loop.
    for (;;)
        yieldToCaller();
}

void
Fiber::landed(void *fakeStack)
{
    // Entered from resume(), the stack switched from is the
    // caller's. Entered from switchTo(), it is the previous fiber's,
    // and the caller's stack came with the handoff.
    if (_callerStack)
        SCMP_FINISH_SWITCH(fakeStack, nullptr, nullptr);
    else
        SCMP_FINISH_SWITCH(fakeStack, &_callerStack, &_callerStackBytes);
}

void
Fiber::resume()
{
    panic_if(_finished, "resuming a finished fiber");
    panic_if(currentFiber == this, "fiber resuming itself");
    Fiber *previous = currentFiber;
    currentFiber = this;
    _callerStack = nullptr;
    void *fakeStack = nullptr;
    SCMP_START_SWITCH(&fakeStack, _stack.get(), _stackBytes);
    enter();
    SCMP_FINISH_SWITCH(fakeStack, nullptr, nullptr);
    currentFiber = previous;
}

void
Fiber::switchTo(Fiber &next)
{
    Fiber *self = currentFiber;
    panic_if(!self, "switchTo outside any fiber");
    panic_if(&next == self, "fiber switching to itself");
    panic_if(next._finished, "switching into a finished fiber");
    next._callerStack = self->_callerStack;
    next._callerStackBytes = self->_callerStackBytes;
    currentFiber = &next;
    void *fakeStack = nullptr;
    SCMP_START_SWITCH(&fakeStack, next._stack.get(), next._stackBytes);
    self->handOff(next);
    self->landed(fakeStack);
}

void
Fiber::yieldToCaller()
{
    Fiber *self = currentFiber;
    panic_if(!self, "yieldToCaller outside any fiber");
    void *fakeStack = nullptr;
    SCMP_START_SWITCH(&fakeStack, self->_callerStack,
                      self->_callerStackBytes);
    self->leave();
    self->landed(fakeStack);
}

#ifdef SCMP_FIBER_UCONTEXT

void
Fiber::enter()
{
    ucontext_t caller;
    _caller = &caller;
    swapcontext(&caller, &_context);
}

void
Fiber::leave()
{
    swapcontext(&_context, _caller);
}

void
Fiber::handOff(Fiber &next)
{
    next._caller = _caller;
    swapcontext(&_context, &next._context);
}

#else // x86-64 fast path

void
Fiber::enter()
{
    scmpFiberSwitch(&_callerSp, _sp);
}

void
Fiber::leave()
{
    scmpFiberSwitch(&_sp, _callerSp);
}

void
Fiber::handOff(Fiber &next)
{
    next._callerSp = _callerSp;
    scmpFiberSwitch(&_sp, next._sp);
}

#endif

} // namespace scmp
