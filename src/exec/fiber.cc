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
    // Deferred to first resume(); nothing to do here.
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
    SCMP_FINISH_SWITCH(nullptr, &self->_callerStack,
                       &self->_callerStackBytes);
    self->_fn();
    self->_finished = true;
    // Return control to the caller forever; resuming again panics
    // before ever reaching this loop.
    for (;;)
        yieldToCaller();
}

#ifdef SCMP_FIBER_UCONTEXT

namespace
{
void
ucontextTrampoline(unsigned hi, unsigned lo)
{
    auto ptr = ((std::uintptr_t)hi << 32) | (std::uintptr_t)lo;
    Fiber::trampolineEntry((Fiber *)ptr);
}
} // namespace

void
Fiber::resume()
{
    panic_if(_finished, "resuming a finished fiber");
    panic_if(currentFiber == this, "fiber resuming itself");
    Fiber *previous = currentFiber;
    currentFiber = this;
    if (!_started) {
        _started = true;
        getcontext(&_context);
        _context.uc_stack.ss_sp = _stack.get();
        _context.uc_stack.ss_size = _stackBytes;
        _context.uc_link = &_callerContext;
        auto ptr = (std::uintptr_t)this;
        makecontext(&_context, (void (*)())ucontextTrampoline, 2,
                    (unsigned)(ptr >> 32), (unsigned)ptr);
    }
    void *fakeStack = nullptr;
    SCMP_START_SWITCH(&fakeStack, _stack.get(), _stackBytes);
    swapcontext(&_callerContext, &_context);
    SCMP_FINISH_SWITCH(fakeStack, nullptr, nullptr);
    currentFiber = previous;
}

void
Fiber::yieldToCaller()
{
    Fiber *self = currentFiber;
    panic_if(!self, "yieldToCaller outside any fiber");
    void *fakeStack = nullptr;
    SCMP_START_SWITCH(&fakeStack, self->_callerStack,
                      self->_callerStackBytes);
    swapcontext(&self->_context, &self->_callerContext);
    SCMP_FINISH_SWITCH(fakeStack, &self->_callerStack,
                       &self->_callerStackBytes);
}

#else // x86-64 fast path

void
Fiber::resume()
{
    panic_if(_finished, "resuming a finished fiber");
    panic_if(currentFiber == this, "fiber resuming itself");
    Fiber *previous = currentFiber;
    currentFiber = this;
    _started = true;
    void *fakeStack = nullptr;
    SCMP_START_SWITCH(&fakeStack, _stack.get(), _stackBytes);
    scmpFiberSwitch(&_callerSp, _sp);
    SCMP_FINISH_SWITCH(fakeStack, nullptr, nullptr);
    currentFiber = previous;
}

void
Fiber::yieldToCaller()
{
    Fiber *self = currentFiber;
    panic_if(!self, "yieldToCaller outside any fiber");
    void *fakeStack = nullptr;
    SCMP_START_SWITCH(&fakeStack, self->_callerStack,
                      self->_callerStackBytes);
    scmpFiberSwitch(&self->_sp, self->_callerSp);
    SCMP_FINISH_SWITCH(fakeStack, &self->_callerStack,
                       &self->_callerStackBytes);
}

#endif

} // namespace scmp
