#include "scheduler.hh"

#include "obs/recorder.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace scmp
{

RoundRobinPolicy::RoundRobinPolicy(
    Machine &machine, const std::vector<spec::SpecApp *> &apps,
    const MultiprogParams &params, int cpus)
    : _machine(machine), _apps(apps), _params(params), _cpus(cpus),
      _quantumStart(apps.size(), 0),
      _running((std::size_t)cpus, -1)
{
    fatal_if(cpus <= 0, "multiprogramming needs processors");
    fatal_if(apps.empty(), "multiprogramming needs processes");
}

void
RoundRobinPolicy::onStart(Engine &engine)
{
    int n = engine.numThreads();
    panic_if(n != (int)_apps.size(),
             "one thread per process expected");

    // First _cpus processes start running; the rest queue up.
    for (ThreadId tid = 0; tid < n; ++tid) {
        if (tid < _cpus) {
            _running[(std::size_t)tid] = tid;
            _quantumStart[(std::size_t)tid] = 0;
            engine.bindCpu(tid, tid);
            _machine.setIStream(
                tid,
                _params.codeBase +
                    (Addr)tid * (64ull << 20),
                _apps[(std::size_t)tid]->codeBytes());
        } else {
            engine.blockThread(tid);
            _readyQueue.push_back(tid);
        }
    }
}

bool
RoundRobinPolicy::shouldStop(const Engine &engine) const
{
    return engine.totalRefs() >= _params.totalRefs;
}

void
RoundRobinPolicy::afterRef(Engine &engine, ThreadId tid)
{
    Cycle now = engine.timeOf(tid);
    if (now - _quantumStart[(std::size_t)tid] < _params.quantum)
        return;

    if (_readyQueue.empty()) {
        // Nobody waiting; let the process keep its processor.
        _quantumStart[(std::size_t)tid] = now;
        return;
    }

    // Quantum expired: preempt onto the back of the queue.
    CpuId cpu = engine.cpuOf(tid);
    engine.blockThread(tid);
    _readyQueue.push_back(tid);
    dispatch(engine, cpu, now);
}

void
RoundRobinPolicy::onThreadDone(Engine &engine, ThreadId tid)
{
    CpuId cpu = engine.cpuOf(tid);
    if (_running[(std::size_t)cpu] != tid)
        return;  // already displaced
    dispatch(engine, cpu, engine.timeOf(tid));
}

void
RoundRobinPolicy::dispatch(Engine &engine, CpuId cpu, Cycle when)
{
    while (!_readyQueue.empty()) {
        ThreadId next = _readyQueue.front();
        _readyQueue.pop_front();
        if (engine.done(next))
            continue;
        // The OS drains the outgoing processor's store buffer on a
        // context switch, so the incoming process never runs ahead
        // of its predecessor's unperformed stores (no-op under
        // sequential consistency).
        when = _machine.fence(cpu, when);
        Cycle start = when + engine.options().contextSwitchCost;
        if (obs::Recorder *recorder = _machine.recorder())
            recorder->quantumSwitch(
                cpu, _running[(std::size_t)cpu], next, start);
        engine.bindCpu(next, cpu);
        engine.wakeThread(next, start);
        _quantumStart[(std::size_t)next] =
            engine.timeOf(next);
        _running[(std::size_t)cpu] = next;
        _machine.setIStream(
            cpu,
            _params.codeBase + (Addr)next * (64ull << 20),
            _apps[(std::size_t)next]->codeBytes());
        ++_contextSwitches;
        DPRINTF(Sched, "cpu", cpu, " switches to '",
                _apps[(std::size_t)next]->name(), "' @", when);
        return;
    }
    _running[(std::size_t)cpu] = -1;  // processor idles
}

MultiprogResult
runMultiprog(MachineConfig config,
             std::vector<std::unique_ptr<spec::SpecApp>> apps,
             const MultiprogParams &params)
{
    config.numClusters = 1;
    Machine machine(config);
    Arena arena(config.arenaBytes);
    Engine engine(&machine, &arena, config.engine);

    std::vector<spec::SpecApp *> appPtrs;
    for (auto &app : apps) {
        arena.alignTo(4096);
        app->setup(arena);
        appPtrs.push_back(app.get());
    }

    RoundRobinPolicy policy(machine, appPtrs, params,
                            config.cpusPerCluster);
    engine.setPolicy(&policy);

    for (std::size_t i = 0; i < apps.size(); ++i) {
        spec::SpecApp *app = appPtrs[i];
        CpuId startCpu =
            (int)i < config.cpusPerCluster ? (CpuId)i : 0;
        engine.spawn(startCpu,
                     [app, &policy, &engine](ThreadCtx &ctx) {
                         while (!policy.shouldStop(engine))
                             app->iterate(ctx);
                     });
    }
    engine.setRecorder(machine.recorder());
    engine.run();
    machine.finishObs(engine.finishTime());

    MultiprogResult result;
    result.cycles = engine.finishTime();
    result.references = engine.totalRefs();
    result.readMissRate = machine.readMissRate();
    result.missRate = machine.missRate();
    result.contextSwitches = policy.contextSwitches();
    result.invalidations = machine.invalidations();

    std::uint64_t fetches = 0;
    std::uint64_t misses = 0;
    for (CpuId cpu = 0; cpu < config.cpusPerCluster; ++cpu) {
        fetches += machine.icache(cpu).fetches.value();
        misses += machine.icache(cpu).misses.value();
    }
    result.icacheMissRate =
        fetches ? (double)misses / (double)fetches : 0.0;

    result.verified = true;
    for (auto &app : apps) {
        if (!app->verify()) {
            warn("SPEC app '", app->name(),
                 "' failed verification");
            result.verified = false;
        }
    }
    return result;
}

} // namespace scmp
