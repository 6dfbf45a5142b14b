#include "recorder.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace scmp::obs
{

Recorder::Recorder(const RecorderConfig &config)
    : _config(config),
      _sampler(config.intervalCycles, config.seriesRowCap)
{
    for (auto &ring : _rings)
        ring = std::make_unique<EventRing>(_config.eventCap);
}

void
Recorder::addColumn(const std::string &name,
                    std::function<std::uint64_t()> read,
                    bool cumulative)
{
    panic_if(_sealed, "obs column '", name, "' registered after seal");
    Column column{name, std::move(read), cumulative};
    _sampler.addColumn(column);
    if (cumulative)
        _phases.addColumn(column);
}

void
Recorder::addCounter(const std::string &name,
                     std::function<std::uint64_t()> read)
{
    addColumn(name, std::move(read), true);
}

void
Recorder::addGauge(const std::string &name,
                   std::function<std::uint64_t()> read)
{
    addColumn(name, std::move(read), false);
}

void
Recorder::seal()
{
    if (_sealed)
        return;
    _sealed = true;
    _phases.seal();
}

EventRing &
Recorder::ringOf(Source source)
{
    return *_rings[static_cast<std::size_t>(source)];
}

const EventRing &
Recorder::ring(Source source) const
{
    return *_rings[static_cast<std::size_t>(source)];
}

std::uint64_t
Recorder::totalRecorded() const
{
    std::uint64_t total = 0;
    for (const auto &ring : _rings)
        total += ring->recorded();
    return total;
}

std::uint64_t
Recorder::totalDropped() const
{
    std::uint64_t total = 0;
    for (const auto &ring : _rings)
        total += ring->dropped();
    return total;
}

void
Recorder::threadSlice(ThreadId tid, Cycle start, Cycle end)
{
    Event event;
    event.start = start;
    event.end = end;
    event.track = static_cast<std::int16_t>(tid);
    event.kind = EventKind::ThreadRun;
    ringOf(Source::Engine).push(event);
}

void
Recorder::barrierWait(ThreadId tid, Cycle arrive, Cycle release)
{
    Event event;
    event.start = arrive;
    event.end = release;
    event.track = static_cast<std::int16_t>(tid);
    event.kind = EventKind::BarrierWait;
    ringOf(Source::Engine).push(event);
}

void
Recorder::barrierRelease(Cycle when, int waiters)
{
    Event event;
    event.start = when;
    event.end = when;
    event.arg = static_cast<std::uint32_t>(waiters);
    event.kind = EventKind::BarrierRelease;
    ringOf(Source::Engine).push(event);
    _phases.boundary(when);
}

void
Recorder::busTransaction(int cacheIndex, const char *opName,
                         Addr lineAddr, Cycle request, Cycle grant,
                         Cycle occupancy, int snooped,
                         bool dirtySupplied)
{
    EventRing &ring = ringOf(Source::Bus);
    if (grant > request) {
        Event wait;
        wait.start = request;
        wait.end = grant;
        wait.addr = lineAddr;
        wait.label = opName;
        wait.track = static_cast<std::int16_t>(cacheIndex);
        wait.kind = EventKind::BusWait;
        ring.push(wait);
    }
    Event occupy;
    occupy.start = grant;
    occupy.end = grant + occupancy;
    occupy.addr = lineAddr;
    occupy.label = opName;
    occupy.arg = dirtySupplied ? 1 : 0;
    occupy.track = static_cast<std::int16_t>(cacheIndex);
    occupy.kind = EventKind::BusOccupy;
    ring.push(occupy);
    if (snooped > 0) {
        Event snoop;
        snoop.start = grant;
        snoop.end = grant;
        snoop.addr = lineAddr;
        snoop.label = opName;
        snoop.arg = static_cast<std::uint32_t>(snooped);
        snoop.track = static_cast<std::int16_t>(cacheIndex);
        snoop.kind = EventKind::SnoopFanout;
        ring.push(snoop);
    }
}

void
Recorder::sccPortRef(int cluster, int port, const char *typeName,
                     Addr addr, Cycle request, Cycle done)
{
    Event event;
    event.start = request;
    event.end = done;
    event.addr = addr;
    event.label = typeName;
    event.track = static_cast<std::int16_t>(port);
    event.owner = static_cast<std::int16_t>(cluster);
    event.kind = EventKind::PortRef;
    ringOf(Source::Scc).push(event);
}

void
Recorder::mshrAlloc(int cluster, Addr lineAddr, Cycle start,
                    Cycle ready)
{
    ++_mshrAllocs;
    ++_mshrLive;
    Event event;
    event.start = start;
    event.end = ready;
    event.addr = lineAddr;
    event.owner = static_cast<std::int16_t>(cluster);
    event.kind = EventKind::MshrAlloc;
    ringOf(Source::Mshr).push(event);
}

void
Recorder::mshrMerge(int cluster, Addr lineAddr, Cycle when)
{
    ++_mshrMerges;
    Event event;
    event.start = when;
    event.end = when;
    event.addr = lineAddr;
    event.owner = static_cast<std::int16_t>(cluster);
    event.kind = EventKind::MshrMerge;
    ringOf(Source::Mshr).push(event);
}

void
Recorder::mshrRetire(int cluster, Addr lineAddr, Cycle when)
{
    if (_mshrLive > 0)
        --_mshrLive;
    Event event;
    event.start = when;
    event.end = when;
    event.addr = lineAddr;
    event.owner = static_cast<std::int16_t>(cluster);
    event.kind = EventKind::MshrRetire;
    ringOf(Source::Mshr).push(event);
}

void
Recorder::quantumSwitch(int cpu, ThreadId fromTid, ThreadId toTid,
                        Cycle when)
{
    Event event;
    event.start = when;
    event.end = when;
    event.arg = static_cast<std::uint32_t>(toTid);
    event.track = static_cast<std::int16_t>(cpu);
    event.owner = static_cast<std::int16_t>(fromTid);
    event.kind = EventKind::QuantumSwitch;
    ringOf(Source::Sched).push(event);
}

void
Recorder::finish(Cycle end)
{
    if (_finished)
        return;
    _finished = true;
    seal();
    _sampler.finish(end);
    _phases.finish(end);

    if (_config.captureSeries && _sampler.enabled())
        _seriesJson = _sampler.toJson();

    if (!_config.seriesPath.empty()) {
        std::ofstream os(_config.seriesPath);
        if (!os)
            warn("obs: cannot write series file ",
                 _config.seriesPath);
        else
            _sampler.writeCsv(os);
    }

    if (!_config.tracePath.empty()) {
        std::ofstream os(_config.tracePath);
        if (!os)
            warn("obs: cannot write trace file ", _config.tracePath);
        else
            writeChromeTrace(os);
    }

    if (_config.printPhases)
        _phases.writeTable(std::cout);
}

void
applyEnv(RecorderConfig &config)
{
    const char *value = std::getenv("SCMP_OBS");
    if (value && *value && std::string(value) != "0") {
        config.enabled = true;
        if (std::string(value) != "1")
            config.tracePath = value;
        else if (config.tracePath.empty())
            config.tracePath = "scmp_trace.json";
    }

    if (auto cycles = Config::envSize("SCMP_OBS_INTERVAL"))
        config.intervalCycles = *cycles;

    // Like --obs-series, a series path on its own turns the
    // recorder on.
    const char *path = std::getenv("SCMP_OBS_SERIES");
    if (path && *path) {
        config.enabled = true;
        config.seriesPath = path;
        if (config.intervalCycles == 0)
            config.intervalCycles = defaultObsInterval;
    }

    if (auto cap = Config::envSize("SCMP_OBS_CAP")) {
        fatal_if(*cap == 0, "SCMP_OBS_CAP must be at least 1");
        config.eventCap = (std::size_t)*cap;
    }
}

RecorderConfig
fromFlags(const Config &flags, const char *trace)
{
    RecorderConfig config;
    if (flags.has("obs")) {
        std::string path = flags.getString("obs");
        config.tracePath = path == "true" || path == "1" ? trace : path;
    }
    config.seriesPath = flags.getString("obs-series", "");
    config.intervalCycles = flags.getSize("obs-interval", 0);
    config.enabled = flags.has("obs") || flags.has("obs-series") ||
                     flags.has("obs-interval");
    if (config.enabled && config.intervalCycles == 0)
        config.intervalCycles = defaultObsInterval;
    return config;
}

} // namespace scmp::obs
