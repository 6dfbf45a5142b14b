/**
 * @file
 * Chrome trace_event serialization of the recorded timeline.
 *
 * Output is the stable "JSON object format" both chrome://tracing
 * and Perfetto load: {"traceEvents":[...]} with "X" (complete),
 * "i" (instant), "b"/"e" (async begin/end, used for overlapping
 * MSHR fills), and "M" (metadata) events. Processes group tracks:
 * pid 0 is the machine level (engine threads, the bus, the
 * multiprog scheduler), pid 1 + c is cluster c (SCC ports, MSHR
 * file). Timestamps are simulated cycles written as microseconds —
 * absolute units don't matter to the viewers.
 *
 * A top-level "scmp" key (ignored by the viewers) carries the drop
 * counters (events per source, and interval-series rows) and the
 * per-phase attribution so one file captures the whole run's
 * observability output.
 */

#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "obs/recorder.hh"

namespace scmp::obs
{

const char *
sourceName(Source source)
{
    switch (source) {
      case Source::Engine:
        return "engine";
      case Source::Bus:
        return "bus";
      case Source::Scc:
        return "scc";
      case Source::Mshr:
        return "mshr";
      case Source::Sched:
        return "sched";
    }
    return "unknown";
}

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::ThreadRun:
        return "run";
      case EventKind::BarrierWait:
        return "barrier-wait";
      case EventKind::BarrierRelease:
        return "phase-boundary";
      case EventKind::BusWait:
        return "bus-wait";
      case EventKind::BusOccupy:
        return "bus-occupy";
      case EventKind::SnoopFanout:
        return "snoop";
      case EventKind::PortRef:
        return "ref";
      case EventKind::MshrAlloc:
        return "fill";
      case EventKind::MshrMerge:
        return "merge";
      case EventKind::MshrRetire:
        return "retire";
      case EventKind::QuantumSwitch:
        return "switch";
    }
    return "unknown";
}

namespace
{

/** Track ids within pid 0 (the machine process). */
constexpr int busOccupyTid = 1;
constexpr int snoopTid = 2;
constexpr int busWaitTidBase = 10;
constexpr int phaseTid = 99;
constexpr int threadTidBase = 100;
constexpr int schedTidBase = 150;
/** Track id of the MSHR lane within a cluster process. */
constexpr int mshrTid = 60;

/** Where one event renders: process, track, and the track's name. */
struct Placement
{
    int pid = 0;
    int tid = 0;
    std::string trackName;
};

Placement
place(Source source, const Event &event)
{
    int track = event.track;
    switch (source) {
      case Source::Engine:
        if (event.kind == EventKind::BarrierRelease)
            return {0, phaseTid, "phases"};
        return {0, threadTidBase + track,
                "thread " + std::to_string(track)};
      case Source::Bus:
        if (event.kind == EventKind::BusOccupy)
            return {0, busOccupyTid, "bus"};
        if (event.kind == EventKind::SnoopFanout)
            return {0, snoopTid, "snoop fan-out"};
        return {0, busWaitTidBase + track,
                "bus wait (cache " + std::to_string(track) + ")"};
      case Source::Scc:
        return {1 + event.owner, track,
                "port " + std::to_string(track)};
      case Source::Mshr:
        return {1 + event.owner, mshrTid, "mshr"};
      case Source::Sched:
        return {0, schedTidBase + track,
                "cpu " + std::to_string(track) + " sched"};
    }
    return {};
}

void
writeArgs(std::ostream &os, Source source, const Event &event)
{
    os << "\"args\":{";
    bool first = true;
    auto field = [&](const char *key, std::uint64_t value) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << key << "\":" << value;
    };
    if (event.addr)
        field("addr", event.addr);
    switch (event.kind) {
      case EventKind::BarrierRelease:
        field("waiters", event.arg);
        break;
      case EventKind::SnoopFanout:
        field("snooped", event.arg);
        break;
      case EventKind::BusOccupy:
        field("dirty_supplied", event.arg);
        break;
      case EventKind::QuantumSwitch:
        if (!first)
            os << ',';
        first = false;
        // `from` may be -1 (cpu was idle); keep it signed.
        os << "\"from\":" << (int)event.owner
           << ",\"to\":" << (int)event.arg;
        break;
      default:
        break;
    }
    (void)source;
    os << '}';
}

} // namespace

void
Recorder::writeChromeTrace(std::ostream &os) const
{
    // First pass: name every process/track that will appear.
    std::map<int, std::string> processNames;
    std::map<std::pair<int, int>, std::string> trackNames;
    for (int s = 0; s < numSources; ++s) {
        auto source = static_cast<Source>(s);
        for (const Event &event : ring(source).events()) {
            Placement at = place(source, event);
            if (!processNames.count(at.pid))
                processNames[at.pid] =
                    at.pid == 0 ? "machine"
                                : "cluster " +
                                      std::to_string(at.pid - 1);
            trackNames[{at.pid, at.tid}] = at.trackName;
        }
    }

    os << "{\"traceEvents\":[";
    bool first = true;
    auto next = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    for (const auto &[pid, name] : processNames) {
        next();
        os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
           << pid << ",\"tid\":0,\"args\":{\"name\":\"" << name
           << "\"}}";
    }
    for (const auto &[key, name] : trackNames) {
        next();
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
           << key.first << ",\"tid\":" << key.second
           << ",\"args\":{\"name\":\"" << name << "\"}}";
    }

    for (int s = 0; s < numSources; ++s) {
        auto source = static_cast<Source>(s);
        for (const Event &event : ring(source).events()) {
            Placement at = place(source, event);
            const char *name =
                event.label ? event.label : eventKindName(event.kind);
            bool instant = event.end == event.start;
            bool async = event.kind == EventKind::MshrAlloc;
            next();
            os << "{\"name\":\"" << name << "\",\"cat\":\""
               << sourceName(source) << "\",\"pid\":" << at.pid
               << ",\"tid\":" << at.tid << ",\"ts\":" << event.start
               << ',';
            if (async) {
                // MSHR fills overlap freely; async begin/end pairs
                // keyed by line address render them as parallel
                // lanes instead of malformed nesting.
                os << "\"ph\":\"b\",\"id\":" << event.addr << ',';
                writeArgs(os, source, event);
                os << '}';
                next();
                os << "{\"name\":\"" << name << "\",\"cat\":\""
                   << sourceName(source) << "\",\"pid\":" << at.pid
                   << ",\"tid\":" << at.tid
                   << ",\"ts\":" << event.end
                   << ",\"ph\":\"e\",\"id\":" << event.addr
                   << ",\"args\":{}}";
            } else if (instant) {
                os << "\"ph\":\"i\",\"s\":\"t\",";
                writeArgs(os, source, event);
                os << '}';
            } else {
                os << "\"ph\":\"X\",\"dur\":"
                   << (event.end - event.start) << ',';
                writeArgs(os, source, event);
                os << '}';
            }
        }
    }

    os << "],\n\"displayTimeUnit\":\"ms\",\n\"scmp\":{";
    os << "\"recorded\":" << totalRecorded();
    os << ",\"dropped\":{";
    for (int s = 0; s < numSources; ++s) {
        auto source = static_cast<Source>(s);
        if (s)
            os << ',';
        os << '"' << sourceName(source)
           << "\":" << ring(source).dropped();
    }
    os << ",\"series\":" << _sampler.droppedRows();
    os << "},\"mshr_allocs\":" << _mshrAllocs
       << ",\"mshr_merges\":" << _mshrMerges;
    os << ",\"phases\":" << _phases.toJson();
    os << "}}\n";
}

} // namespace scmp::obs
