#include "result_store.hh"

#include <unistd.h>

#include <type_traits>
#include <variant>

#include "sim/logging.hh"
#include "sweep/json.hh"
#include "sweep/point_key.hh"

namespace scmp::sweep
{

namespace
{

/** Schema version; bump when the record layout changes. */
constexpr std::uint64_t storeVersion = 1;

/** One RunResult field as it appears in a record's "result". */
struct ResultField
{
    const char *name;
    std::variant<std::uint64_t RunResult::*, double RunResult::*,
                 bool RunResult::*>
        slot;
};

/**
 * A run of "result" fields written together. The core group is
 * always written and required on read. An optional group is
 * written only when @p present holds — only the backend or workload
 * that produces it counts anything — so records that predate it
 * stay byte-identical, and its fields read as zero when absent.
 */
struct ResultGroup
{
    bool (*present)(const RunResult &r);  //!< null for the core
    std::vector<ResultField> fields;
};

/** Every "result" field, in the order records have always used. */
const ResultGroup resultGroups[] = {
    {nullptr,
     {{"cycles", &RunResult::cycles},
      {"instructions", &RunResult::instructions},
      {"references", &RunResult::references},
      {"readMissRate", &RunResult::readMissRate},
      {"missRate", &RunResult::missRate},
      {"invalidations", &RunResult::invalidations},
      {"busTransactions", &RunResult::busTransactions},
      {"busUtilization", &RunResult::busUtilization},
      {"verified", &RunResult::verified}}},
    // Banked DRAM: the flat backend counts no fills.
    {[](const RunResult &r) { return r.dramFills != 0; },
     {{"dramFills", &RunResult::dramFills},
      {"dramRowHitRate", &RunResult::dramRowHitRate}}},
    // TM: only a run that opened a transaction commits or aborts.
    {[](const RunResult &r) { return r.tmCommits || r.tmAborts; },
     {{"tmCommits", &RunResult::tmCommits},
      {"tmAborts", &RunResult::tmAborts},
      {"tmFallbacks", &RunResult::tmFallbacks},
      {"tmAbortRate", &RunResult::tmAbortRate}}},
    // Server latency: only the server workload counts requests.
    {[](const RunResult &r) { return r.requests != 0; },
     {{"requests", &RunResult::requests},
      {"latencyP50", &RunResult::latencyP50},
      {"latencyP95", &RunResult::latencyP95},
      {"latencyP99", &RunResult::latencyP99},
      {"throughput", &RunResult::throughput}}},
    // Side channel: only the prime+probe workload counts epochs.
    {[](const RunResult &r) { return r.secEpochs != 0; },
     {{"secEpochs", &RunResult::secEpochs},
      {"probeAccuracy", &RunResult::secProbeAccuracy},
      {"chanceAccuracy", &RunResult::secChanceAccuracy},
      {"leakBitsPerEpoch", &RunResult::leakBitsPerEpoch}}},
};

/** A result field's value as record text. */
template <class T>
std::string
valueText(T value)
{
    if constexpr (std::is_same_v<T, bool>)
        return value ? "true" : "false";
    else if constexpr (std::is_same_v<T, double>)
        return jsonNumber(value);
    else
        return std::to_string(value);
}

/** Read a result field from @p json; absent (null) reads as 0. */
template <class T>
void
readValue(const Json *json, T &value)
{
    if constexpr (std::is_same_v<T, bool>)
        value = json && json->asBool();
    else if constexpr (std::is_same_v<T, double>)
        value = json ? json->asDouble() : 0.0;
    else
        value = json ? json->asU64() : 0;
}

} // namespace

bool
StoredPoint::describes(const MachineConfig &config,
                       const std::string &workloadName) const
{
    if (workload != workloadName ||
        cpusPerCluster != config.cpusPerCluster ||
        sccBytes != config.scc.sizeBytes)
        return false;
    for (const auto &[name, value] : tags) {
        const DesignField &axis = taggedField(name);
        if (axis.isLive(config) && axis.text(config) != value)
            return false;
    }
    return true;
}

ResultStore::~ResultStore()
{
    close();
}

std::string
ResultStore::serialize(const StoredPoint &point)
{
    // Hand-assembled so field order is stable and human-scannable:
    // identity first, then the result payload.
    std::string out = "{\"v\":" + std::to_string(storeVersion);
    out += ",\"key\":" + jsonQuote(keyHex(point.key));
    out += ",\"workload\":" + jsonQuote(point.workload);
    out += ",\"scale\":" + jsonQuote(point.scale);
    out += ",\"procs\":" + std::to_string(point.cpusPerCluster);
    out += ",\"scc\":" + std::to_string(point.sccBytes);
    for (const DesignField &axis : designFields) {
        auto it = point.tags.find(axis.tag ? axis.tag : "");
        if (it == point.tags.end())
            continue;
        out += ",\"" + std::string(axis.tag) + "\":";
        out += axis.quoted ? jsonQuote(it->second) : it->second;
    }
    if (!point.model.empty())
        out += ",\"model\":" + jsonQuote(point.model);
    if (point.jobs)
        out += ",\"jobs\":" + std::to_string(point.jobs);
    out += ",\"wallMs\":" + jsonNumber(point.wallMs);

    const RunResult &r = point.result;
    out += ",\"result\":{";
    const char *separator = "";
    for (const ResultGroup &group : resultGroups) {
        if (group.present && !group.present(r))
            continue;
        for (const ResultField &field : group.fields) {
            out += separator;
            out += '"';
            out += field.name;
            out += "\":";
            std::visit([&](auto slot) { out += valueText(r.*slot); },
                       field.slot);
            separator = ",";
        }
    }
    out += "}";

    if (!point.statsJson.empty())
        out += ",\"stats\":" + point.statsJson;
    if (!point.series.empty())
        out += ",\"series\":" + point.series;
    out += "}";
    return out;
}

bool
ResultStore::deserialize(const std::string &line, StoredPoint &point,
                         std::string *error)
{
    Json doc;
    if (!Json::parse(line, doc, error))
        return false;

    auto missing = [&](const char *field) {
        if (error)
            *error = std::string("missing field '") + field + "'";
        return false;
    };

    const Json *v = doc.find("v");
    if (!v)
        return missing("v");
    if (v->asU64() != storeVersion) {
        if (error) {
            *error = "unsupported record version " +
                     std::to_string(v->asU64());
        }
        return false;
    }

    const Json *key = doc.find("key");
    if (!key)
        return missing("key");
    if (!parseKeyHex(key->asString(), point.key)) {
        if (error)
            *error = "malformed key '" + key->asString() + "'";
        return false;
    }

    const Json *workload = doc.find("workload");
    const Json *scale = doc.find("scale");
    const Json *procs = doc.find("procs");
    const Json *scc = doc.find("scc");
    const Json *wallMs = doc.find("wallMs");
    const Json *result = doc.find("result");
    if (!workload)
        return missing("workload");
    if (!scale)
        return missing("scale");
    if (!procs)
        return missing("procs");
    if (!scc)
        return missing("scc");
    if (!wallMs)
        return missing("wallMs");
    if (!result)
        return missing("result");

    point.workload = workload->asString();
    point.scale = scale->asString();
    point.cpusPerCluster = (int)procs->asU64();
    point.sccBytes = scc->asU64();
    for (const DesignField &axis : designFields) {
        const Json *value = axis.tag ? doc.find(axis.tag) : nullptr;
        if (value) {
            point.tags[axis.tag] = axis.quoted
                                       ? value->asString()
                                       : std::to_string(value->asU64());
        }
    }
    const Json *model = doc.find("model");
    point.model = model ? model->asString() : "";
    const Json *jobs = doc.find("jobs");
    point.jobs = jobs ? (int)jobs->asU64() : 0;
    point.wallMs = wallMs->asDouble();

    RunResult &r = point.result;
    for (const ResultGroup &group : resultGroups) {
        for (const ResultField &field : group.fields) {
            const Json *value = result->find(field.name);
            if (!value && !group.present)
                return missing(field.name);
            std::visit([&](auto slot) { readValue(value, r.*slot); },
                       field.slot);
        }
    }

    const Json *stats = doc.find("stats");
    point.statsJson = stats ? stats->dump() : "";
    const Json *series = doc.find("series");
    point.series = series ? series->dump() : "";
    return true;
}

void
ResultStore::open(const std::string &path, bool loadExisting)
{
    panic_if(_file, "result store is already open");
    _path = path;

    long keepBytes = 0;
    if (loadExisting) {
        if (std::FILE *in = std::fopen(path.c_str(), "rb")) {
            std::string line;
            std::size_t lineNo = 0;
            for (;;) {
                int c = std::fgetc(in);
                if (c != EOF && c != '\n') {
                    line.push_back((char)c);
                    continue;
                }
                bool atEof = (c == EOF);
                ++lineNo;
                if (line.empty()) {
                    // Blank line (or clean end of file).
                    keepBytes = std::ftell(in);
                    if (atEof)
                        break;
                    line.clear();
                    continue;
                }
                StoredPoint point;
                std::string error;
                if (deserialize(line, point, &error)) {
                    _records[point.key] = std::move(point);
                    keepBytes = std::ftell(in);
                    if (atEof)
                        break;
                } else if (atEof) {
                    // A newline-less partial final line is what a
                    // killed run leaves behind: drop it and let the
                    // sweep recompute that point.
                    warn("results file '", path, "': discarding ",
                         "partial final record (line ", lineNo,
                         ", ", error, ")");
                    break;
                } else {
                    fatal("results file '", path, "' is corrupt ",
                          "at line ", lineNo, ": ", error,
                          " — refusing to resume from it");
                }
                line.clear();
            }
            std::fclose(in);
            // Trim any discarded partial tail so appended records
            // start on a fresh line.
            if (::truncate(path.c_str(), keepBytes) != 0) {
                fatal("cannot truncate partial record from '", path,
                      "'");
            }
        }
        _file = std::fopen(path.c_str(), "ab");
    } else {
        _file = std::fopen(path.c_str(), "wb");
    }
    fatal_if(!_file, "cannot open results file '", path,
             "' for writing");
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _records.size();
}

const StoredPoint *
ResultStore::find(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _records.find(key);
    return it == _records.end() ? nullptr : &it->second;
}

void
ResultStore::append(const StoredPoint &point)
{
    std::string line = serialize(point) + "\n";
    std::lock_guard<std::mutex> lock(_mutex);
    _records[point.key] = point;
    if (!_file)
        return;
    panic_if(std::fwrite(line.data(), 1, line.size(), _file) !=
                 line.size(),
             "short write to results file '", _path,
             "' (disk full?)");
    panic_if(std::fflush(_file) != 0,
             "cannot flush results file '", _path, "'");
}

void
ResultStore::close()
{
    if (!_file)
        return;
    panic_if(std::fclose(_file) != 0,
             "cannot close results file '", _path, "'");
    _file = nullptr;
}

} // namespace scmp::sweep
