/**
 * @file
 * Persistent design-point results (the sweep's memoization layer).
 *
 * Every completed design point is appended to a JSON-lines file as
 * one self-contained record keyed by the point's stable hash (see
 * point_key.hh). A restarted sweep reloads the file and skips every
 * point whose key it already holds — one execution, many reuses,
 * the same philosophy as the trace-replay substrate in src/trace/.
 *
 * Durability model: records are appended and flushed one at a time,
 * so a killed run loses at most the record being written. On reload
 * a malformed FINAL line is treated as exactly that crash artifact:
 * it is reported, truncated away, and its point is recomputed. A
 * malformed line anywhere else means the file is corrupt (bad disk,
 * concurrent writers, hand editing) and is a fatal error — quietly
 * dropping completed work or serving wrong results is worse than
 * stopping.
 */

#ifndef SCMP_SWEEP_RESULT_STORE_HH
#define SCMP_SWEEP_RESULT_STORE_HH

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/design_fields.hh"
#include "core/parallel_run.hh"

namespace scmp::sweep
{

/** One persisted design-point record. */
struct StoredPoint
{
    std::uint64_t key = 0;      //!< pointKey() of the record
    std::string workload;       //!< workload name
    std::string scale;          //!< run scale tag (quick/default/full)
    int cpusPerCluster = 0;
    std::uint64_t sccBytes = 0;
    /**
     * Axis tags: tag name -> unquoted value, for the tagged rows of
     * the design-field table (core/design_fields.hh) the producing
     * study varies that are live for the point, so records written
     * before a tag existed parse and serialize unchanged.
     */
    std::map<std::string, std::string> tags;
    /**
     * Evaluation model that produced the record ("analytic" for
     * screened points; empty = cycle-accurate, the historical
     * default). Analytic records also carry a salted key so they
     * can never be served where a cycle-accurate result is
     * expected.
     */
    std::string model;
    /** Worker threads the producing sweep ran with (0 = unknown). */
    int jobs = 0;
    RunResult result;
    double wallMs = 0;          //!< host wall time of the simulation
    std::string statsJson;      //!< optional hierarchical stats dump
    /** Optional interval-metrics series (src/obs columnar JSON). */
    std::string series;

    /**
     * The resume identity rule: the record describes @p config
     * when workload, procs and scc agree and every tag it carries
     * that is live for @p config equals @p config's value.
     */
    bool describes(const MachineConfig &config,
                   const std::string &workloadName) const;
};

/** The JSON-lines store behind --results / --resume. */
class ResultStore
{
  public:
    ResultStore() = default;
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Open @p path for appending.
     *
     * @param loadExisting Resume mode: parse any existing records
     *        first (fatal on corruption, see file comment). When
     *        false an existing file is overwritten.
     */
    void open(const std::string &path, bool loadExisting);

    /** @return true when open() has been called. */
    bool isOpen() const { return _file != nullptr; }

    /** Records loaded from disk plus records appended since. */
    std::size_t size() const;

    /** @return the stored record for @p key, or nullptr. */
    const StoredPoint *find(std::uint64_t key) const;

    /** Append one record and flush it to disk. Thread-safe. */
    void append(const StoredPoint &point);

    /** Flush and close the file (implied by destruction). */
    void close();

    /** Serialize one record as a single JSON line (no newline). */
    static std::string serialize(const StoredPoint &point);

    /**
     * Parse one record line.
     * @return false (with @p error filled) on malformed input.
     */
    static bool deserialize(const std::string &line,
                            StoredPoint &point, std::string *error);

  private:
    std::FILE *_file = nullptr;
    std::string _path;
    mutable std::mutex _mutex;
    std::map<std::uint64_t, StoredPoint> _records;
};

} // namespace scmp::sweep

#endif // SCMP_SWEEP_RESULT_STORE_HH
