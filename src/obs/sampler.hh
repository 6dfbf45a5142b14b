/**
 * @file
 * Interval metrics: periodic snapshots of registered counters.
 *
 * The sampler owns a list of named columns, each a closure reading
 * one cumulative counter (a stats:: scalar, a sum of several, or a
 * recorder-internal gauge). Every `interval` simulated cycles it
 * appends one row of cumulative values, up to a row cap past which
 * rows are counted as dropped. A final row is taken at the run's
 * finish cycle, past the cap too, so the last row of every counter
 * column equals the whole-run statistic EXACTLY — the series always
 * integrates back to the end-of-run aggregates.
 *
 * Sampling is driven passively from the engine's dispatch loop: a
 * row for boundary B is taken at the first observation at-or-after
 * B, holding the counters' values at that moment of host execution.
 * With the engine's slack window at 0 that is exact to within the
 * yield latency; the row's `cycle` column is always the exact
 * boundary.
 */

#ifndef SCMP_OBS_SAMPLER_HH
#define SCMP_OBS_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace scmp::obs
{

/** One registered column. */
struct Column
{
    std::string name;
    std::function<std::uint64_t()> read;
    /**
     * Cumulative counters (monotone, delta-meaningful) appear in
     * the per-phase breakdown; instantaneous gauges (e.g. live MSHR
     * occupancy) are sampled but excluded from phase deltas.
     */
    bool cumulative = true;
};

/** The interval-metrics series. */
class IntervalSampler
{
  public:
    /** @param interval Cycles between rows; 0 disables sampling. */
    explicit IntervalSampler(Cycle interval, std::size_t rowCap)
        : _interval(interval), _rowCap(rowCap)
    {
    }

    bool enabled() const { return _interval != 0; }
    Cycle interval() const { return _interval; }

    /** Register a column (before the first tick). */
    void
    addColumn(const Column &column)
    {
        _columns.push_back(column);
    }

    const std::vector<Column> &columns() const { return _columns; }

    /**
     * Emit a row for every boundary crossed up to @p now; past the
     * row cap, count it dropped instead.
     */
    void
    tick(Cycle now)
    {
        while (_interval && now >= _nextBoundary) {
            if (_rows.size() < _rowCap)
                _rows.push_back(rowAt(_nextBoundary));
            else
                ++_droppedRows;
            _nextBoundary += _interval;
        }
    }

    /**
     * Take the final row at the run's finish cycle, which is at or
     * after every tick. It is kept even past the row cap: its
     * counters are the whole run's totals.
     */
    void
    finish(Cycle end)
    {
        if (!_interval || _columns.empty())
            return;
        tick(end);
        if (!_rows.empty() && _rows.back().cycle == end)
            return;
        // A finish cycle on a boundary lost that boundary's row to
        // the cap in tick() above; this row takes its place.
        if (end % _interval == 0)
            --_droppedRows;
        _rows.push_back(rowAt(end));
    }

    struct Row
    {
        Cycle cycle = 0;
        std::vector<std::uint64_t> values;
    };

    const std::vector<Row> &rows() const { return _rows; }
    std::uint64_t droppedRows() const { return _droppedRows; }

    /** Columnar CSV: header then one row per sample. */
    void writeCsv(std::ostream &os) const;

    /**
     * Compact columnar JSON:
     *   {"columns":["cycle",...],"rows":[[c,v,...],...]}
     * Attached verbatim to sweep result-store records.
     */
    std::string toJson() const;

  private:
    Row
    rowAt(Cycle cycle) const
    {
        Row row;
        row.cycle = cycle;
        row.values.reserve(_columns.size());
        for (const Column &column : _columns)
            row.values.push_back(column.read());
        return row;
    }

    Cycle _interval;
    std::size_t _rowCap;
    Cycle _nextBoundary = 0;
    std::vector<Column> _columns;
    std::vector<Row> _rows;
    std::uint64_t _droppedRows = 0;
};

} // namespace scmp::obs

#endif // SCMP_OBS_SAMPLER_HH
