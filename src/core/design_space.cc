#include "design_space.hh"

#include "sim/logging.hh"

namespace scmp
{

std::vector<std::uint64_t>
DesignSpace::paperSccSizes()
{
    return {4ull << 10,  8ull << 10,   16ull << 10, 32ull << 10,
            64ull << 10, 128ull << 10, 256ull << 10, 512ull << 10};
}

std::vector<int>
DesignSpace::paperClusterSizes()
{
    return {1, 2, 4, 8};
}

std::uint64_t
DesignGrid::coordKey(int cpusPerCluster, std::uint64_t sccBytes)
{
    panic_if(cpusPerCluster < 0 || cpusPerCluster >= (1 << 16),
             "cpusPerCluster ", cpusPerCluster,
             " out of key range");
    panic_if(sccBytes >= (1ull << 48),
             "SCC size ", sccBytes, " out of key range");
    return ((std::uint64_t)cpusPerCluster << 48) | sccBytes;
}

DesignGrid::DesignGrid(std::vector<DesignPoint> points)
{
    for (auto &point : points)
        add(std::move(point));
}

void
DesignGrid::add(DesignPoint point)
{
    std::uint64_t key =
        coordKey(point.cpusPerCluster, point.sccBytes);
    auto [it, inserted] = _index.emplace(key, _points.size());
    panic_if(!inserted, "duplicate design point ",
             point.cpusPerCluster, "P/", sizeString(point.sccBytes));
    _points.push_back(std::move(point));
}

const DesignPoint *
DesignGrid::tryAt(int cpusPerCluster, std::uint64_t sccBytes) const
{
    auto it = _index.find(coordKey(cpusPerCluster, sccBytes));
    return it == _index.end() ? nullptr : &_points[it->second];
}

const DesignPoint &
DesignGrid::at(int cpusPerCluster, std::uint64_t sccBytes) const
{
    const DesignPoint *point = tryAt(cpusPerCluster, sccBytes);
    if (!point) {
        panic("design point ", cpusPerCluster, "P/",
              sizeString(sccBytes), " not in sweep results");
    }
    return *point;
}

namespace
{

std::vector<std::string>
axisHeader(const std::vector<int> &clusterSizes)
{
    std::vector<std::string> header{"SCC Size"};
    for (int procs : clusterSizes) {
        header.push_back(std::to_string(procs) +
                         (procs == 1 ? " Proc/cl" : " Procs/cl"));
    }
    return header;
}

} // namespace

Table
DesignSpace::normalizedTimeTable(
    const std::string &title, const DesignGrid &grid,
    const std::vector<std::uint64_t> &sccSizes,
    const std::vector<int> &clusterSizes)
{
    Table table(title);
    table.setHeader(axisHeader(clusterSizes));
    double base =
        (double)grid.at(clusterSizes.front(), sccSizes.front())
            .result.cycles;
    for (std::uint64_t size : sccSizes) {
        std::vector<std::string> row{sizeString(size)};
        for (int procs : clusterSizes) {
            double t = (double)grid.at(procs, size).result.cycles;
            row.push_back(Table::cell(100.0 * t / base, 1));
        }
        table.addRow(row);
    }
    return table;
}

Table
DesignSpace::speedupTable(const std::string &title,
                          const DesignGrid &grid,
                          const std::vector<std::uint64_t> &sccSizes,
                          const std::vector<int> &clusterSizes)
{
    Table table(title);
    table.setHeader(axisHeader(clusterSizes));
    for (std::uint64_t size : sccSizes) {
        std::vector<std::string> row{sizeString(size)};
        double base = (double)grid.at(1, size).result.cycles;
        for (int procs : clusterSizes) {
            double t = (double)grid.at(procs, size).result.cycles;
            row.push_back(Table::cell(base / t, 1));
        }
        table.addRow(row);
    }
    return table;
}

Table
DesignSpace::missRateTable(const std::string &title,
                           const DesignGrid &grid,
                           const std::vector<std::uint64_t> &sccSizes,
                           const std::vector<int> &clusterSizes)
{
    Table table(title);
    std::vector<std::string> header{"Procs/cluster"};
    for (std::uint64_t size : sccSizes)
        header.push_back(sizeString(size));
    table.setHeader(header);
    for (int procs : clusterSizes) {
        std::vector<std::string> row{std::to_string(procs)};
        for (std::uint64_t size : sccSizes) {
            row.push_back(Table::percentCell(
                grid.at(procs, size).result.readMissRate));
        }
        table.addRow(row);
    }
    return table;
}

Table
DesignSpace::invalidationTable(
    const std::string &title, const DesignGrid &grid,
    const std::vector<std::uint64_t> &sccSizes,
    const std::vector<int> &clusterSizes)
{
    Table table(title);
    std::vector<std::string> header{"Procs/cluster"};
    for (std::uint64_t size : sccSizes)
        header.push_back(sizeString(size));
    table.setHeader(header);
    for (int procs : clusterSizes) {
        std::vector<std::string> row{std::to_string(procs)};
        for (std::uint64_t size : sccSizes) {
            row.push_back(Table::cell(
                grid.at(procs, size).result.invalidations));
        }
        table.addRow(row);
    }
    return table;
}

} // namespace scmp
