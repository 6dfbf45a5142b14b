/**
 * @file
 * golden_capture — (re)generate the golden-number fixtures.
 *
 * Runs every pinned design point in golden_common.hh and writes
 * one ResultStore JSON-lines file per workload into the output
 * directory (default tests/golden/ relative to the cwd), then runs
 * every pinned profiling pass and writes its histograms as text
 * under the directory's profiles/ subdirectory. Run this
 * ONLY when a change deliberately alters simulated behaviour, and
 * commit the regenerated fixtures with the change that explains
 * them:
 *
 *   build/tests/golden_capture tests/golden
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "golden_common.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    using namespace scmp::golden;

    std::string dir = argc > 1 ? argv[1] : "tests/golden";

    std::map<std::string, std::vector<sweep::StoredPoint>> byFile;
    for (const GoldenSpec &spec : goldenSpecs()) {
        std::printf("capturing %s procs=%d scc=%llu...\n",
                    spec.workload, spec.cpusPerCluster,
                    (unsigned long long)spec.sccBytes);
        std::fflush(stdout);
        byFile[spec.workload].push_back(runGoldenPoint(spec));
    }

    for (const auto &[workload, points] : byFile) {
        sweep::ResultStore store;
        store.open(goldenPath(dir, workload), false);
        for (const auto &point : points)
            store.append(point);
        store.close();
        std::printf("wrote %s (%zu points)\n",
                    goldenPath(dir, workload).c_str(),
                    points.size());
    }

    std::filesystem::create_directories(dir + "/profiles");
    for (const ProfileSpec &spec : profileSpecs()) {
        std::printf("profiling %s...\n", spec.name);
        std::fflush(stdout);
        std::string path = profilePath(dir, spec);
        std::ofstream out(path);
        fatal_if(!out, "cannot write ", path);
        for (const std::string &line :
             profileLines(runGoldenProfile(spec)))
            out << line << "\n";
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}
